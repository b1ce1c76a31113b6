/// Unit tests for the out-of-core storage layer: the .lsblk container
/// (BlockStoreWriter/BlockStore), the global block cache, the blocked
/// Trace backend's equivalence with the mem backend,
/// and a concurrent-reader hammer (the TSan job runs it under
/// -fsanitize=thread with a tiny cache, so the cache lock and every pin
/// path gets exercised under real contention).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "apps/lassen.hpp"
#include "random_trace.hpp"
#include "trace/builder.hpp"
#include "trace/storage/block_cache.hpp"
#include "trace/storage/block_store.hpp"
#include "trace/storage/blocked_trace.hpp"
#include "trace/storage/column.hpp"
#include "trace/storage/options.hpp"
#include "trace_fixtures.hpp"

namespace logstruct::trace::storage {
namespace {

std::string temp_path(const char* tag) {
  return ::testing::TempDir() + "ls_storage_" + tag + "_" +
         std::to_string(::getpid()) + ".lsblk";
}

/// Interleaved multi-column writes survive the round trip, with the
/// 4 KiB block floor forcing every column across many blocks.
TEST(BlockStore, MultiColumnRoundTrip) {
  const std::string path = temp_path("roundtrip");
  std::vector<std::int32_t> a(5000);
  std::vector<std::int64_t> b(3000);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<std::int32_t>(i * 7);
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<std::int64_t>(i) * -3;
  {
    BlockStoreWriter w(path, 4096);
    w.set_elem_bytes(ColumnId::Events, 4);
    w.set_elem_bytes(ColumnId::Blocks, 8);
    // Interleave appends in uneven slices.
    std::size_t ia = 0, ib = 0;
    while (ia < a.size() || ib < b.size()) {
      std::size_t na = std::min<std::size_t>(700, a.size() - ia);
      if (na > 0) w.append(ColumnId::Events, a.data() + ia, na * 4);
      ia += na;
      std::size_t nb = std::min<std::size_t>(333, b.size() - ib);
      if (nb > 0) w.append(ColumnId::Blocks, b.data() + ib, nb * 8);
      ib += nb;
    }
    w.finish("meta-blob");
  }
  BlockStore store(path);
  EXPECT_EQ(store.metadata(), "meta-blob");
  EXPECT_EQ(store.column_bytes(ColumnId::Events), a.size() * 4);
  EXPECT_EQ(store.column_bytes(ColumnId::Blocks), b.size() * 8);
  EXPECT_GT(store.num_blocks(ColumnId::Events), 2u);

  BlockedColumn<std::int32_t> ca(&store, ColumnId::Events);
  BlockedColumn<std::int64_t> cb(&store, ColumnId::Blocks);
  ASSERT_EQ(ca.size(), a.size());
  ASSERT_EQ(cb.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(ca.get(i), a[i]);
  for (std::size_t i = 0; i < b.size(); ++i) ASSERT_EQ(cb.get(i), b[i]);
  std::remove(path.c_str());
}

/// pin() must serve spans that cross block boundaries (copying) and
/// spans inside one block (aliasing the cached buffer) identically.
TEST(BlockStore, PinAcrossBlockBoundary) {
  const std::string path = temp_path("pin");
  std::vector<std::int32_t> vals(4000);
  for (std::size_t i = 0; i < vals.size(); ++i)
    vals[i] = static_cast<std::int32_t>(i);
  {
    BlockStoreWriter w(path, 4096);  // 1024 i32 per block
    w.set_elem_bytes(ColumnId::Events, 4);
    w.append(ColumnId::Events, vals.data(), vals.size() * 4);
    w.finish("");
  }
  BlockStore store(path);
  BlockedColumn<std::int32_t> col(&store, ColumnId::Events);
  // Straddles the 1024-element block boundary.
  PinnedSpan<std::int32_t> span = col.pin(1000, 1100);
  ASSERT_EQ(span.size(), 100u);
  for (std::size_t i = 0; i < span.size(); ++i)
    EXPECT_EQ(span[i], static_cast<std::int32_t>(1000 + i));
  // Entirely inside one block.
  PinnedSpan<std::int32_t> inner = col.pin(10, 20);
  for (std::size_t i = 0; i < inner.size(); ++i)
    EXPECT_EQ(inner[i], static_cast<std::int32_t>(10 + i));
  // Chunked iteration covers everything exactly once, in order.
  std::size_t seen = 0;
  col.for_each_chunk([&](const std::int32_t* p, std::size_t n,
                         std::size_t base) {
    EXPECT_EQ(base, seen);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(p[i], static_cast<std::int32_t>(base + i));
    seen += n;
  });
  EXPECT_EQ(seen, vals.size());
  std::remove(path.c_str());
}

/// A tiny budget forces evictions, the counters record them, and a
/// pinned span stays valid after its block is evicted (the shared_ptr
/// is the pin).
TEST(BlockCacheTest, EvictionStatsAndPinSafety) {
  const std::string path = temp_path("cache");
  std::vector<std::int32_t> vals(64 * 1024);  // 256 KiB = 64 blocks
  for (std::size_t i = 0; i < vals.size(); ++i)
    vals[i] = static_cast<std::int32_t>(i * 13);
  {
    BlockStoreWriter w(path, 4096);
    w.set_elem_bytes(ColumnId::Events, 4);
    w.append(ColumnId::Events, vals.data(), vals.size() * 4);
    w.finish("");
  }
  StorageOptions tiny = default_options();
  tiny.cache_bytes = 16 * 4096;  // 16 of 64 blocks fit
  ScopedStorageOptions scope(tiny);

  BlockStore store(path);
  BlockedColumn<std::int32_t> col(&store, ColumnId::Events);
  BlockCache::global().reset_stats();

  PinnedSpan<std::int32_t> pinned = col.pin(0, 1024);  // block 0
  // Sweep everything twice: the second pass re-misses what was evicted.
  std::int64_t sum = 0;
  for (int pass = 0; pass < 2; ++pass)
    for (std::size_t i = 0; i < vals.size(); i += 512)
      sum += col.get(i);
  BlockCache::Stats stats = BlockCache::global().stats();
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_NE(sum, 0);
  // The pinned buffer must still read correctly even though block 0 was
  // evicted from the cache long ago.
  for (std::size_t i = 0; i < pinned.size(); ++i)
    ASSERT_EQ(pinned[i], static_cast<std::int32_t>(i * 13));
  std::remove(path.c_str());
}

/// A working set that fits the budget stops missing once resident: 8
/// distinct blocks read round-robin 100 times under an 8-block budget
/// miss exactly once each, whatever blocks they are. Pairs of them are
/// 16 blocks apart, which a cache split into 16 hash slices of 1/16 of
/// the budget each puts in the same slice, where they evict each other.
TEST(BlockCacheTest, WorkingSetWithinBudgetStopsMissing) {
  const std::string path = temp_path("workingset");
  std::vector<std::int32_t> vals(32 * 1024);  // 128 KiB = 32 blocks
  for (std::size_t i = 0; i < vals.size(); ++i)
    vals[i] = static_cast<std::int32_t>(i * 5);
  {
    BlockStoreWriter w(path, 4096);  // 1024 i32 per block
    w.set_elem_bytes(ColumnId::Events, 4);
    w.append(ColumnId::Events, vals.data(), vals.size() * 4);
    w.finish("");
  }
  StorageOptions opts = default_options();
  opts.cache_bytes = 8 * 4096;
  ScopedStorageOptions scope(opts);

  BlockStore store(path);
  BlockedColumn<std::int32_t> col(&store, ColumnId::Events);
  BlockCache::global().reset_stats();
  const std::size_t blocks[8] = {0, 16, 1, 17, 5, 21, 10, 26};
  for (int round = 0; round < 100; ++round)
    for (std::size_t b : blocks)
      ASSERT_EQ(col.get(b * 1024 + 7),
                static_cast<std::int32_t>((b * 1024 + 7) * 5));
  const BlockCache::Stats stats = BlockCache::global().stats();
  EXPECT_EQ(stats.misses, 8u);
  EXPECT_EQ(stats.hits, 8u * 100 - 8);
  std::remove(path.c_str());
}

/// The same builder calls frozen under both backends yield the same
/// structure hash and the same accessor-level views.
TEST(BlockedBackend, MatchesMemBackend) {
  testing::MiniTrace mem = testing::make_mini_trace();
  const std::uint64_t mem_hash = trace_structure_hash(mem.trace);

  StorageOptions opts = default_options();
  opts.kind = BackendKind::Blocked;
  opts.block_bytes = 4096;
  ScopedStorageOptions scope(opts);
  testing::MiniTrace blk = testing::make_mini_trace();

  ASSERT_EQ(blk.trace.storage_backend(), BackendKind::Blocked);
  EXPECT_EQ(trace_structure_hash(blk.trace), mem_hash);
  EXPECT_EQ(blk.trace.num_events(), mem.trace.num_events());
  EXPECT_EQ(blk.trace.end_time(), mem.trace.end_time());
  EXPECT_EQ(blk.trace.total_idle(0), mem.trace.total_idle(0));
  for (EventId e = 0; e < mem.trace.num_events(); ++e) {
    Event em = mem.trace.event(e);
    Event eb = blk.trace.event(e);
    EXPECT_EQ(em.time, eb.time);
    EXPECT_EQ(em.partner, eb.partner);
    EXPECT_EQ(em.block, eb.block);
  }
  auto rm = mem.trace.receivers(mem.s_ab);
  auto rb = blk.trace.receivers(blk.s_ab);
  ASSERT_EQ(rm.size(), rb.size());
  for (std::size_t i = 0; i < rm.size(); ++i) EXPECT_EQ(rm[i], rb[i]);

  // Random shapes through the container round trip: blockless events,
  // fan-out, runtime chares and collectives.
  const auto frozen_under = [&](BackendKind kind, const auto& make) {
    StorageOptions o = opts;
    o.kind = kind;
    ScopedStorageOptions s(o);
    Trace t = make();
    EXPECT_EQ(t.storage_backend(), kind);
    return trace_structure_hash(t);
  };
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const auto charm = [seed] { return order::testing::random_trace(seed); };
    const auto mpi = [seed] {
      return order::testing::random_collective_trace(seed, 2, 6, 2);
    };
    EXPECT_EQ(frozen_under(BackendKind::Blocked, charm),
              frozen_under(BackendKind::Mem, charm))
        << "random_trace seed " << seed;
    EXPECT_EQ(frozen_under(BackendKind::Blocked, mpi),
              frozen_under(BackendKind::Mem, mpi))
        << "random_collective_trace seed " << seed;
  }
}

struct Dep {
  EventId send;
  EventId recv;
  DepKind kind;
  bool operator==(const Dep&) const = default;
};

/// Every traced dependency from first principles: the matched recvs of
/// each send (sends ascending, recvs ascending, the partner a Match and
/// the rest Fanout), then each collective's sends x recvs, sends outer.
std::vector<Dep> brute_dependencies(const Trace& t) {
  std::vector<std::vector<EventId>> recvs_of(
      static_cast<std::size_t>(t.num_events()));
  for (EventId r = 0; r < t.num_events(); ++r) {
    const Event e = t.event(r);
    if (e.kind == EventKind::Recv && e.partner != kNone)
      recvs_of[static_cast<std::size_t>(e.partner)].push_back(r);
  }
  std::vector<Dep> out;
  for (EventId s = 0; s < t.num_events(); ++s)
    for (EventId r : recvs_of[static_cast<std::size_t>(s)])
      out.push_back({s, r,
                     t.event(s).partner == r ? DepKind::Match
                                             : DepKind::Fanout});
  for (const Collective& c : t.collectives())
    for (EventId s : c.sends)
      for (EventId r : c.recvs) out.push_back({s, r, DepKind::Collective});
  return out;
}

/// for_each_dependency yields the brute-force sequence, and the stored
/// columns hold exactly its point-to-point rows with their kinds.
void expect_dependencies_match(const Trace& t) {
  const std::vector<Dep> want = brute_dependencies(t);
  const auto kinds = t.dep_kinds();
  std::vector<Dep> got;
  t.for_each_dependency([&](EventId s, EventId r) {
    const std::size_t row = got.size();
    got.push_back(
        {s, r, row < kinds.size() ? kinds[row] : DepKind::Collective});
  });
  EXPECT_TRUE(got == want);
  EXPECT_EQ(t.num_dependencies(), static_cast<std::int64_t>(want.size()));
  const auto p2p = static_cast<std::size_t>(
      std::count_if(want.begin(), want.end(), [](const Dep& d) {
        return d.kind != DepKind::Collective;
      }));
  EXPECT_EQ(t.dep_sends().size(), p2p);
  EXPECT_EQ(t.dep_recvs().size(), p2p);
  EXPECT_EQ(kinds.size(), p2p);
}

apps::LassenConfig lassen_config(std::int32_t side, std::int32_t iterations) {
  apps::LassenConfig cfg;
  cfg.chares_x = side;
  cfg.chares_y = side;
  cfg.iterations = iterations;
  return cfg;
}

TEST(DependencyTable, CollectivesExpandFromGroupsOnMem) {
  expect_dependencies_match(testing::make_mini_trace().trace);
  // The Charm++ flavor has broadcast fan-out rows, the MPI one collectives.
  const Trace charm = apps::run_lassen_charm(lassen_config(2, 2));
  const auto kinds = charm.dep_kinds();
  ASSERT_GT(std::count(kinds.begin(), kinds.end(), DepKind::Fanout), 0);
  expect_dependencies_match(charm);
  const Trace mpi = apps::run_lassen_mpi(lassen_config(2, 2));
  ASSERT_FALSE(mpi.collectives().empty());
  expect_dependencies_match(mpi);
}

/// 4 KiB blocks split the point-to-point columns across several blocks.
TEST(DependencyTable, CollectivesExpandFromGroupsOnBlocked) {
  StorageOptions opts = default_options();
  opts.kind = BackendKind::Blocked;
  opts.block_bytes = 4096;
  ScopedStorageOptions scope(opts);
  const Trace t = apps::run_lassen_mpi(lassen_config(8, 8));
  ASSERT_EQ(t.storage_backend(), BackendKind::Blocked);
  ASSERT_FALSE(t.collectives().empty());
  ASSERT_GT(t.dep_sends().size(), 4096 / sizeof(EventId));
  expect_dependencies_match(t);
}

/// write_blocked_file + open_blocked_trace round-trips the hash, from a
/// mem-backend source (the trace_convert tool's core path).
TEST(BlockedBackend, FileRoundTrip) {
  testing::MiniTrace m = testing::make_mini_trace();
  const std::string path = temp_path("file");
  write_blocked_file(m.trace, path, 4096);
  Trace back = open_blocked_trace(path);
  EXPECT_EQ(back.storage_backend(), BackendKind::Blocked);
  EXPECT_EQ(trace_structure_hash(back), trace_structure_hash(m.trace));
  EXPECT_EQ(back.num_events(), m.trace.num_events());
  EXPECT_EQ(back.chare(m.a).name, m.trace.chare(m.a).name);
  std::remove(path.c_str());
}

/// Re-run this binary on one test in a fresh process, where no storage
/// call has read the process defaults yet. The child sees the parent's
/// environment minus any LOGSTRUCT_* variable, plus `extra`. Returns the
/// child's exit status (0 = its assertions held).
int run_fresh_child(const std::string& test, std::vector<std::string> extra) {
  std::vector<std::string> args = {"/proc/self/exe",
                                   "--gtest_filter=" + test};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<char*> envp;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::string_view(*e).rfind("LOGSTRUCT_", 0) != 0) envp.push_back(*e);
  for (std::string& e : extra) envp.push_back(e.data());
  envp.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(),
                  envp.data()) != 0)
    return -1;
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Child half of the cache-budget tests: open the file named by
/// LOGSTRUCT_TEST_LSBLK — after set_default_options() when
/// LOGSTRUCT_TEST_SET_MB names a budget — and check the budget in force.
/// Returns false in the parent, which has no such variable.
bool open_as_budget_child() {
  const char* path = std::getenv("LOGSTRUCT_TEST_LSBLK");
  if (path == nullptr) return false;
  if (const char* mb = std::getenv("LOGSTRUCT_TEST_SET_MB")) {
    StorageOptions opts;
    opts.cache_bytes = std::stoull(mb) << 20;
    set_default_options(opts);
  }
  const Trace t = open_blocked_trace(path);
  EXPECT_GT(t.num_events(), 0);
  EXPECT_EQ(BlockCache::global().budget(),
            std::stoull(std::getenv("LOGSTRUCT_TEST_EXPECT_MB")) << 20);
  return true;
}

/// A process that only opens .lsblk files still honours
/// LOGSTRUCT_CACHE_MB.
TEST(BlockedBackend, OpenAppliesEnvironmentCacheBudget) {
  if (open_as_budget_child()) return;
  testing::MiniTrace m = testing::make_mini_trace();
  const std::string path = temp_path("env_budget");
  write_blocked_file(m.trace, path, 4096);
  EXPECT_EQ(run_fresh_child(
                "BlockedBackend.OpenAppliesEnvironmentCacheBudget",
                {"LOGSTRUCT_CACHE_MB=3", "LOGSTRUCT_TEST_LSBLK=" + path,
                 "LOGSTRUCT_TEST_EXPECT_MB=3"}),
            0);
  std::remove(path.c_str());
}

/// An explicit set_default_options() before the open beats the
/// environment.
TEST(BlockedBackend, EarlierSetDefaultOptionsBeatsEnvironmentBudget) {
  if (open_as_budget_child()) return;
  testing::MiniTrace m = testing::make_mini_trace();
  const std::string path = temp_path("set_budget");
  write_blocked_file(m.trace, path, 4096);
  EXPECT_EQ(run_fresh_child(
                "BlockedBackend.EarlierSetDefaultOptionsBeatsEnvironmentBudget",
                {"LOGSTRUCT_CACHE_MB=3", "LOGSTRUCT_TEST_LSBLK=" + path,
                 "LOGSTRUCT_TEST_SET_MB=5", "LOGSTRUCT_TEST_EXPECT_MB=5"}),
            0);
  std::remove(path.c_str());
}

/// Copies of a blocked Trace share the store; the copy stays readable
/// after the original dies.
TEST(BlockedBackend, CopyOutlivesOriginal) {
  StorageOptions opts = default_options();
  opts.kind = BackendKind::Blocked;
  ScopedStorageOptions scope(opts);
  Trace copy;
  std::uint64_t hash = 0;
  {
    testing::MiniTrace m = testing::make_mini_trace();
    hash = trace_structure_hash(m.trace);
    copy = m.trace;
  }
  EXPECT_EQ(trace_structure_hash(copy), hash);
}

/// Concurrent readers over one blocked trace with a tiny cache: every
/// thread hashes the full trace through get()/pin()/iteration paths and
/// must agree. Run under TSan in the blocked-storage CI job.
TEST(BlockedBackend, ConcurrentReaderHammer) {
  // A synthetic chain big enough to span many 4 KiB blocks.
  TraceBuilder tb;
  ChareId c0 = tb.add_chare("c0");
  ChareId c1 = tb.add_chare("c1");
  EntryId en = tb.add_entry("step");
  const int kRounds = 3000;
  EventId prev_send = kNone;
  for (int i = 0; i < kRounds; ++i) {
    ChareId c = (i % 2 == 0) ? c0 : c1;
    ProcId p = (i % 2 == 0) ? 0 : 1;
    BlockId b = tb.begin_block(c, p, en, i * 10);
    if (prev_send != kNone) tb.add_recv(b, i * 10, prev_send);
    prev_send = tb.add_send(b, i * 10 + 5);
    tb.end_block(b, i * 10 + 9);
  }

  StorageOptions opts = default_options();
  opts.kind = BackendKind::Blocked;
  opts.block_bytes = 4096;
  opts.cache_bytes = 8 * 4096;  // tiny: constant eviction under load
  ScopedStorageOptions scope(opts);
  Trace t = tb.finish(/*num_procs=*/2);
  ASSERT_EQ(t.storage_backend(), BackendKind::Blocked);

  const std::uint64_t expected = trace_structure_hash(t);
  std::vector<std::uint64_t> results(4, 0);
  std::vector<std::thread> threads;
  threads.reserve(results.size());
  for (std::size_t ti = 0; ti < results.size(); ++ti) {
    threads.emplace_back([&, ti] {
      std::uint64_t h = 0;
      for (int iter = 0; iter < 3; ++iter) {
        h ^= trace_structure_hash(t);
        // Random-access path on top of the sequential hash walk. Same
        // seed on every thread, so all threads must compute the same h.
        std::mt19937 rng(static_cast<unsigned>(iter));
        for (int k = 0; k < 500; ++k) {
          EventId e = static_cast<EventId>(rng() %
                                           static_cast<unsigned>(
                                               t.num_events()));
          h ^= static_cast<std::uint64_t>(t.event(e).time);
          if (t.event(e).kind == EventKind::Send)
            h ^= static_cast<std::uint64_t>(t.fanout(e).size());
        }
      }
      results[ti] = h;
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t ti = 1; ti < results.size(); ++ti)
    EXPECT_EQ(results[ti], results[0]);
  (void)expected;
}

}  // namespace
}  // namespace logstruct::trace::storage
