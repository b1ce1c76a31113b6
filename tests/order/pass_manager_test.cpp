/// PassManager + OrderContext unit tests: registration order, disabled
/// passes, record bookkeeping, per-pass block-cache billing, per-pass
/// invariant checking against real app traces (including the ablation
/// option sets), and the context's epoch-keyed caches.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/jacobi2d.hpp"
#include "apps/lulesh.hpp"
#include "obs/memstats.hpp"
#include "order/context.hpp"
#include "order/pass_manager.hpp"
#include "order/phases.hpp"
#include "order/stepping.hpp"
#include "trace/storage/block_cache.hpp"
#include "trace/storage/options.hpp"

namespace logstruct::order {
namespace {

trace::Trace small_jacobi() {
  apps::Jacobi2DConfig cfg;
  cfg.chares_x = 3;
  cfg.chares_y = 3;
  cfg.num_pes = 3;
  cfg.iterations = 2;
  return apps::run_jacobi2d(cfg);
}

TEST(PassManager, RunsInRegistrationOrderAndRecords) {
  trace::Trace t = small_jacobi();
  OrderContext ctx(t, Options::charm());

  std::vector<std::string> ran;
  PassManager pm;
  pm.add({.name = "a", .run = [&](OrderContext&) { ran.push_back("a"); }});
  pm.add({.name = "skipped",
          .run = [&](OrderContext&) { ran.push_back("skipped"); },
          .enabled = false});
  pm.add({.name = "b", .run = [&](OrderContext&) { ran.push_back("b"); }});
  pm.run(ctx);

  EXPECT_EQ(ran, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(pm.records().size(), 3u);
  EXPECT_EQ(pm.records()[0].name, "a");
  EXPECT_TRUE(pm.records()[0].ran);
  EXPECT_EQ(pm.records()[1].name, "skipped");
  EXPECT_FALSE(pm.records()[1].ran);
  EXPECT_EQ(pm.records()[2].name, "b");
  for (const PassRecord& r : pm.records()) EXPECT_GE(r.seconds, 0.0);
}

TEST(PassManager, RecordsPartitionCountOncePgExists) {
  trace::Trace t = small_jacobi();
  Options opts = Options::charm();
  OrderContext ctx(t, opts);
  run_partition_pipeline(ctx, nullptr, nullptr);
  ASSERT_TRUE(ctx.has_pg());
  EXPECT_GT(ctx.phases.num_phases(), 0);
}

TEST(PassManager, PartitionRecordsCoverEveryRegisteredPass) {
  trace::Trace t = small_jacobi();
  std::vector<PassRecord> records;
  PhaseResult phases = find_phases(t, Options::charm().partition, nullptr,
                                   &records);
  EXPECT_GT(phases.num_phases(), 0);
  const std::vector<std::string> expected = {
      "initial",          "dependency_merge",      "repair",
      "neighbor_serial",  "infer_source_order",    "enforce_leap_property",
      "enforce_chare_paths", "finalize"};
  ASSERT_EQ(records.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(records[i].name, expected[i]);
    EXPECT_TRUE(records[i].ran) << expected[i];
    EXPECT_GE(records[i].alloc_bytes, 0) << expected[i];
  }
  // With the counting operator new linked, the initial partition pass
  // builds the whole PartitionGraph and must show real allocation.
  if (obs::alloc_hook_active()) {
    EXPECT_GT(records[0].alloc_bytes, 0);
  }
}

TEST(PassManager, DisabledPassesStillRecordedUnderAblations) {
  trace::Trace t = small_jacobi();
  std::vector<PassRecord> records;
  (void)find_phases(t, Options::mpi_baseline13().partition, nullptr,
                    &records);
  bool saw_disabled = false;
  for (const PassRecord& r : records)
    if (!r.ran) saw_disabled = true;
  EXPECT_TRUE(saw_disabled)
      << "mpi_baseline13 must express ablations as disabled passes";
}

/// The debug invariant checker (DAG-ness, event coverage, leap property,
/// chare paths after each pass) must pass on real traces — including the
/// ablation option sets — and not change the result.
TEST(PassManager, InvariantCheckedRunMatchesPlainRun) {
  struct Case {
    const char* name;
    Options opts;
  };
  const Case cases[] = {
      {"charm", Options::charm()},
      {"charm_no_inference", Options::charm_no_inference()},
      {"mpi_baseline13", Options::mpi_baseline13()},
  };
  trace::Trace t = small_jacobi();
  for (const Case& c : cases) {
    LogicalStructure plain = extract_structure(t, c.opts);
    Options checked = c.opts;
    checked.partition.check_passes = true;
    LogicalStructure verified = extract_structure(t, checked);
    EXPECT_EQ(plain.num_phases(), verified.num_phases()) << c.name;
    EXPECT_EQ(plain.global_step, verified.global_step) << c.name;
  }
}

TEST(PassManager, InvariantCheckedRunOnLulesh) {
  apps::LuleshConfig cfg;
  cfg.iterations = 2;
  trace::Trace t = apps::run_lulesh_charm(cfg);
  Options opts = Options::charm();
  opts.partition.check_passes = true;
  LogicalStructure ls = extract_structure(t, opts);
  EXPECT_GT(ls.num_phases(), 0);
}

/// Every pass is billed the block-cache lookups made while it ran. On a
/// blocked LULESH with 4 KiB blocks under a 32 KiB budget the per-pass
/// misses add up to the whole pipeline's miss delta and some pass
/// misses; on mem no pass looks up a block at all.
TEST(PassManager, RecordsBlockCacheLookupsPerPass) {
  using trace::storage::BackendKind;
  using trace::storage::BlockCache;
  for (BackendKind kind : {BackendKind::Mem, BackendKind::Blocked}) {
    trace::storage::StorageOptions sopts;
    sopts.kind = kind;
    sopts.block_bytes = 4096;
    sopts.cache_bytes = 8 * 4096;
    trace::storage::ScopedStorageOptions scope(sopts);
    apps::LuleshConfig cfg;
    cfg.iterations = 2;
    trace::Trace t = apps::run_lulesh_charm(cfg);
    ASSERT_EQ(t.storage_backend(), kind);

    OrderContext ctx(t, Options::charm());
    std::vector<PassRecord> records;
    const BlockCache::Stats before = BlockCache::global().stats();
    run_partition_pipeline(ctx, nullptr, &records);
    run_stepping_pipeline(ctx, &records);
    const BlockCache::Stats after = BlockCache::global().stats();

    std::int64_t misses = 0;
    std::int64_t hits = 0;
    bool some_pass_missed = false;
    for (const PassRecord& r : records) {
      EXPECT_GE(r.cache_misses, 0) << r.name;
      EXPECT_GE(r.cache_hits, 0) << r.name;
      misses += r.cache_misses;
      hits += r.cache_hits;
      some_pass_missed = some_pass_missed || r.cache_misses > 0;
      if (kind == BackendKind::Mem) {
        EXPECT_EQ(r.cache_misses, 0) << r.name;
        EXPECT_EQ(r.cache_hits, 0) << r.name;
      }
    }
    const auto delta_misses =
        static_cast<std::int64_t>(after.misses - before.misses);
    const auto delta_hits = static_cast<std::int64_t>(after.hits - before.hits);
    if (PassManager::invariant_check_forced()) {
      // The invariant checks run between passes and are billed to none.
      EXPECT_LE(misses, delta_misses);
      EXPECT_LE(hits, delta_hits);
    } else {
      EXPECT_EQ(misses, delta_misses);
      EXPECT_EQ(hits, delta_hits);
    }
    if (kind == BackendKind::Blocked) {
      EXPECT_TRUE(some_pass_missed);
    }
  }
}

TEST(OrderContext, LeapCacheInvalidatesOnEpoch) {
  trace::Trace t = small_jacobi();
  OrderContext ctx(t, Options::charm());
  run_partition_pipeline(ctx, nullptr, nullptr);

  const auto& first = ctx.leaps();
  ASSERT_EQ(first.size(),
            static_cast<std::size_t>(ctx.pg().num_partitions()));
  // Same epoch: the cached vector is returned (same object, same values).
  EXPECT_EQ(&ctx.leaps(), &first);

  std::uint64_t epoch = ctx.pg().epoch();
  // A structural mutation moves the epoch; the cache must recompute and
  // still agree with a fresh leap computation.
  if (ctx.pg().num_partitions() >= 2) {
    std::vector<std::pair<PartId, PartId>> extra = {{0, 1}};
    ctx.pg().add_edges_bulk(extra);
    EXPECT_GT(ctx.pg().epoch(), epoch);
    const auto& after = ctx.leaps();
    EXPECT_EQ(after.size(),
              static_cast<std::size_t>(ctx.pg().num_partitions()));
  }
}

TEST(OrderContext, UnitsComputedOncePerFlavor) {
  trace::Trace t = small_jacobi();
  OrderContext ctx(t, Options::charm());
  const BlockUnits& raw = ctx.units(false);
  const BlockUnits& absorbed = ctx.units(true);
  EXPECT_EQ(&ctx.units(false), &raw);
  EXPECT_EQ(&ctx.units(true), &absorbed);
  EXPECT_EQ(raw.unit_of_event.size(),
            static_cast<std::size_t>(t.num_events()));
}

TEST(OrderContext, ScratchBuffersComeBackCleared) {
  trace::Trace t = small_jacobi();
  OrderContext ctx(t, Options::charm());
  auto& pairs = ctx.scratch_pairs();
  pairs.push_back({0, 1});
  EXPECT_TRUE(ctx.scratch_pairs().empty());
  auto& edges = ctx.scratch_edges();
  edges.push_back({2, 3});
  EXPECT_TRUE(ctx.scratch_edges().empty());
  // Distinct buffers: holding both at once is allowed.
  EXPECT_NE(&ctx.scratch_pairs(), &ctx.scratch_edges());
}

}  // namespace
}  // namespace logstruct::order
