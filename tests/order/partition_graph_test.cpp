#include "order/partition_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <thread>

#include "trace/builder.hpp"
#include "trace/storage/options.hpp"
#include "util/rng.hpp"

namespace logstruct::order {
namespace {

/// Four single-event partitions on four chares (one block each).
struct Fixture {
  trace::Trace trace;
  std::vector<trace::EventId> events;
};

/// `n` single-event chares (one block each).
Fixture make_events(int n) {
  Fixture f;
  trace::TraceBuilder tb;
  trace::EntryId e = tb.add_entry("go");
  for (int i = 0; i < n; ++i) {
    trace::ChareId c = tb.add_chare("c" + std::to_string(i));
    trace::BlockId b = tb.begin_block(c, 0, e, i * 10);
    f.events.push_back(tb.add_send(b, i * 10));
    tb.end_block(b, i * 10 + 5);
  }
  f.trace = tb.finish(1);
  return f;
}

Fixture make_four_events() { return make_events(4); }

TEST(PartitionGraph, BuildAndQuery) {
  Fixture f = make_four_events();
  PartitionGraph pg(f.trace);
  for (int i = 0; i < 4; ++i)
    pg.add_partition({f.events[static_cast<std::size_t>(i)]}, i % 2 == 0);
  pg.add_edge(0, 1);
  pg.add_edge(1, 2);
  pg.finalize();

  EXPECT_EQ(pg.num_partitions(), 4);
  EXPECT_TRUE(pg.runtime(0));
  EXPECT_FALSE(pg.runtime(1));
  EXPECT_EQ(pg.part_of(f.events[2]), 2);
  EXPECT_TRUE(pg.dag().has_edge(0, 1));
  ASSERT_EQ(pg.chares(0).size(), 1u);
}

TEST(PartitionGraph, ApplyMergesRelabelsEverything) {
  Fixture f = make_four_events();
  PartitionGraph pg(f.trace);
  for (int i = 0; i < 4; ++i)
    pg.add_partition({f.events[static_cast<std::size_t>(i)]}, false);
  pg.add_edge(0, 1);
  pg.add_edge(2, 3);
  pg.finalize();

  std::vector<std::pair<PartId, PartId>> pairs{{0, 2}};
  EXPECT_TRUE(pg.apply_merges(pairs));
  EXPECT_EQ(pg.num_partitions(), 3);
  EXPECT_EQ(pg.part_of(f.events[0]), pg.part_of(f.events[2]));
  // Merged partition keeps both chares and both edges.
  PartId merged = pg.part_of(f.events[0]);
  EXPECT_EQ(pg.chares(merged).size(), 2u);
  EXPECT_EQ(pg.events(merged).size(), 2u);
  EXPECT_EQ(pg.dag().successors(merged).size(), 2u);
}

TEST(PartitionGraph, MergedEventsStayTimeSorted) {
  Fixture f = make_four_events();
  PartitionGraph pg(f.trace);
  for (int i = 0; i < 4; ++i)
    pg.add_partition({f.events[static_cast<std::size_t>(i)]}, false);
  pg.finalize();
  std::vector<std::pair<PartId, PartId>> pairs{{3, 0}, {0, 2}};
  pg.apply_merges(pairs);
  PartId merged = pg.part_of(f.events[0]);
  auto events = pg.events(merged);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(f.trace.event(events[i - 1]).time,
              f.trace.event(events[i]).time);
  }
}

TEST(PartitionGraph, CycleMergeCollapsesScc) {
  Fixture f = make_four_events();
  PartitionGraph pg(f.trace);
  for (int i = 0; i < 4; ++i)
    pg.add_partition({f.events[static_cast<std::size_t>(i)]}, false);
  pg.add_edge(0, 1);
  pg.add_edge(1, 2);
  pg.add_edge(2, 0);  // cycle 0-1-2
  pg.add_edge(2, 3);
  pg.finalize();

  EXPECT_TRUE(pg.cycle_merge());
  EXPECT_EQ(pg.num_partitions(), 2);
  EXPECT_EQ(pg.part_of(f.events[0]), pg.part_of(f.events[1]));
  EXPECT_EQ(pg.part_of(f.events[1]), pg.part_of(f.events[2]));
  EXPECT_NE(pg.part_of(f.events[0]), pg.part_of(f.events[3]));
  // Edge to 3 survives, graph is a DAG.
  PartId merged = pg.part_of(f.events[0]);
  EXPECT_TRUE(pg.dag().has_edge(merged, pg.part_of(f.events[3])));
}

TEST(PartitionGraph, CycleMergeNoOpOnDag) {
  Fixture f = make_four_events();
  PartitionGraph pg(f.trace);
  for (int i = 0; i < 4; ++i)
    pg.add_partition({f.events[static_cast<std::size_t>(i)]}, false);
  pg.add_edge(0, 1);
  pg.finalize();
  EXPECT_FALSE(pg.cycle_merge());
  EXPECT_EQ(pg.num_partitions(), 4);
}

TEST(PartitionGraph, RuntimeFlagPropagatesThroughMerge) {
  Fixture f = make_four_events();
  PartitionGraph pg(f.trace);
  pg.add_partition({f.events[0]}, false);
  pg.add_partition({f.events[1]}, true);
  pg.add_partition({f.events[2]}, false);
  pg.add_partition({f.events[3]}, false);
  pg.add_edge(0, 1);
  pg.add_edge(1, 0);  // app-runtime cycle
  pg.finalize();
  pg.cycle_merge();
  EXPECT_TRUE(pg.runtime(pg.part_of(f.events[0])));
  EXPECT_FALSE(pg.runtime(pg.part_of(f.events[2])));
}

TEST(PartitionGraph, FirstEventOfChare) {
  Fixture f = make_four_events();
  PartitionGraph pg(f.trace);
  for (int i = 0; i < 4; ++i)
    pg.add_partition({f.events[static_cast<std::size_t>(i)]}, false);
  pg.finalize();
  std::vector<std::pair<PartId, PartId>> pairs{{0, 1}};
  pg.apply_merges(pairs);
  PartId merged = pg.part_of(f.events[0]);
  EXPECT_EQ(pg.first_event_of_chare(merged, f.trace.event(f.events[1]).chare),
            f.events[1]);
  EXPECT_EQ(pg.first_event_of_chare(merged, f.trace.event(f.events[3]).chare),
            trace::kNone);
}

TEST(PartitionGraph, MergesAppliedCounter) {
  Fixture f = make_four_events();
  PartitionGraph pg(f.trace);
  for (int i = 0; i < 4; ++i)
    pg.add_partition({f.events[static_cast<std::size_t>(i)]}, false);
  pg.finalize();
  EXPECT_EQ(pg.merges_applied(), 0);
  std::vector<std::pair<PartId, PartId>> pairs{{0, 1}, {2, 3}};
  pg.apply_merges(pairs);
  EXPECT_EQ(pg.merges_applied(), 2);
}

/// Regression for the lazy-DAG hazard: dag() used to materialize into a
/// mutable member with no synchronization, so the FIRST dag() call racing
/// against other readers corrupted the adjacency build. Hammer a freshly
/// dirtied graph from many threads; under TSan this also proves the
/// double-checked guard publishes the finished DAG correctly.
TEST(PartitionGraph, ConcurrentDagReadersAfterDirty) {
  Fixture f = make_four_events();
  for (int round = 0; round < 50; ++round) {
    PartitionGraph pg(f.trace);
    for (int i = 0; i < 4; ++i)
      pg.add_partition({f.events[static_cast<std::size_t>(i)]}, false);
    pg.add_edge(0, 1);
    pg.add_edge(1, 2);
    pg.add_edge(2, 3);
    pg.finalize();  // leaves the DAG dirty — readers race to build it

    constexpr int kReaders = 8;
    std::atomic<int> ok{0};
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&pg, &ok] {
        const graph::Digraph& dag = pg.dag();
        if (dag.num_nodes() == 4 && dag.has_edge(0, 1) &&
            dag.has_edge(1, 2) && dag.has_edge(2, 3))
          ok.fetch_add(1, std::memory_order_relaxed);
      });
    }
    for (std::thread& th : readers) th.join();
    ASSERT_EQ(ok.load(), kReaders) << "round " << round;
  }
}

/// Random members for one side of an edge group: repeats allowed,
/// unsorted.
std::vector<PartId> random_members(util::Rng& rng, std::int32_t n) {
  std::vector<PartId> out(1 + rng.uniform(6));
  for (PartId& p : out) p = static_cast<PartId>(rng.uniform(
      static_cast<std::uint64_t>(n)));
  return out;
}

/// Both graphs agree on everything the passes can observe.
void expect_same(const PartitionGraph& a, const PartitionGraph& b,
                 const trace::Trace& t) {
  ASSERT_EQ(a.num_partitions(), b.num_partitions());
  EXPECT_EQ(a.epoch(), b.epoch());
  EXPECT_EQ(a.merges_applied(), b.merges_applied());
  for (trace::EventId e = 0; e < t.num_events(); ++e)
    ASSERT_EQ(a.part_of(e), b.part_of(e)) << "event " << e;
  for (PartId p = 0; p < a.num_partitions(); ++p)
    EXPECT_EQ(a.runtime(p), b.runtime(p));
  EXPECT_EQ(a.dag().edges(), b.dag().edges());
}

/// Edge groups are exactly their expansion: a graph built with groups
/// and its twin built with every group as explicit add_edge calls give
/// the same DAG, the same merge and cycle-merge labels and the same
/// epoch, through rounds of random merges. Groups cover disjoint and
/// overlapping sender/receiver sides, self pairs and repeated members.
TEST(PartitionGraph, GroupsMatchExpandedEdges) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    const auto n = static_cast<std::int32_t>(3 + rng.uniform(30));
    Fixture f = make_events(n);
    PartitionGraph grouped(f.trace);
    PartitionGraph expanded(f.trace);
    for (std::int32_t i = 0; i < n; ++i) {
      const bool runtime = rng.uniform(4) == 0;
      grouped.add_partition({f.events[static_cast<std::size_t>(i)]}, runtime);
      expanded.add_partition({f.events[static_cast<std::size_t>(i)]},
                             runtime);
    }
    for (std::uint64_t k = rng.uniform(2 * static_cast<std::uint64_t>(n));
         k > 0; --k) {
      const auto u = static_cast<PartId>(rng.uniform(
          static_cast<std::uint64_t>(n)));
      const auto v = static_cast<PartId>(rng.uniform(
          static_cast<std::uint64_t>(n)));
      grouped.add_edge(u, v);
      expanded.add_edge(u, v);
    }
    for (std::uint64_t k = 1 + rng.uniform(4); k > 0; --k) {
      std::vector<PartId> from = random_members(rng, n);
      std::vector<PartId> to = random_members(rng, n);
      switch (rng.uniform(3)) {
        case 0: to = from; break;                           // all self pairs
        case 1: to.push_back(from.front()); break;          // overlap
        default: break;                                     // independent
      }
      for (PartId u : from)
        for (PartId v : to) expanded.add_edge(u, v);
      grouped.add_group(std::move(from), std::move(to));
    }
    grouped.finalize();
    expanded.finalize();
    // cycle_merge() keeps the groups implicit when the DAG is dirty and
    // expands them when a dag() query already materialized it; odd
    // seeds take the first path, even seeds the second.
    if (seed % 2 == 0) expect_same(grouped, expanded, f.trace);
    EXPECT_EQ(grouped.cycle_merge(), expanded.cycle_merge());
    expect_same(grouped, expanded, f.trace);

    for (int round = 0; round < 4 && grouped.num_partitions() > 1; ++round) {
      const std::int32_t parts = grouped.num_partitions();
      std::vector<std::pair<PartId, PartId>> pairs;
      for (std::uint64_t k = rng.uniform(3); k > 0; --k)
        pairs.emplace_back(static_cast<PartId>(rng.uniform(
                               static_cast<std::uint64_t>(parts))),
                           static_cast<PartId>(rng.uniform(
                               static_cast<std::uint64_t>(parts))));
      EXPECT_EQ(grouped.apply_merges(pairs), expanded.apply_merges(pairs));
      if (seed % 2 == 0) expect_same(grouped, expanded, f.trace);
      EXPECT_EQ(grouped.cycle_merge(), expanded.cycle_merge());
      expect_same(grouped, expanded, f.trace);
    }
  }
}

/// A group whose members all collapse into one partition has no edges
/// left and is dropped; its storage counts toward memory_bytes() until
/// then.
TEST(PartitionGraph, CollapsedGroupsAreDropped) {
  Fixture f = make_four_events();
  PartitionGraph pg(f.trace);
  PartitionGraph plain(f.trace);
  for (int i = 0; i < 4; ++i) {
    pg.add_partition({f.events[static_cast<std::size_t>(i)]}, false);
    plain.add_partition({f.events[static_cast<std::size_t>(i)]}, false);
  }
  pg.add_group({0, 1}, {2, 3});
  pg.add_group({2}, {2});  // only a self pair: never stored
  pg.finalize();
  plain.finalize();
  EXPECT_EQ(pg.num_groups(), 1);
  EXPECT_GT(pg.memory_bytes(), plain.memory_bytes());
  EXPECT_EQ(pg.dag().num_edges(), 4u);

  std::vector<std::pair<PartId, PartId>> pairs{{0, 1}};
  pg.apply_merges(pairs);
  EXPECT_EQ(pg.num_groups(), 1);  // {01} -> {2, 3} still has edges
  pairs = {{0, 1}, {1, 2}};
  pg.apply_merges(pairs);
  EXPECT_EQ(pg.num_partitions(), 1);
  EXPECT_EQ(pg.num_groups(), 0);
  EXPECT_EQ(pg.dag().num_edges(), 0u);
}

/// Random partitions of a tie-heavy trace, random labels with one group
/// of over a thousand members, merged both by apply_merges (pair
/// batches) and by cycle_merge (a ring per group): every merged event
/// list must equal the brute-force (time, id) sort of its members'
/// events, and every chare list the sorted unique union — on mem and on
/// blocked storage with 4 KiB blocks.
TEST(PartitionGraph, LargeMergeMatchesSortedUnion) {
  using trace::storage::BackendKind;
  for (BackendKind kind : {BackendKind::Mem, BackendKind::Blocked}) {
    trace::storage::StorageOptions opts;
    opts.kind = kind;
    opts.block_bytes = 4096;
    opts.cache_bytes = 16 * 4096;
    trace::storage::ScopedStorageOptions scope(opts);

    // 24 chares × 60 blocks × 1–4 sends, with coarse times so events on
    // different chares tie often and the id tie-break matters.
    std::mt19937 rng(17);
    trace::TraceBuilder tb;
    trace::EntryId entry = tb.add_entry("go");
    for (int c = 0; c < 24; ++c) {
      trace::ChareId ch = tb.add_chare("c" + std::to_string(c));
      for (int k = 0; k < 60; ++k) {
        const trace::TimeNs t0 = k * 20 + static_cast<trace::TimeNs>(rng() % 3);
        trace::BlockId b = tb.begin_block(ch, c % 4, entry, t0);
        const int sends = 1 + static_cast<int>(rng() % 4);
        trace::TimeNs t = t0;
        for (int i = 0; i < sends; ++i) {
          t += static_cast<trace::TimeNs>(rng() % 2);
          tb.add_send(b, t);
        }
        tb.end_block(b, t0 + 10);
      }
    }
    const trace::Trace tr = tb.finish(4);
    ASSERT_EQ(tr.storage_backend(), kind);

    // Random partitions of 1–3 events each, time-sorted as required.
    std::vector<trace::EventId> all(static_cast<std::size_t>(tr.num_events()));
    for (std::size_t i = 0; i < all.size(); ++i)
      all[i] = static_cast<trace::EventId>(i);
    std::shuffle(all.begin(), all.end(), rng);
    auto by_time = [&tr](trace::EventId a, trace::EventId b) {
      return std::pair(tr.event_time(a), a) < std::pair(tr.event_time(b), b);
    };
    std::vector<std::vector<trace::EventId>> parts;
    for (std::size_t i = 0; i < all.size();) {
      const std::size_t len =
          std::min<std::size_t>(1 + rng() % 3, all.size() - i);
      std::vector<trace::EventId> p(all.begin() + static_cast<long>(i),
                                    all.begin() + static_cast<long>(i + len));
      std::sort(p.begin(), p.end(), by_time);
      parts.push_back(std::move(p));
      i += len;
    }
    const auto np = static_cast<std::int32_t>(parts.size());
    ASSERT_GT(np, 1500);
    // Group 0 takes the first 1,100 partitions; the rest land in one of
    // 40 groups at random (some stay single-member).
    std::vector<std::int32_t> group(static_cast<std::size_t>(np));
    for (std::int32_t p = 0; p < np; ++p)
      group[static_cast<std::size_t>(p)] =
          p < 1100 ? 0 : 1 + static_cast<std::int32_t>(rng() % 400);
    std::shuffle(group.begin(), group.end(), rng);

    // Expected lists per group, by brute force.
    std::map<std::int32_t, std::vector<trace::EventId>> want_events;
    std::map<std::int32_t, std::vector<trace::ChareId>> want_chares;
    for (std::int32_t p = 0; p < np; ++p) {
      const std::int32_t g = group[static_cast<std::size_t>(p)];
      for (trace::EventId e : parts[static_cast<std::size_t>(p)]) {
        want_events[g].push_back(e);
        want_chares[g].push_back(tr.event(e).chare);
      }
    }
    for (auto& [g, evs] : want_events) std::sort(evs.begin(), evs.end(), by_time);
    for (auto& [g, cs] : want_chares) {
      std::sort(cs.begin(), cs.end());
      cs.erase(std::unique(cs.begin(), cs.end()), cs.end());
    }

    for (bool by_cycles : {false, true}) {
      SCOPED_TRACE(std::string(kind == BackendKind::Mem ? "mem" : "blocked") +
                   (by_cycles ? " cycle_merge" : " apply_merges"));
      PartitionGraph pg(tr);
      for (const auto& p : parts) pg.add_partition(p, false);
      // A ring through each group's members, in partition order.
      std::map<std::int32_t, std::vector<PartId>> members;
      for (PartId p = 0; p < np; ++p)
        members[group[static_cast<std::size_t>(p)]].push_back(p);
      std::vector<std::pair<PartId, PartId>> pairs;
      for (const auto& [g, ms] : members) {
        for (std::size_t i = 0; i + 1 < ms.size(); ++i) {
          if (by_cycles) pg.add_edge(ms[i], ms[i + 1]);
          else pairs.emplace_back(ms[i + 1], ms[0]);
        }
        if (by_cycles && ms.size() > 1) pg.add_edge(ms.back(), ms[0]);
      }
      pg.finalize();
      ASSERT_TRUE(by_cycles ? pg.cycle_merge() : pg.apply_merges(pairs));
      ASSERT_EQ(pg.num_partitions(),
                static_cast<std::int32_t>(members.size()));
      for (const auto& [g, ms] : members) {
        const PartId q = pg.part_of(want_events[g].front());
        const auto evs = pg.events(q);
        const auto cs = pg.chares(q);
        ASSERT_TRUE(std::equal(evs.begin(), evs.end(), want_events[g].begin(),
                               want_events[g].end()))
            << "group " << g;
        ASSERT_TRUE(std::equal(cs.begin(), cs.end(), want_chares[g].begin(),
                               want_chares[g].end()))
            << "group " << g;
      }
    }
  }
}

}  // namespace
}  // namespace logstruct::order
