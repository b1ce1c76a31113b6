#include "graph/scc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace logstruct::graph {
namespace {

Digraph make(std::int32_t n,
             std::initializer_list<std::pair<NodeId, NodeId>> edges) {
  Digraph g(n);
  for (auto [u, v] : edges) g.add_edge(u, v);
  g.finalize();
  return g;
}

TEST(Scc, SingletonNodes) {
  Digraph g = make(3, {{0, 1}, {1, 2}});
  SccResult r = strongly_connected_components(g);
  EXPECT_EQ(r.num_components, 3);
  EXPECT_TRUE(is_dag(g));
}

TEST(Scc, SimpleCycle) {
  Digraph g = make(3, {{0, 1}, {1, 2}, {2, 0}});
  SccResult r = strongly_connected_components(g);
  EXPECT_EQ(r.num_components, 1);
  EXPECT_EQ(r.component[0], r.component[1]);
  EXPECT_EQ(r.component[1], r.component[2]);
  EXPECT_FALSE(is_dag(g));
}

TEST(Scc, TwoCyclesConnected) {
  // 0<->1 -> 2<->3
  Digraph g = make(4, {{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 2}});
  SccResult r = strongly_connected_components(g);
  EXPECT_EQ(r.num_components, 2);
  EXPECT_EQ(r.component[0], r.component[1]);
  EXPECT_EQ(r.component[2], r.component[3]);
  EXPECT_NE(r.component[0], r.component[2]);
}

TEST(Scc, TarjanEmitsSinksFirst) {
  // Condensation 0 -> 1; Tarjan numbers the sink component first.
  Digraph g = make(2, {{0, 1}});
  SccResult r = strongly_connected_components(g);
  EXPECT_LT(r.component[1], r.component[0]);
}

TEST(Scc, DisconnectedGraph) {
  Digraph g = make(4, {{0, 1}});
  SccResult r = strongly_connected_components(g);
  EXPECT_EQ(r.num_components, 4);
}

TEST(Scc, SelfLoopIgnoredByDigraph) {
  Digraph g(1);
  g.add_edge(0, 0);
  g.finalize();
  EXPECT_TRUE(is_dag(g));  // digraph drops self-loops
}

TEST(Scc, LongChainNoRecursionOverflow) {
  constexpr NodeId n = 200000;
  Digraph g(n);
  for (NodeId i = 1; i < n; ++i) g.add_edge(i - 1, i);
  g.finalize();
  SccResult r = strongly_connected_components(g);
  EXPECT_EQ(r.num_components, n);
}

TEST(Scc, LongCycleNoRecursionOverflow) {
  constexpr NodeId n = 200000;
  Digraph g(n);
  for (NodeId i = 1; i < n; ++i) g.add_edge(i - 1, i);
  g.add_edge(n - 1, 0);
  g.finalize();
  SccResult r = strongly_connected_components(g);
  EXPECT_EQ(r.num_components, 1);
}

TEST(Scc, ComponentIdsAreDense) {
  Digraph g = make(5, {{0, 1}, {1, 0}, {2, 3}, {3, 4}, {4, 2}});
  SccResult r = strongly_connected_components(g);
  std::set<std::int32_t> ids(r.component.begin(), r.component.end());
  EXPECT_EQ(static_cast<std::int32_t>(ids.size()), r.num_components);
  EXPECT_EQ(*ids.begin(), 0);
  EXPECT_EQ(*ids.rbegin(), r.num_components - 1);
}

/// Sorted, duplicate-free random node list of 1..max_size nodes.
std::vector<NodeId> random_nodes(util::Rng& rng, NodeId n,
                                 std::uint64_t max_size) {
  std::vector<NodeId> out(1 + rng.uniform(max_size));
  for (NodeId& v : out)
    v = static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(n)));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Implicit bicliques number components exactly like the same graph with
/// every biclique expanded by add_biclique(): same ids, same order. The
/// random graphs mix sparse plain edges with bicliques that overlap,
/// share sides, or contain self pairs.
TEST(Scc, ImplicitBicliquesMatchExpandedGraph) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    const auto n = static_cast<NodeId>(1 + rng.uniform(40));
    Digraph plain(n);
    for (std::uint64_t k = rng.uniform(2 * static_cast<std::uint64_t>(n));
         k > 0; --k)
      plain.add_edge(
          static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(n))),
          static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(n))));
    plain.finalize();
    std::vector<std::vector<NodeId>> sides;
    for (std::uint64_t k = rng.uniform(5); k > 0; --k) {
      sides.push_back(random_nodes(rng, n, 8));
      sides.push_back(rng.uniform(3) == 0 ? sides.back()
                                          : random_nodes(rng, n, 8));
    }
    std::vector<Biclique> bicliques;
    Digraph expanded = plain;
    for (std::size_t i = 0; i < sides.size(); i += 2) {
      bicliques.push_back({sides[i], sides[i + 1]});
      expanded.add_biclique(sides[i], sides[i + 1]);
    }
    expanded.finalize();

    const SccResult want = strongly_connected_components(expanded);
    const SccResult got = strongly_connected_components(plain, bicliques);
    EXPECT_EQ(got.num_components, want.num_components);
    EXPECT_EQ(got.component, want.component);
  }
}

}  // namespace
}  // namespace logstruct::graph
