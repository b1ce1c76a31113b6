#pragma once

/// \file scc.hpp
/// Strongly connected components (iterative Tarjan).
///
/// The paper's "cycle merge" collapses every SCC of the partition graph into
/// one partition so that each pipeline pass starts and ends with a DAG.

#include <span>
#include <vector>

#include "graph/digraph.hpp"

namespace logstruct::graph {

struct SccResult {
  /// Component id per node; components are numbered in reverse topological
  /// order of the condensation (i.e., component of an edge's head is <= the
  /// tail's... specifically Tarjan emits sinks first).
  std::vector<std::int32_t> component;
  std::int32_t num_components = 0;
};

/// Compute SCCs. Safe for large graphs (explicit stack, no recursion).
SccResult strongly_connected_components(const Digraph& g);

/// An implicit complete bipartite edge set: every node of `from` has an
/// edge to every node of `to` (both sorted and duplicate-free; self pairs
/// skipped) — what Digraph::add_biclique() would add.
struct Biclique {
  std::span<const NodeId> from;
  std::span<const NodeId> to;
};

/// SCCs of `g` plus the bicliques' edges, without materializing them.
/// The numbering equals strongly_connected_components() over `g` with
/// every biclique added by add_biclique(): Tarjan's numbering depends
/// only on the DFS visit order (smallest unvisited successor first) and
/// the SCCs themselves, so visited biclique members are skipped through a
/// per-biclique "next unvisited" list, and their lowlink contribution is
/// the smallest index of a member still on the stack.
SccResult strongly_connected_components(const Digraph& g,
                                        std::span<const Biclique> bicliques);

/// True iff the graph has no directed cycle (every SCC is a single node).
bool is_dag(const Digraph& g);

}  // namespace logstruct::graph
