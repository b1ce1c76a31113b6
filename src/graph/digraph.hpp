#pragma once

/// \file digraph.hpp
/// Compact directed graph used for the partition graph and phase DAG.
///
/// Nodes are dense integer ids [0, n). Edges are kept as per-node sorted,
/// deduplicated successor/predecessor vectors; the partition pipeline
/// rebuilds graphs wholesale after each merge pass, so the representation
/// optimizes for bulk construction + traversal rather than incremental
/// deletion.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace logstruct::graph {

using NodeId = std::int32_t;

class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(NodeId num_nodes) { reset(num_nodes); }

  void reset(NodeId num_nodes);

  /// Add edge u->v. Self-loops are ignored. Duplicates are removed by
  /// finalize(); callers may add freely.
  void add_edge(NodeId u, NodeId v);

  /// Add every edge u->v with u in `from`, v in `to` (both sorted and
  /// duplicate-free), self-loops skipped: the same adjacency as the
  /// |from| x |to| add_edge calls, appended in bulk.
  void add_biclique(std::span<const NodeId> from, std::span<const NodeId> to);

  /// Sort and deduplicate adjacency; must be called after the last add_edge
  /// and before queries that rely on sorted adjacency.
  void finalize();

  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(succ_.size());
  }
  [[nodiscard]] std::size_t num_edges() const;

  [[nodiscard]] std::span<const NodeId> successors(NodeId u) const {
    return succ_[static_cast<std::size_t>(u)];
  }
  [[nodiscard]] std::span<const NodeId> predecessors(NodeId u) const {
    return pred_[static_cast<std::size_t>(u)];
  }

  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// All edges as (u, v) pairs; mainly for tests and rebuilds.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> edges() const;

 private:
  std::vector<std::vector<NodeId>> succ_;
  std::vector<std::vector<NodeId>> pred_;
};

}  // namespace logstruct::graph
