#pragma once

/// \file partition_graph.hpp
/// The partition graph G_P(V, E) the phase-finding stage operates on.
///
/// Vertices are partitions (sets of dependency events); directed edges are
/// happened-before relations. All of the paper's merge passes reduce to:
/// schedule a batch of pair merges, apply them (batched union-find, applied
/// in place), and collapse any strongly connected components ("cycle
/// merge") so the graph is a DAG again.
///
/// Merges are incremental: only the event/chare lists of partitions that
/// actually merged are touched (each merged partition's concatenated
/// members are sorted once by (time, id); the rest are moved), the
/// edge list is kept as a flat vector that is remapped in place, and the
/// adjacency structure (dag()) is rebuilt lazily — deferred edge
/// compaction — only when a query needs it after a mutation dirtied it.
///
/// Edge groups carry an MPI collective as one object: "every partition
/// of `from` happened before every partition of `to`" is stored as the
/// two sorted member lists, not as |from| x |to| pairs. Merges remap the
/// members; dag() expands the live groups into exactly the adjacency
/// the pairs would give, so partition ids and Tarjan order are the same
/// either way. cycle_merge() on a dirty graph never expands them: it runs
/// Tarjan over the plain edges with the groups as implicit bicliques
/// (graph/scc.hpp), with the same numbering. A group whose members
/// collapse into one partition has no edges left and is dropped.
/// Partition ids keep the exact historical relabeling semantics
/// (union-find dense labels for pair merges, Tarjan component order for
/// cycle merges), so downstream tie-breaks are bit-identical to the old
/// full-rebuild implementation.
///
/// Thread-safety: concurrent const queries are safe, including dag() —
/// its lazy materialization is guarded by a double-checked atomic flag
/// and mutex, so any number of readers may race the first rebuild.
/// Mutations (apply_merges, cycle_merge, add_edges_bulk) still require
/// exclusive access, like a standard container.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "trace/trace.hpp"

namespace logstruct::order {

using PartId = std::int32_t;

class PartitionGraph {
 public:
  explicit PartitionGraph(const trace::Trace& trace);

  /// Construction: add a partition owning `events` (must be time-sorted).
  PartId add_partition(std::vector<trace::EventId> events, bool runtime);

  /// Construction: record a happened-before edge (self-edges ignored).
  void add_edge(PartId from, PartId to);

  /// Construction: record the edge group from x to — every partition in
  /// `from` happened before every partition in `to`, self pairs ignored —
  /// as one object. Members may repeat and come in any order.
  void add_group(std::vector<PartId> from, std::vector<PartId> to);

  /// Must be called after the last add_partition/add_edge and before any
  /// query or merge.
  void finalize();

  // --- queries ------------------------------------------------------------
  [[nodiscard]] std::int32_t num_partitions() const {
    return static_cast<std::int32_t>(events_.size());
  }
  [[nodiscard]] std::span<const trace::EventId> events(PartId p) const {
    return events_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] bool runtime(PartId p) const {
    return runtime_[static_cast<std::size_t>(p)];
  }
  /// Sorted unique chares with events in p.
  [[nodiscard]] std::span<const trace::ChareId> chares(PartId p) const {
    return chares_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] PartId part_of(trace::EventId e) const {
    return part_of_[static_cast<std::size_t>(e)];
  }
  /// Deduplicated adjacency over the current partitions. Rebuilt lazily
  /// after mutations; cheap to call repeatedly between them. Safe to
  /// call from concurrent readers: the first caller materializes under
  /// a lock, the rest see the published result.
  [[nodiscard]] const graph::Digraph& dag() const {
    ensure_dag();
    return dag_;
  }
  [[nodiscard]] const trace::Trace& trace() const { return *trace_; }

  /// First event of chare c inside partition p (kNone if c has none).
  /// "Initial source" queries of §3.1.4 build on this.
  [[nodiscard]] trace::EventId first_event_of_chare(PartId p,
                                                    trace::ChareId c) const;

  // --- mutation -----------------------------------------------------------
  /// Apply a batch of scheduled merges; invalidates partition ids.
  /// Returns true if anything merged.
  bool apply_merges(std::span<const std::pair<PartId, PartId>> pairs);

  /// Merge every SCC into a single partition. Returns true if anything
  /// merged. Afterwards dag() is acyclic.
  bool cycle_merge();

  /// Add happened-before edges after construction (deduplicated lazily).
  void add_edges_bulk(std::span<const std::pair<PartId, PartId>> edges);

  /// Live edge groups (add_group), after merges dropped collapsed ones.
  [[nodiscard]] std::int32_t num_groups() const {
    return static_cast<std::int32_t>(groups_.size());
  }

  /// Total merges applied so far (for pipeline statistics).
  [[nodiscard]] std::int64_t merges_applied() const { return merges_; }

  /// Heap bytes reserved by the flat edge vector (capacity, not size):
  /// the deferred-compaction design means capacity is the honest cost.
  /// Feeds the `order/partition_graph/edge_capacity_bytes` gauge.
  [[nodiscard]] std::int64_t edge_capacity_bytes() const {
    return static_cast<std::int64_t>(edges_.capacity() *
                                     sizeof(std::pair<PartId, PartId>));
  }

  /// Approximate total container footprint (events, chares, part_of,
  /// edges, edge groups; capacities). Feeds
  /// `order/partition_graph/footprint_bytes`.
  [[nodiscard]] std::int64_t memory_bytes() const;

  /// Structural version counter: bumped by every mutation that can change
  /// partition ids, membership, or reachability. Caches of derived values
  /// (leaps, condensations, leap groups) key on this to know when to
  /// recompute. 0 only before finalize().
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

 private:
  /// Collapse partitions in place: partition p becomes label[p]. Labels
  /// must be dense [0, num_new) and order-preserving per the caller's
  /// merge semantics. Touches only merged groups' event/chare lists.
  void relabel(const std::vector<std::int32_t>& label, std::int32_t num_new);
  void ensure_dag() const;
  /// dag_ := the deduplicated plain edges (no groups); compacts edges_.
  void build_plain_dag() const;

  const trace::Trace* trace_;
  std::vector<std::vector<trace::EventId>> events_;
  std::vector<bool> runtime_;
  std::vector<std::vector<trace::ChareId>> chares_;
  std::vector<PartId> part_of_;
  /// Guard for the lazy dag_ rebuild: double-checked atomic dirty flag
  /// plus the mutex the winning reader materializes under. Copyable so
  /// PartitionGraph keeps value semantics — a copy takes the flag value
  /// and a fresh mutex.
  struct DagGuard {
    std::atomic<bool> dirty{true};
    std::mutex mu;
    DagGuard() = default;
    DagGuard(const DagGuard& o) : dirty(o.dirty.load()) {}
    DagGuard& operator=(const DagGuard& o) {
      dirty.store(o.dirty.load());
      return *this;
    }
  };

  /// Sorted, duplicate-free member lists of one edge group.
  struct EdgeGroup {
    std::vector<PartId> from;
    std::vector<PartId> to;
  };

  // Flat happened-before edge list (may contain duplicates between
  // compactions) plus the edge groups; dag_ is materialized from both
  // on demand.
  mutable std::vector<std::pair<PartId, PartId>> edges_;
  std::vector<EdgeGroup> groups_;
  mutable graph::Digraph dag_;
  mutable DagGuard dag_guard_;
  bool finalized_ = false;
  std::int64_t merges_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace logstruct::order
