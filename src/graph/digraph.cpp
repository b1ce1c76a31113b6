#include "graph/digraph.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace logstruct::graph {

void Digraph::reset(NodeId num_nodes) {
  LS_CHECK(num_nodes >= 0);
  succ_.assign(static_cast<std::size_t>(num_nodes), {});
  pred_.assign(static_cast<std::size_t>(num_nodes), {});
}

void Digraph::add_edge(NodeId u, NodeId v) {
  LS_CHECK(u >= 0 && u < num_nodes() && v >= 0 && v < num_nodes());
  if (u == v) return;
  succ_[static_cast<std::size_t>(u)].push_back(v);
  pred_[static_cast<std::size_t>(v)].push_back(u);
}

namespace {

/// Append `members` minus `self` (sorted, so one binary search splits it).
void append_except(std::vector<NodeId>& adj, std::span<const NodeId> members,
                   NodeId self) {
  const auto at = std::lower_bound(members.begin(), members.end(), self);
  adj.insert(adj.end(), members.begin(), at);
  adj.insert(adj.end(), at != members.end() && *at == self ? at + 1 : at,
             members.end());
}

}  // namespace

void Digraph::add_biclique(std::span<const NodeId> from,
                           std::span<const NodeId> to) {
  for (NodeId u : from) {
    LS_CHECK(u >= 0 && u < num_nodes());
    append_except(succ_[static_cast<std::size_t>(u)], to, u);
  }
  for (NodeId v : to) {
    LS_CHECK(v >= 0 && v < num_nodes());
    append_except(pred_[static_cast<std::size_t>(v)], from, v);
  }
}

void Digraph::finalize() {
  auto dedup = [](std::vector<NodeId>& adj) {
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
  };
  for (auto& adj : succ_) dedup(adj);
  for (auto& adj : pred_) dedup(adj);
}

std::size_t Digraph::num_edges() const {
  std::size_t count = 0;
  for (const auto& adj : succ_) count += adj.size();
  return count;
}

bool Digraph::has_edge(NodeId u, NodeId v) const {
  const auto& adj = succ_[static_cast<std::size_t>(u)];
  return std::binary_search(adj.begin(), adj.end(), v);
}

std::vector<std::pair<NodeId, NodeId>> Digraph::edges() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(num_edges());
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (NodeId v : successors(u)) out.emplace_back(u, v);
  }
  return out;
}

}  // namespace logstruct::graph
