#include "graph/scc.hpp"

#include <algorithm>

namespace logstruct::graph {

SccResult strongly_connected_components(const Digraph& g) {
  return strongly_connected_components(g, {});
}

SccResult strongly_connected_components(const Digraph& g,
                                        std::span<const Biclique> bicliques) {
  const NodeId n = g.num_nodes();
  const auto nz = static_cast<std::size_t>(n);
  SccResult result;
  result.component.assign(nz, -1);

  std::vector<std::int32_t> index(nz, -1);
  std::vector<std::int32_t> lowlink(nz, 0);
  std::vector<bool> on_stack(nz, false);
  std::vector<NodeId> stack;
  std::int32_t next_index = 0;

  // Biclique membership, as two CSRs over nodes: the bicliques a node
  // sends into, and the (biclique, slot in `to`) pairs it receives
  // through. Per biclique, `skip` maps a slot of `to` to the first
  // unvisited slot at or after it (path halving; slot |to| is the
  // sentinel), and `open` holds the Tarjan indices of visited `to`
  // members still on the stack, in push order — the stack pops them
  // last-in first-out, so front() is the smallest. All empty when there
  // are no bicliques.
  struct Slot {
    std::int32_t clique;
    std::int32_t pos;
  };
  std::vector<std::int32_t> out_begin;
  std::vector<std::int32_t> out_of;
  std::vector<std::int32_t> in_begin;
  std::vector<Slot> in_of;
  std::vector<std::size_t> skip_base;
  std::vector<std::int32_t> skip;
  std::vector<std::vector<std::int32_t>> open(bicliques.size());
  if (!bicliques.empty()) {
    out_begin.assign(nz + 1, 0);
    in_begin.assign(nz + 1, 0);
    skip_base.reserve(bicliques.size());
    std::size_t slots = 0;
    for (const Biclique& b : bicliques) {
      for (NodeId u : b.from) ++out_begin[static_cast<std::size_t>(u) + 1];
      for (NodeId v : b.to) ++in_begin[static_cast<std::size_t>(v) + 1];
      skip_base.push_back(slots);
      slots += b.to.size() + 1;
    }
    for (std::size_t i = 1; i <= nz; ++i) {
      out_begin[i] += out_begin[i - 1];
      in_begin[i] += in_begin[i - 1];
    }
    out_of.resize(static_cast<std::size_t>(out_begin[nz]));
    in_of.resize(static_cast<std::size_t>(in_begin[nz]));
    std::vector<std::int32_t> out_cur(out_begin.begin(), out_begin.end() - 1);
    std::vector<std::int32_t> in_cur(in_begin.begin(), in_begin.end() - 1);
    skip.resize(slots);
    for (std::size_t c = 0; c < bicliques.size(); ++c) {
      const Biclique& b = bicliques[c];
      for (NodeId u : b.from)
        out_of[static_cast<std::size_t>(
            out_cur[static_cast<std::size_t>(u)]++)] =
            static_cast<std::int32_t>(c);
      for (std::size_t i = 0; i < b.to.size(); ++i)
        in_of[static_cast<std::size_t>(
            in_cur[static_cast<std::size_t>(b.to[i])]++)] = {
            static_cast<std::int32_t>(c), static_cast<std::int32_t>(i)};
      for (std::size_t i = 0; i <= b.to.size(); ++i)
        skip[skip_base[c] + i] = static_cast<std::int32_t>(i);
    }
  }
  auto cliques_from = [&](NodeId v) -> std::span<const std::int32_t> {
    if (bicliques.empty()) return {};
    const auto vz = static_cast<std::size_t>(v);
    return std::span<const std::int32_t>(out_of).subspan(
        static_cast<std::size_t>(out_begin[vz]),
        static_cast<std::size_t>(out_begin[vz + 1] - out_begin[vz]));
  };
  auto slots_of = [&](NodeId v) -> std::span<const Slot> {
    if (bicliques.empty()) return {};
    const auto vz = static_cast<std::size_t>(v);
    return std::span<const Slot>(in_of).subspan(
        static_cast<std::size_t>(in_begin[vz]),
        static_cast<std::size_t>(in_begin[vz + 1] - in_begin[vz]));
  };
  auto first_unvisited = [&](std::size_t c, std::int32_t i) {
    std::int32_t* nx = skip.data() + skip_base[c];
    while (nx[i] != i) {
      nx[i] = nx[nx[i]];
      i = nx[i];
    }
    return i;
  };

  // Explicit DFS frame: node, position within its successor list, and
  // the last successor taken (biclique successors come after it).
  struct Frame {
    NodeId node;
    std::size_t child;
    NodeId last;
  };
  std::vector<Frame> dfs;
  auto visit = [&](NodeId w) {
    const auto wz = static_cast<std::size_t>(w);
    index[wz] = next_index;
    lowlink[wz] = next_index;
    ++next_index;
    stack.push_back(w);
    on_stack[wz] = true;
    for (const Slot& s : slots_of(w)) {
      skip[skip_base[static_cast<std::size_t>(s.clique)] +
           static_cast<std::size_t>(s.pos)] = s.pos + 1;
      open[static_cast<std::size_t>(s.clique)].push_back(index[wz]);
    }
    dfs.push_back({w, 0, -1});
  };

  for (NodeId root = 0; root < n; ++root) {
    if (index[static_cast<std::size_t>(root)] != -1) continue;
    visit(root);

    while (!dfs.empty()) {
      Frame& frame = dfs.back();
      const NodeId v = frame.node;
      const auto vz = static_cast<std::size_t>(v);
      auto succ = g.successors(v);
      // Next successor in the merged sorted order: the plain list's next
      // entry, or the smallest unvisited biclique member after `last`
      // (visited members would only feed lowlink, handled at finish).
      const NodeId plain = frame.child < succ.size() ? succ[frame.child] : n;
      NodeId member = n;
      for (std::int32_t c : cliques_from(v)) {
        const auto to = bicliques[static_cast<std::size_t>(c)].to;
        const auto from = static_cast<std::int32_t>(
            std::upper_bound(to.begin(), to.end(), frame.last) - to.begin());
        const std::int32_t i =
            first_unvisited(static_cast<std::size_t>(c), from);
        if (static_cast<std::size_t>(i) < to.size())
          member = std::min(member, to[static_cast<std::size_t>(i)]);
      }
      if (plain < n && plain <= member) {
        ++frame.child;
        frame.last = plain;
        if (index[static_cast<std::size_t>(plain)] == -1) {
          visit(plain);
        } else if (on_stack[static_cast<std::size_t>(plain)]) {
          lowlink[vz] =
              std::min(lowlink[vz], index[static_cast<std::size_t>(plain)]);
        }
      } else if (member < n) {
        frame.last = member;
        visit(member);
      } else {
        for (std::int32_t c : cliques_from(v)) {
          const auto& members = open[static_cast<std::size_t>(c)];
          if (!members.empty())
            lowlink[vz] = std::min(lowlink[vz], members.front());
        }
        dfs.pop_back();
        if (!dfs.empty()) {
          NodeId parent = dfs.back().node;
          lowlink[static_cast<std::size_t>(parent)] =
              std::min(lowlink[static_cast<std::size_t>(parent)], lowlink[vz]);
        }
        if (lowlink[vz] == index[vz]) {
          // v is the root of an SCC; pop it off the component stack.
          while (true) {
            NodeId w = stack.back();
            stack.pop_back();
            on_stack[static_cast<std::size_t>(w)] = false;
            for (const Slot& s : slots_of(w))
              open[static_cast<std::size_t>(s.clique)].pop_back();
            result.component[static_cast<std::size_t>(w)] =
                result.num_components;
            if (w == v) break;
          }
          ++result.num_components;
        }
      }
    }
  }
  return result;
}

bool is_dag(const Digraph& g) {
  SccResult scc = strongly_connected_components(g);
  return scc.num_components == g.num_nodes();
}

}  // namespace logstruct::graph
