#include "order/stepping.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "graph/topo.hpp"
#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "order/block_units.hpp"
#include "order/causality.hpp"
#include "order/context.hpp"
#include "order/pass_manager.hpp"
#include "order/wclock.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace logstruct::order {

namespace {

/// One serial-block unit inside one phase.
struct Unit {
  std::vector<trace::EventId> events;  // in-phase events, time order
  trace::ChareId chare = trace::kNone;
};

/// Comparator state for ordering a chare's units (§3.2.1): w of the
/// initial event, then invoking chare, then recursion into source units,
/// then physical time as the total-order fallback.
class UnitOrder {
 public:
  UnitOrder(const trace::Trace& trace, const BlockUnits& units,
            const std::vector<std::int64_t>& w,
            const std::vector<Unit>& all_units,
            const std::unordered_map<trace::BlockId, std::int32_t>&
                unit_index)
      : trace_(trace),
        units_(units),
        w_(w),
        all_units_(all_units),
        unit_index_(unit_index) {}

  bool less(std::int32_t a, std::int32_t b) const {
    int c = compare(a, b, /*depth=*/8);
    if (c != 0) return c < 0;
    // Total-order fallback: physical time, then event id.
    const trace::EventId ea = first(a);
    const trace::EventId eb = first(b);
    const trace::TimeNs ta = trace_.event_time(ea);
    const trace::TimeNs tb = trace_.event_time(eb);
    if (ta != tb) return ta < tb;
    return ea < eb;
  }

 private:
  [[nodiscard]] trace::EventId first(std::int32_t u) const {
    return all_units_[static_cast<std::size_t>(u)].events.front();
  }

  /// The unit's replay position: the maximum w over its receives — the
  /// binding dependency that lets it start. Charm++ units have (at most)
  /// one receive, and it is the first event, so this matches the paper's
  /// "w of the initial event"; multi-dependency task units must sort by
  /// their last-satisfied dependency or the sequence order can contradict
  /// the message order.
  [[nodiscard]] std::int64_t unit_w(std::int32_t u) const {
    const auto& events = all_units_[static_cast<std::size_t>(u)].events;
    std::int64_t best = w_[static_cast<std::size_t>(events.front())];
    for (trace::EventId e : events) {
      if (trace_.event(e).kind == trace::EventKind::Recv)
        best = std::max(best, w_[static_cast<std::size_t>(e)]);
    }
    return best;
  }

  /// The chare that invoked this unit: the partner chare of its initial
  /// receive (kNone -> -1).
  [[nodiscard]] std::int32_t invoker_chare(std::int32_t u) const {
    const trace::Event& ev = trace_.event(first(u));
    if (ev.kind != trace::EventKind::Recv || ev.partner == trace::kNone)
      return -1;
    return trace_.event(ev.partner).chare;
  }

  /// The unit holding the matching send of this unit's initial receive
  /// (-1 if none or not materialized in this phase).
  [[nodiscard]] std::int32_t invoker_unit(std::int32_t u) const {
    const trace::Event& ev = trace_.event(first(u));
    if (ev.kind != trace::EventKind::Recv || ev.partner == trace::kNone)
      return -1;
    trace::BlockId b =
        units_.unit_of_event[static_cast<std::size_t>(ev.partner)];
    auto it = unit_index_.find(b);
    return it == unit_index_.end() ? -1 : it->second;
  }

  int compare(std::int32_t a, std::int32_t b, int depth) const {
    std::int64_t wa = unit_w(a);
    std::int64_t wb = unit_w(b);
    if (wa != wb) return wa < wb ? -1 : 1;
    std::int32_t ia = invoker_chare(a);
    std::int32_t ib = invoker_chare(b);
    if (ia != ib) return ia < ib ? -1 : 1;
    if (depth > 0) {
      std::int32_t ua = invoker_unit(a);
      std::int32_t ub = invoker_unit(b);
      if (ua >= 0 && ub >= 0 && ua != ub && ua != a && ub != b)
        return compare(ua, ub, depth - 1);
    }
    return 0;
  }

  const trace::Trace& trace_;
  const BlockUnits& units_;
  const std::vector<std::int64_t>& w_;
  const std::vector<Unit>& all_units_;
  const std::unordered_map<trace::BlockId, std::int32_t>& unit_index_;
};

/// "reorder" pass (§3.2.1): fill ctx.w with the idealized-replay clock,
/// or zeros when reordering is disabled (physical-time stepping).
void reorder_pass(OrderContext& ctx) {
  const Options& opts = ctx.options();
  if (opts.step.reorder) {
    const int threads = opts.step.threads >= 1 ? opts.step.threads
                                               : opts.effective_threads();
    ctx.w = compute_w(ctx.trace(), ctx.phases,
                      ctx.units(opts.partition.sdag_inference), opts.step,
                      threads);
  } else {
    ctx.w.assign(static_cast<std::size_t>(ctx.trace().num_events()), 0);
  }
}

/// "stepping" pass (§3.2.2-§3.3): order units per chare, Kahn-assign
/// local steps per phase, stitch global steps via phase offsets.
void stepping_pass(OrderContext& ctx) {
  const trace::Trace& trace = ctx.trace();
  const Options& opts = ctx.options();
  PhaseResult& phases = ctx.phases;

  OBS_SPAN(span, "order/stepping");
  span.attr("phases", phases.num_phases());
  span.attr("events", trace.num_events());
  LogicalStructure& out = ctx.structure;
  const BlockUnits& units = ctx.units(opts.partition.sdag_inference);

  out.w = std::move(ctx.w);
  if (out.w.empty())
    out.w.assign(static_cast<std::size_t>(trace.num_events()), 0);

  // Collective send lists per event for step dependencies.
  std::unordered_map<trace::EventId, std::int32_t> coll_of;
  for (std::size_t c = 0; c < trace.collectives().size(); ++c) {
    for (trace::EventId e : trace.collectives()[c].recvs)
      coll_of[e] = static_cast<std::int32_t>(c);
  }

  out.local_step.assign(static_cast<std::size_t>(trace.num_events()), 0);
  out.global_step.assign(static_cast<std::size_t>(trace.num_events()), 0);
  out.phase_offset.assign(static_cast<std::size_t>(phases.num_phases()), 0);
  out.phase_height.assign(static_cast<std::size_t>(phases.num_phases()), 0);

  // Per-chare sequences per phase; stitched globally after offsets.
  std::vector<std::vector<std::vector<trace::EventId>>> phase_chare_seq(
      static_cast<std::size_t>(phases.num_phases()));

  std::vector<trace::EventId> seq_pred(
      static_cast<std::size_t>(trace.num_events()), trace::kNone);
  std::vector<std::int32_t> conflicts(
      static_cast<std::size_t>(phases.num_phases()), 0);
  // Position of each event in its phase's event list, to merge released
  // collective receives into a send's successors (per-event, so the
  // phase fan-out below writes disjoint slots; empty without collectives).
  std::vector<std::int32_t> pos_in_phase(
      trace.collectives().empty()
          ? 0
          : static_cast<std::size_t>(trace.num_events()),
      0);

  // Phases are mutually independent here: every vector indexed below is
  // written at per-phase or per-event (single owning phase) positions, so
  // the loop parallelizes without synchronization (§3.3).
  auto process_phase = [&](std::int32_t ph) {
    const auto& phase_events = phases.events[static_cast<std::size_t>(ph)];

    // Build units restricted to this phase.
    std::vector<Unit> phase_units;
    std::unordered_map<trace::BlockId, std::int32_t> unit_index;
    for (trace::EventId e : phase_events) {
      trace::BlockId u = units.unit_of_event[static_cast<std::size_t>(e)];
      auto [it, inserted] = unit_index.try_emplace(
          u, static_cast<std::int32_t>(phase_units.size()));
      if (inserted) {
        phase_units.emplace_back();
        phase_units.back().chare = trace.event(e).chare;
      }
      phase_units[static_cast<std::size_t>(it->second)].events.push_back(e);
    }

    // Group units by chare and order them.
    std::unordered_map<trace::ChareId, std::vector<std::int32_t>> by_chare;
    for (std::size_t u = 0; u < phase_units.size(); ++u)
      by_chare[phase_units[u].chare].push_back(static_cast<std::int32_t>(u));

    UnitOrder order(trace, units, out.w, phase_units, unit_index);
    auto& seqs = phase_chare_seq[static_cast<std::size_t>(ph)];
    for (auto& [chare, list] : by_chare) {
      if (opts.step.reorder) {
        std::sort(list.begin(), list.end(),
                  [&order](std::int32_t a, std::int32_t b) {
                    return order.less(a, b);
                  });
      } else {
        std::sort(list.begin(), list.end(),
                  [&](std::int32_t a, std::int32_t b) {
                    trace::EventId ea = phase_units[
                        static_cast<std::size_t>(a)].events.front();
                    trace::EventId eb = phase_units[
                        static_cast<std::size_t>(b)].events.front();
                    const trace::TimeNs ta = trace.event_time(ea);
                    const trace::TimeNs tb = trace.event_time(eb);
                    if (ta != tb) return ta < tb;
                    return ea < eb;
                  });
      }
      std::vector<trace::EventId> seq;
      for (std::int32_t u : list) {
        for (trace::EventId e :
             phase_units[static_cast<std::size_t>(u)].events) {
          if (!seq.empty())
            seq_pred[static_cast<std::size_t>(e)] = seq.back();
          seq.push_back(e);
        }
      }
      seqs.push_back(std::move(seq));
    }

    // Local step assignment: Kahn over sequence + message dependencies.
    // A collective is one dependency of each of its in-phase receives,
    // released when the last of its in-phase sends settles. That is the
    // moment its sends x recvs pairs would all have been counted down,
    // and the released receives join the settling send's successors in
    // phase-event order, so every receive becomes ready exactly when and
    // where the pairs would have made it ready.
    std::unordered_map<trace::EventId, std::int32_t> indeg;
    std::unordered_map<trace::EventId, std::vector<trace::EventId>> succ;
    auto in_phase = [&](trace::EventId e) {
      return phases.phase_of_event[static_cast<std::size_t>(e)] == ph;
    };
    struct PhaseCollective {
      std::vector<trace::EventId> recvs;  ///< in phase-event order
      std::int32_t pending = 0;  ///< distinct in-phase sends not settled
      std::int32_t max_send_step = 0;  ///< valid once pending == 0
    };
    std::unordered_map<std::int32_t, PhaseCollective> colls;
    std::unordered_map<trace::EventId, std::vector<std::int32_t>> colls_of_send;
    for (trace::EventId e : phase_events) indeg[e] = 0;
    if (!pos_in_phase.empty()) {
      for (std::size_t i = 0; i < phase_events.size(); ++i)
        pos_in_phase[static_cast<std::size_t>(phase_events[i])] =
            static_cast<std::int32_t>(i);
    }
    auto add_dep = [&](trace::EventId from, trace::EventId to) {
      succ[from].push_back(to);
      ++indeg[to];
    };
    auto phase_collective = [&](std::int32_t c) -> PhaseCollective& {
      auto [it, inserted] = colls.try_emplace(c);
      if (inserted) {
        std::vector<trace::EventId> sends;
        for (trace::EventId s :
             trace.collectives()[static_cast<std::size_t>(c)].sends)
          if (in_phase(s)) sends.push_back(s);
        std::sort(sends.begin(), sends.end());
        sends.erase(std::unique(sends.begin(), sends.end()), sends.end());
        it->second.pending = static_cast<std::int32_t>(sends.size());
        for (trace::EventId s : sends) colls_of_send[s].push_back(c);
      }
      return it->second;
    };
    for (trace::EventId e : phase_events) {
      if (seq_pred[static_cast<std::size_t>(e)] != trace::kNone)
        add_dep(seq_pred[static_cast<std::size_t>(e)], e);
      const trace::Event& ev = trace.event(e);
      if (ev.kind == trace::EventKind::Recv) {
        if (ev.partner != trace::kNone && in_phase(ev.partner))
          add_dep(ev.partner, e);
        auto coll = coll_of.find(e);
        if (coll != coll_of.end()) {
          PhaseCollective& pc = phase_collective(coll->second);
          if (pc.pending > 0) {
            pc.recvs.push_back(e);
            ++indeg[e];
          }
        }
      }
    }

    std::vector<trace::EventId> ready;
    for (trace::EventId e : phase_events)
      if (indeg[e] == 0) ready.push_back(e);
    std::size_t done = 0;
    std::unordered_map<trace::EventId, bool> processed;
    std::vector<trace::EventId> released;
    auto settle = [&](trace::EventId e) {
      if (processed[e]) return;
      std::int32_t step = 0;
      if (seq_pred[static_cast<std::size_t>(e)] != trace::kNone) {
        step = std::max(
            step,
            out.local_step[static_cast<std::size_t>(
                seq_pred[static_cast<std::size_t>(e)])] + 1);
      }
      const trace::Event& ev = trace.event(e);
      if (ev.kind == trace::EventKind::Recv) {
        if (ev.partner != trace::kNone && in_phase(ev.partner))
          step = std::max(
              step,
              out.local_step[static_cast<std::size_t>(ev.partner)] + 1);
        auto coll = coll_of.find(e);
        if (coll != coll_of.end()) {
          const PhaseCollective& pc = colls.at(coll->second);
          if (pc.pending == 0 && !pc.recvs.empty()) {
            step = std::max(step, pc.max_send_step + 1);
          } else {
            // Settled ahead of its sends (a broken cycle): read them now.
            for (trace::EventId s :
                 trace.collectives()[static_cast<std::size_t>(coll->second)]
                     .sends) {
              if (in_phase(s))
                step = std::max(
                    step, out.local_step[static_cast<std::size_t>(s)] + 1);
            }
          }
        }
      }
      out.local_step[static_cast<std::size_t>(e)] = step;
      processed[e] = true;
      ++done;

      // Successors: the plain ones, plus the receives of every collective
      // whose last in-phase send this is, merged in phase-event order.
      static const std::vector<trace::EventId> kNoSucc;
      auto it = succ.find(e);
      const std::vector<trace::EventId>& plain =
          it == succ.end() ? kNoSucc : it->second;
      released.clear();
      if (auto cs = colls_of_send.find(e); cs != colls_of_send.end()) {
        for (std::int32_t c : cs->second) {
          PhaseCollective& pc = colls.at(c);
          if (--pc.pending > 0) continue;
          for (trace::EventId s :
               trace.collectives()[static_cast<std::size_t>(c)].sends)
            if (in_phase(s))
              pc.max_send_step =
                  std::max(pc.max_send_step,
                           out.local_step[static_cast<std::size_t>(s)]);
          released.insert(released.end(), pc.recvs.begin(), pc.recvs.end());
        }
      }
      if (!released.empty()) {
        released.insert(released.end(), plain.begin(), plain.end());
        std::stable_sort(released.begin(), released.end(),
                         [&](trace::EventId a, trace::EventId b) {
                           return pos_in_phase[static_cast<std::size_t>(a)] <
                                  pos_in_phase[static_cast<std::size_t>(b)];
                         });
      }
      for (trace::EventId nxt : released.empty() ? plain : released) {
        if (--indeg[nxt] == 0) ready.push_back(nxt);
      }
    };
    std::size_t head = 0;
    while (done < phase_events.size()) {
      if (head < ready.size()) {
        settle(ready[head++]);
        continue;
      }
      // Reordering produced a cyclic constraint (possible only with
      // pathological unit orders): break it at the earliest unprocessed
      // event and keep draining normally.
      trace::EventId pick = trace::kNone;
      for (trace::EventId e : phase_events) {
        if (!processed[e] &&
            (pick == trace::kNone ||
             trace.event_time(e) < trace.event_time(pick)))
          pick = e;
      }
      LS_CHECK(pick != trace::kNone);
      ++conflicts[static_cast<std::size_t>(ph)];
      settle(pick);
    }

    if (conflicts[static_cast<std::size_t>(ph)] > 0) {
      // The cycle-breaking fallback can leave constraints unmet. Relax:
      // every round only raises steps, in phase-event order. Strict (+1)
      // constraints without a cycle settle within |phase| rounds (a path
      // has at most |phase| - 1 edges), so a step still rising in round
      // |phase| + 1 proves a cycle that no step assignment satisfies;
      // otherwise both invariants (strictly increasing along the chare
      // sequence, receive after send) hold again.
      std::vector<trace::EventId> rising;
      for (std::size_t round = 0; round <= phase_events.size(); ++round) {
        rising.clear();
        for (trace::EventId e : phase_events) {
          std::int32_t step = out.local_step[static_cast<std::size_t>(e)];
          if (seq_pred[static_cast<std::size_t>(e)] != trace::kNone) {
            step = std::max(
                step, out.local_step[static_cast<std::size_t>(
                          seq_pred[static_cast<std::size_t>(e)])] + 1);
          }
          const trace::Event& ev = trace.event(e);
          if (ev.kind == trace::EventKind::Recv) {
            if (ev.partner != trace::kNone && in_phase(ev.partner))
              step = std::max(
                  step,
                  out.local_step[static_cast<std::size_t>(ev.partner)] + 1);
            auto coll = coll_of.find(e);
            if (coll != coll_of.end()) {
              for (trace::EventId s2 :
                   trace.collectives()[static_cast<std::size_t>(
                       coll->second)].sends) {
                if (in_phase(s2))
                  step = std::max(
                      step,
                      out.local_step[static_cast<std::size_t>(s2)] + 1);
              }
            }
          }
          if (step != out.local_step[static_cast<std::size_t>(e)]) {
            out.local_step[static_cast<std::size_t>(e)] = step;
            rising.push_back(e);
          }
        }
        if (rising.empty()) break;
      }
      if (!rising.empty()) {
        std::string msg = "order/stepping: phase " + std::to_string(ph) +
                          ": step constraints contain a cycle; events "
                          "still rising:";
        for (std::size_t i = 0; i < rising.size() && i < 8; ++i)
          msg += " " + std::to_string(rising[i]);
        if (rising.size() > 8)
          msg += " (" + std::to_string(rising.size()) + " in all)";
        // The pool rethrows the lowest throwing phase's error.
        throw std::runtime_error(msg);
      }
    }

    for (trace::EventId e : phase_events)
      out.phase_height[static_cast<std::size_t>(ph)] = std::max(
          out.phase_height[static_cast<std::size_t>(ph)],
          out.local_step[static_cast<std::size_t>(e)]);
  };

  // step.threads >= 1 is an explicit per-stage override; 0 follows the
  // pipeline-wide Options::threads (and through it --threads).
  const int threads = opts.step.threads >= 1 ? opts.step.threads
                                             : opts.effective_threads();
  span.attr("threads", threads);
  obs::Progress progress("order/stepping", phases.num_phases());
  util::parallel_for(threads, phases.num_phases(), [&](std::int64_t ph) {
    process_phase(static_cast<std::int32_t>(ph));
    obs::Progress::tick();
  });
  for (std::int32_t c : conflicts) out.order_conflicts += c;

  // Phase offsets along the phase DAG.
  for (graph::NodeId p : graph::topological_order(phases.dag)) {
    std::int32_t offset = 0;
    for (graph::NodeId pred : phases.dag.predecessors(p)) {
      offset = std::max(
          offset, out.phase_offset[static_cast<std::size_t>(pred)] +
                      out.phase_height[static_cast<std::size_t>(pred)] + 1);
    }
    out.phase_offset[static_cast<std::size_t>(p)] = offset;
  }

  for (trace::EventId e = 0; e < trace.num_events(); ++e) {
    std::int32_t ph = phases.phase_of_event[static_cast<std::size_t>(e)];
    out.global_step[static_cast<std::size_t>(e)] =
        out.phase_offset[static_cast<std::size_t>(ph)] +
        out.local_step[static_cast<std::size_t>(e)];
    out.max_step = std::max(out.max_step,
                            out.global_step[static_cast<std::size_t>(e)]);
  }

  // Global per-chare sequences: phases in offset order.
  out.chare_sequence.assign(static_cast<std::size_t>(trace.num_chares()),
                            {});
  {
    std::vector<std::int32_t> phase_order(
        static_cast<std::size_t>(phases.num_phases()));
    for (std::size_t i = 0; i < phase_order.size(); ++i)
      phase_order[i] = static_cast<std::int32_t>(i);
    std::sort(phase_order.begin(), phase_order.end(),
              [&](std::int32_t a, std::int32_t b) {
                if (out.phase_offset[static_cast<std::size_t>(a)] !=
                    out.phase_offset[static_cast<std::size_t>(b)])
                  return out.phase_offset[static_cast<std::size_t>(a)] <
                         out.phase_offset[static_cast<std::size_t>(b)];
                return a < b;
              });
    for (std::int32_t ph : phase_order) {
      for (const auto& seq :
           phase_chare_seq[static_cast<std::size_t>(ph)]) {
        if (seq.empty()) continue;
        trace::ChareId c = trace.event(seq.front()).chare;
        auto& global = out.chare_sequence[static_cast<std::size_t>(c)];
        global.insert(global.end(), seq.begin(), seq.end());
      }
    }
  }
  out.pos_in_chare.assign(static_cast<std::size_t>(trace.num_events()), 0);
  for (const auto& seq : out.chare_sequence) {
    for (std::size_t i = 0; i < seq.size(); ++i)
      out.pos_in_chare[static_cast<std::size_t>(seq[i])] =
          static_cast<std::int32_t>(i);
  }

  out.phases = std::move(phases);
  span.attr("max_step", out.max_step);
  span.attr("order_conflicts", out.order_conflicts);
  OBS_COUNTER_ADD("order/stepping/order_conflicts", out.order_conflicts);
}

}  // namespace

void run_stepping_pipeline(OrderContext& ctx,
                           std::vector<PassRecord>* records) {
  PassManager pm(ctx.options().partition.check_passes);
  pm.add({.name = "reorder",
          .run = reorder_pass,
          .parallelism = Parallelism::kPhaseParallel});
  pm.add({.name = "stepping",
          .run = stepping_pass,
          .own_span = true,
          .parallelism = Parallelism::kPhaseParallel});
  // Opt-in second oracle (order/causality.hpp): after stepping, verify
  // the finished structure against the vector-clock happened-before
  // relation; abort with event/edge provenance on the first lie.
  pm.add({.name = "check_causality",
          .run = check_causality_pass,
          .enabled =
              ctx.options().check_causality || causality_check_forced(),
          .parallelism = Parallelism::kPhaseParallel});
  pm.run(ctx);
  if (records)
    records->insert(records->end(), pm.records().begin(),
                    pm.records().end());
}

LogicalStructure assign_steps(const trace::Trace& trace, PhaseResult phases,
                              const Options& opts) {
  OrderContext ctx(trace, opts);
  ctx.phases = std::move(phases);
  run_stepping_pipeline(ctx);
  return std::move(ctx.structure);
}

LogicalStructure extract_structure(const trace::Trace& trace,
                                   const Options& opts) {
  OBS_SPAN(span, "order/extract_structure");
  span.attr("events", trace.num_events());
  OrderContext ctx(trace, opts);
  run_partition_pipeline(ctx, nullptr, nullptr);
  run_stepping_pipeline(ctx);
  return std::move(ctx.structure);
}

}  // namespace logstruct::order
