#include "metrics/depview.hpp"

namespace logstruct::metrics {

IncomingDeps::IncomingDeps(const trace::Trace& trace)
    : collectives_(trace.collectives()) {
  const auto n = static_cast<std::size_t>(trace.num_events());
  begin_.assign(n + 1, 0);
  trace.for_each_p2p_dependency([&](trace::EventId, trace::EventId r) {
    ++begin_[static_cast<std::size_t>(r) + 1];
  });

  // A receive filling exactly one collective slot and nothing else
  // borrows that collective's sends. Anything else with a collective
  // slot (p2p senders too, or several slots) is "mixed": its senders are
  // copied into the CSR in for_each_dependency order, p2p rows first. Traces without
  // collectives skip all of this (coll_of_ stays empty).
  std::vector<std::uint8_t> mixed;
  bool any_mixed = false;
  if (!collectives_.empty()) {
    coll_of_.assign(n, -1);
    std::vector<std::int32_t> slots(n, 0);
    for (std::size_t c = 0; c < collectives_.size(); ++c) {
      for (trace::EventId r : collectives_[c].recvs) {
        ++slots[static_cast<std::size_t>(r)];
        coll_of_[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(c);
      }
    }
    mixed.assign(n, 0);
    for (std::size_t e = 0; e < n; ++e) {
      if (slots[e] > 1 || (slots[e] == 1 && begin_[e + 1] > 0)) {
        mixed[e] = 1;
        coll_of_[e] = -1;
        any_mixed = true;
      }
    }
  }
  if (any_mixed) {
    for (const trace::Collective& coll : collectives_)
      for (trace::EventId r : coll.recvs)
        if (mixed[static_cast<std::size_t>(r)])
          begin_[static_cast<std::size_t>(r) + 1] +=
              static_cast<std::int32_t>(coll.sends.size());
  }
  for (std::size_t i = 1; i <= n; ++i) begin_[i] += begin_[i - 1];

  senders_.resize(static_cast<std::size_t>(begin_[n]));
  std::vector<std::int32_t> cursor(begin_.begin(), begin_.end() - 1);
  trace.for_each_p2p_dependency([&](trace::EventId s, trace::EventId r) {
    senders_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(r)]++)] = s;
  });
  if (any_mixed) {
    for (const trace::Collective& coll : collectives_)
      for (trace::EventId s : coll.sends)
        for (trace::EventId r : coll.recvs)
          if (mixed[static_cast<std::size_t>(r)])
            senders_[static_cast<std::size_t>(
                cursor[static_cast<std::size_t>(r)]++)] = s;
  }

  coll_binding_.reserve(collectives_.size());
  for (const trace::Collective& coll : collectives_)
    coll_binding_.push_back(latest(trace, coll.sends));
}

trace::EventId IncomingDeps::latest(const trace::Trace& trace,
                                    std::span<const trace::EventId> senders) {
  trace::EventId best = trace::kNone;
  trace::TimeNs best_time = 0;
  for (trace::EventId s : senders) {
    const trace::TimeNs ts = trace.event_time(s);
    if (best == trace::kNone || ts > best_time) {
      best = s;
      best_time = ts;
    }
  }
  return best;
}

}  // namespace logstruct::metrics
