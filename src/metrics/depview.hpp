#pragma once

/// \file depview.hpp
/// Reverse view over the trace's dependencies: for each receiving event,
/// the span of events it depends on (its matching send, fan-out origin,
/// or every send of its collective), in Trace::for_each_dependency()
/// order. Point-to-point rows are counting-sorted into a CSR in
/// O(events + p2p rows); a collective receive borrows its collective's
/// `sends` list from Trace::collectives() instead of copying |sends|
/// senders per receive. The view therefore must not outlive the
/// trace it was built from.

#include <cstdint>
#include <span>
#include <vector>

#include "trace/trace.hpp"

namespace logstruct::metrics {

class IncomingDeps {
 public:
  explicit IncomingDeps(const trace::Trace& trace);

  /// Events `recv` depends on; empty for sends and dependency-free events.
  [[nodiscard]] std::span<const trace::EventId> senders(
      trace::EventId recv) const {
    const auto i = static_cast<std::size_t>(recv);
    if (const std::int32_t c = collective_of(recv); c >= 0)
      return collectives_[static_cast<std::size_t>(c)].sends;
    const auto b = static_cast<std::size_t>(begin_[i]);
    const auto e = static_cast<std::size_t>(begin_[i + 1]);
    return std::span<const trace::EventId>(senders_).subspan(b, e - b);
  }

  /// The dependency that gated `recv`: the last-arriving sender (ties
  /// broken toward the earliest in senders() order), or kNone. Computed
  /// once per collective.
  [[nodiscard]] trace::EventId binding_sender(const trace::Trace& trace,
                                              trace::EventId recv) const {
    if (const std::int32_t c = collective_of(recv); c >= 0)
      return coll_binding_[static_cast<std::size_t>(c)];
    return latest(trace, senders(recv));
  }

 private:
  [[nodiscard]] std::int32_t collective_of(trace::EventId recv) const {
    return coll_of_.empty() ? -1 : coll_of_[static_cast<std::size_t>(recv)];
  }
  static trace::EventId latest(const trace::Trace& trace,
                               std::span<const trace::EventId> senders);

  /// Per event: the collective whose `sends` list is the event's whole
  /// sender list, or -1 (the list then lives in the CSR below). Empty
  /// when the trace has no collectives.
  std::vector<std::int32_t> coll_of_;
  std::vector<std::int32_t> begin_;
  std::vector<trace::EventId> senders_;
  std::span<const trace::Collective> collectives_;
  std::vector<trace::EventId> coll_binding_;  ///< per collective
};

}  // namespace logstruct::metrics
