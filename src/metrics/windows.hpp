#pragma once

/// \file windows.hpp
/// Sliced-window views over a frozen trace.
///
/// A WindowSet partitions a trace's events into disjoint windows — either
/// fixed-width wall-clock time bins or the recovered phases of a
/// PhaseResult — and precomputes, per window, a CSR view of (a) the
/// events it owns and (b) the point-to-point rows of the frozen
/// dependency table whose *receive* lands in it. Collectives are not
/// rows: kernels read a collective as one group from
/// Trace::collectives(). The time-resolved efficiency kernels
/// (metrics/efficiency.hpp) iterate these views instead of re-scanning
/// the whole trace per window; the side-by-side bin-vs-phase comparison
/// (examples/efficiency_compare.cpp) is the paper's attribution claim
/// made runnable. Construction is O(events + p2p rows) with
/// counting sorts; per-window event order is ascending event id, so
/// fixed-order reductions over a window are bit-identical for any
/// thread count. See docs/METRICS.md for the window semantics.

#include <cstdint>
#include <span>
#include <vector>

#include "order/phases.hpp"
#include "trace/trace.hpp"

namespace logstruct::metrics {

enum class WindowKind : std::uint8_t { TimeBin, Phase };

struct Window {
  /// Wall-clock extent. TimeBin: [begin, end) except the last bin, whose
  /// end is the trace end time (inclusive). Phase: the earliest and
  /// latest event timestamps of the phase (inclusive).
  trace::TimeNs begin = 0;
  trace::TimeNs end = 0;
  /// Source phase id (Phase kind), -1 for time bins.
  std::int32_t phase = -1;
  /// Quarantine provenance: the phase was degraded by trace-level
  /// recovery (PhaseResult::degraded), or — for time bins — the bin
  /// contains an event of a degraded chare. Efficiency over such a
  /// window rests on repaired, not observed, dependencies.
  bool degraded = false;

  [[nodiscard]] trace::TimeNs span() const { return end - begin; }
};

class WindowSet {
 public:
  /// Slice [0, trace.end_time()] into `bins` equal-width windows (>= 1;
  /// clamped). Every event lands in exactly one bin by its timestamp.
  static WindowSet time_bins(const trace::Trace& trace, std::int32_t bins);

  /// Slice into bins of `width_ns` (>= 1; clamped). The last bin absorbs
  /// the remainder.
  static WindowSet time_bins_of_width(const trace::Trace& trace,
                                      trace::TimeNs width_ns);

  /// One window per recovered phase, in phase-id order; extents from
  /// order::phase_extents. Degraded phases carry their quarantine flag.
  static WindowSet phases(const trace::Trace& trace,
                          const order::PhaseResult& phases);

  [[nodiscard]] WindowKind kind() const { return kind_; }
  [[nodiscard]] std::int32_t size() const {
    return static_cast<std::int32_t>(windows_.size());
  }
  [[nodiscard]] const Window& window(std::int32_t w) const {
    return windows_[static_cast<std::size_t>(w)];
  }
  [[nodiscard]] std::span<const Window> windows() const { return windows_; }

  /// Events owned by window w, ascending event id.
  [[nodiscard]] std::span<const trace::EventId> events_of(
      std::int32_t w) const {
    return csr_span(event_begin_, events_, w);
  }

  /// Rows of the trace's point-to-point dependency columns whose receive
  /// is in window w, ascending row index. Row r reads back through
  /// Trace::dep_sends()[r] / dep_recvs()[r] / dep_kinds()[r]. Collectives
  /// are groups (Trace::collectives()), not rows.
  [[nodiscard]] std::span<const std::int64_t> deps_of(std::int32_t w) const {
    return csr_span(dep_begin_, deps_, w);
  }

  /// Window owning event e (every event belongs to exactly one window).
  [[nodiscard]] std::int32_t window_of(trace::EventId e) const {
    return window_of_event_[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] std::span<const std::int32_t> window_of_events() const {
    return window_of_event_;
  }

  /// Number of windows carrying the degraded quarantine flag.
  [[nodiscard]] std::int32_t degraded_windows() const {
    return degraded_windows_;
  }

  /// Bin width for TimeBin sets (the last bin may differ); 0 for phases.
  [[nodiscard]] trace::TimeNs bin_width() const { return bin_width_; }

  // --- iteration --------------------------------------------------------
  /// One window plus its event/dependency views; what the sliced-window
  /// iterator yields.
  struct View {
    const WindowSet* set = nullptr;
    std::int32_t index = 0;

    [[nodiscard]] const Window& window() const {
      return set->window(index);
    }
    [[nodiscard]] std::span<const trace::EventId> events() const {
      return set->events_of(index);
    }
    [[nodiscard]] std::span<const std::int64_t> deps() const {
      return set->deps_of(index);
    }
  };

  class iterator {
   public:
    iterator(const WindowSet* set, std::int32_t index)
        : view_{set, index} {}
    View operator*() const { return view_; }
    iterator& operator++() {
      ++view_.index;
      return *this;
    }
    bool operator!=(const iterator& other) const {
      return view_.index != other.view_.index;
    }
    bool operator==(const iterator& other) const {
      return view_.index == other.view_.index;
    }

   private:
    View view_;
  };

  [[nodiscard]] iterator begin() const { return iterator(this, 0); }
  [[nodiscard]] iterator end() const { return iterator(this, size()); }

 private:
  template <typename T>
  [[nodiscard]] std::span<const T> csr_span(
      const std::vector<std::int64_t>& begin, const std::vector<T>& flat,
      std::int32_t w) const {
    const auto b = static_cast<std::size_t>(
        begin[static_cast<std::size_t>(w)]);
    const auto e = static_cast<std::size_t>(
        begin[static_cast<std::size_t>(w) + 1]);
    return std::span<const T>(flat).subspan(b, e - b);
  }

  /// Fill events_/deps_/degraded from window_of_event_ (counting sorts).
  void index_members(const trace::Trace& trace, bool flag_degraded_chares);

  WindowKind kind_ = WindowKind::TimeBin;
  trace::TimeNs bin_width_ = 0;
  std::vector<Window> windows_;
  std::vector<std::int32_t> window_of_event_;
  std::vector<std::int64_t> event_begin_;  ///< CSR over events_
  std::vector<trace::EventId> events_;
  std::vector<std::int64_t> dep_begin_;  ///< CSR over deps_
  std::vector<std::int64_t> deps_;
  std::int32_t degraded_windows_ = 0;
};

}  // namespace logstruct::metrics
