#include "vis/svg.hpp"

#include <algorithm>
#include <sstream>

#include "vis/color.hpp"

namespace logstruct::vis {

namespace {

std::vector<trace::ChareId> lane_order(const trace::Trace& trace) {
  std::vector<trace::ChareId> rows;
  for (trace::ChareId c = 0; c < trace.num_chares(); ++c) rows.push_back(c);
  std::stable_sort(rows.begin(), rows.end(),
                   [&](trace::ChareId a, trace::ChareId b) {
                     const auto& ca = trace.chare(a);
                     const auto& cb = trace.chare(b);
                     if (ca.runtime != cb.runtime) return cb.runtime;
                     if (ca.array != cb.array) return ca.array < cb.array;
                     if (ca.index != cb.index) return ca.index < cb.index;
                     return a < b;
                   });
  return rows;
}

std::string fill_for(const trace::Trace&, const order::LogicalStructure& ls,
                     const SvgOptions& opts, trace::EventId e,
                     double value_max) {
  if (!opts.values.empty()) {
    double v = opts.values[static_cast<std::size_t>(e)];
    double t = value_max > 0 ? v / value_max : 0.0;
    return ramp_color(t).hex();
  }
  return categorical_color(
             ls.phases.phase_of_event[static_cast<std::size_t>(e)])
      .hex();
}

struct LaneMap {
  std::vector<std::int32_t> lane_of;
  std::size_t lanes = 0;
  std::int32_t first_runtime_lane = -1;
};

LaneMap build_lanes(const trace::Trace& trace) {
  LaneMap m;
  auto order = lane_order(trace);
  m.lane_of.assign(static_cast<std::size_t>(trace.num_chares()), 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    m.lane_of[static_cast<std::size_t>(order[i])] =
        static_cast<std::int32_t>(i);
    if (m.first_runtime_lane < 0 && trace.chare(order[i]).runtime)
      m.first_runtime_lane = static_cast<std::int32_t>(i);
  }
  m.lanes = order.size();
  return m;
}

std::string svg_header(double width, double height) {
  std::ostringstream os;
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << width
     << "\" height=\"" << height << "\" viewBox=\"0 0 " << width << ' '
     << height << "\">\n"
     << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
  return os.str();
}

void divider(std::ostringstream& os, const LaneMap& lanes, double width,
             double lane_h) {
  if (lanes.first_runtime_lane < 0) return;
  double y = lanes.first_runtime_lane * lane_h - 1;
  os << "<line x1=\"0\" y1=\"" << y << "\" x2=\"" << width << "\" y2=\""
     << y << "\" stroke=\"#666\" stroke-dasharray=\"4 3\"/>\n";
}

const char* arc_stroke(trace::DepKind kind) {
  switch (kind) {
    case trace::DepKind::Fanout: return "#3465a4";
    case trace::DepKind::Collective: return "#e08020";
    case trace::DepKind::Match: break;
  }
  return "#888";
}

/// Message arcs for every traced dependency (Trace::for_each_dependency):
/// one line per (send, recv), colored by kind. The point-to-point rows
/// come first and carry their stored kind; every later pair belongs to a
/// collective. The coordinate of an event is supplied by the caller (step
/// space or time space), so both views share the loop.
template <typename XOf, typename YOf>
void message_arcs(std::ostringstream& os, const trace::Trace& trace,
                  XOf&& x_of, YOf&& y_of) {
  const auto kinds = trace.dep_kinds();
  std::size_t row = 0;
  trace.for_each_dependency([&](trace::EventId s, trace::EventId r) {
    const trace::DepKind kind =
        row < kinds.size() ? kinds[row] : trace::DepKind::Collective;
    ++row;
    os << "<line x1=\"" << x_of(s) << "\" y1=\"" << y_of(s) << "\" x2=\""
       << x_of(r) << "\" y2=\"" << y_of(r) << "\" stroke=\""
       << arc_stroke(kind) << "\" stroke-width=\"0.6\" opacity=\"0.6\"/>\n";
  });
}

}  // namespace

std::string render_logical_svg(const trace::Trace& trace,
                               const order::LogicalStructure& ls,
                               const SvgOptions& opts) {
  LaneMap lanes = build_lanes(trace);
  const double lane_h = opts.cell_h + opts.lane_gap;
  const double width = (ls.max_step + 1) * opts.cell_w;
  const double height = static_cast<double>(lanes.lanes) * lane_h;
  double vmax = 0;
  for (double v : opts.values) vmax = std::max(vmax, v);

  std::ostringstream os;
  os << svg_header(width, height);
  divider(os, lanes, width, lane_h);
  for (trace::EventId e = 0; e < trace.num_events(); ++e) {
    double x = ls.global_step[static_cast<std::size_t>(e)] * opts.cell_w;
    double y = lanes.lane_of[static_cast<std::size_t>(
                   trace.event(e).chare)] *
               lane_h;
    os << "<rect x=\"" << x << "\" y=\"" << y << "\" width=\""
       << opts.cell_w - 2 << "\" height=\"" << opts.cell_h << "\" fill=\""
       << fill_for(trace, ls, opts, e, vmax) << "\"/>\n";
  }
  if (opts.draw_messages) {
    message_arcs(
        os, trace,
        [&](trace::EventId e) {
          return ls.global_step[static_cast<std::size_t>(e)] * opts.cell_w +
                 opts.cell_w / 2;
        },
        [&](trace::EventId e) {
          return lanes.lane_of[static_cast<std::size_t>(
                     trace.event(e).chare)] *
                     lane_h +
                 opts.cell_h / 2;
        });
  }
  os << "</svg>\n";
  return os.str();
}

std::string render_physical_svg(const trace::Trace& trace,
                                const order::LogicalStructure& ls,
                                const SvgOptions& opts) {
  LaneMap lanes = build_lanes(trace);
  const double lane_h = opts.cell_h + opts.lane_gap;
  const double width = 1200;
  const double height = static_cast<double>(lanes.lanes) * lane_h;
  const double end = static_cast<double>(
      std::max<trace::TimeNs>(trace.end_time(), 1));
  auto x_of = [&](trace::TimeNs t) {
    return static_cast<double>(t) / end * width;
  };
  double vmax = 0;
  for (double v : opts.values) vmax = std::max(vmax, v);

  std::ostringstream os;
  os << svg_header(width, height);
  divider(os, lanes, width, lane_h);

  // Serial blocks as boxes colored by their first event.
  for (trace::BlockId b = 0; b < trace.num_blocks(); ++b) {
    const auto blk = trace.block(b);
    const auto bev = trace.events_of_block(b);
    if (bev.empty()) continue;
    double x0 = x_of(blk.begin);
    double x1 = std::max(x_of(blk.end), x0 + 1.0);
    double y = lanes.lane_of[static_cast<std::size_t>(blk.chare)] * lane_h;
    os << "<rect x=\"" << x0 << "\" y=\"" << y << "\" width=\"" << x1 - x0
       << "\" height=\"" << opts.cell_h << "\" fill=\""
       << fill_for(trace, ls, opts, bev.front(), vmax)
       << "\" stroke=\"#333\" stroke-width=\"0.3\"/>\n";
  }
  // Recorded idle: thin black bars on the processor's chares' lanes is
  // ambiguous; draw them at the bottom edge of the plot per processor.
  for (const auto& span : trace.idles()) {
    double x0 = x_of(span.begin);
    double x1 = std::max(x_of(span.end), x0 + 0.5);
    double y = height - 4.0 - span.proc * 1.5;
    os << "<rect x=\"" << x0 << "\" y=\"" << y << "\" width=\"" << x1 - x0
       << "\" height=\"1\" fill=\"black\"/>\n";
  }
  if (opts.draw_messages) {
    message_arcs(
        os, trace, [&](trace::EventId e) { return x_of(trace.event(e).time); },
        [&](trace::EventId e) {
          return lanes.lane_of[static_cast<std::size_t>(
                     trace.event(e).chare)] *
                     lane_h +
                 opts.cell_h / 2;
        });
  }
  os << "</svg>\n";
  return os.str();
}

}  // namespace logstruct::vis
