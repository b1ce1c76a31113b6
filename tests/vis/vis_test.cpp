#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "apps/jacobi2d.hpp"
#include "apps/lassen.hpp"
#include "metrics/duration.hpp"
#include "order/stepping.hpp"
#include "vis/ascii.hpp"
#include "vis/cluster.hpp"
#include "vis/color.hpp"
#include "vis/html.hpp"
#include "vis/svg.hpp"

namespace logstruct::vis {
namespace {

order::LogicalStructure small_jacobi(trace::Trace& t) {
  apps::Jacobi2DConfig cfg;
  cfg.chares_x = 4;
  cfg.chares_y = 4;
  cfg.num_pes = 4;
  cfg.iterations = 2;
  t = apps::run_jacobi2d(cfg);
  return order::extract_structure(t, order::Options::charm());
}

TEST(Color, CategoricalColorsDistinctAndStable) {
  EXPECT_EQ(categorical_color(3).hex(), categorical_color(3).hex());
  EXPECT_NE(categorical_color(0).hex(), categorical_color(1).hex());
  EXPECT_NE(categorical_color(1).hex(), categorical_color(2).hex());
}

TEST(Color, RampEndpoints) {
  EXPECT_EQ(ramp_color(0.0).hex(), "#ffffff");
  Rgb hot = ramp_color(1.0);
  EXPECT_GT(hot.r, hot.g);
  EXPECT_GT(hot.g, hot.b);
}

TEST(Color, RampClamps) {
  EXPECT_EQ(ramp_color(-5.0).hex(), ramp_color(0.0).hex());
  EXPECT_EQ(ramp_color(7.0).hex(), ramp_color(1.0).hex());
}

TEST(Color, GlyphCoverage) {
  EXPECT_EQ(categorical_glyph(0), 'A');
  EXPECT_EQ(categorical_glyph(25), 'Z');
  EXPECT_EQ(categorical_glyph(26), 'a');
  EXPECT_EQ(categorical_glyph(52), '0');
  EXPECT_EQ(categorical_glyph(100), '#');
  EXPECT_EQ(categorical_glyph(-1), '?');
}

TEST(Ascii, LogicalViewHasOneRowPerChare) {
  trace::Trace t;
  auto ls = small_jacobi(t);
  std::string view = render_logical_ascii(t, ls);
  // Count newlines in the grid section: at least one per chare plus the
  // runtime divider, title, and legend.
  std::size_t lines = std::count(view.begin(), view.end(), '\n');
  EXPECT_GE(lines, static_cast<std::size_t>(t.num_chares()) + 2);
  // Runtime chares are separated by a dashed rule.
  EXPECT_NE(view.find("---"), std::string::npos);
  EXPECT_NE(view.find("CkReductionMgr"), std::string::npos);
}

TEST(Ascii, PhysicalViewRenders) {
  trace::Trace t;
  auto ls = small_jacobi(t);
  std::string view = render_physical_ascii(t, ls);
  EXPECT_NE(view.find("physical time"), std::string::npos);
  EXPECT_GT(view.size(), 100u);
}

TEST(Ascii, WideStructureIsCompressed) {
  trace::Trace t;
  auto ls = small_jacobi(t);
  AsciiOptions opts;
  opts.max_cols = 40;
  std::string view = render_logical_ascii(t, ls, opts);
  // No grid line exceeds name width + 2 + 40.
  std::istringstream is(view);
  std::string line;
  std::getline(is, line);  // title
  while (std::getline(is, line)) {
    if (line.rfind("phases:", 0) == 0) break;
    EXPECT_LE(line.size(), 22u + 2u + 40u);
  }
}

TEST(Ascii, MetricViewHighlightsMaximum) {
  trace::Trace t;
  auto ls = small_jacobi(t);
  auto dd = metrics::differential_duration(t, ls);
  std::vector<double> values(dd.per_event.begin(), dd.per_event.end());
  std::string view = render_metric_ascii(t, ls, values);
  EXPECT_NE(view.find("metric over logical steps"), std::string::npos);
  // The maximum renders as a '9' somewhere.
  EXPECT_NE(view.find('9'), std::string::npos);
}

TEST(Ascii, MetricViewPhysicalMode) {
  trace::Trace t;
  auto ls = small_jacobi(t);
  std::vector<double> zeros(static_cast<std::size_t>(t.num_events()), 0.0);
  std::string view = render_metric_ascii(t, ls, zeros, /*logical=*/false);
  EXPECT_NE(view.find("physical time"), std::string::npos);
  // All-zero metric: no intensity glyph above '0' in the grid cells (the
  // header and chare-name column legitimately contain digits).
  std::istringstream is(view);
  std::string line;
  std::getline(is, line);  // header
  while (std::getline(is, line)) {
    if (line.size() <= 24) continue;
    for (char c : line.substr(24)) EXPECT_TRUE(c < '1' || c > '9') << line;
  }
}

TEST(Svg, LogicalViewWellFormed) {
  trace::Trace t;
  auto ls = small_jacobi(t);
  std::string svg = render_logical_svg(t, ls);
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One rect per event plus background.
  std::size_t rects = 0;
  for (std::size_t pos = 0; (pos = svg.find("<rect", pos)) != std::string::npos;
       ++pos)
    ++rects;
  EXPECT_GE(rects, static_cast<std::size_t>(t.num_events()));
}

TEST(Svg, PhysicalViewDrawsIdleBars) {
  trace::Trace t;
  auto ls = small_jacobi(t);
  std::string svg = render_physical_svg(t, ls);
  EXPECT_NE(svg.find("fill=\"black\""), std::string::npos);  // idle bars
}

TEST(Svg, MetricColoringUsesRamp) {
  trace::Trace t;
  auto ls = small_jacobi(t);
  auto dd = metrics::differential_duration(t, ls);
  SvgOptions opts;
  opts.values.assign(dd.per_event.begin(), dd.per_event.end());
  std::string svg = render_logical_svg(t, ls, opts);
  // Zero-valued events render white on the ramp.
  EXPECT_NE(svg.find("#ffffff"), std::string::npos);
}

std::size_t count_of(const std::string& svg, const std::string& what) {
  std::size_t n = 0;
  for (std::size_t pos = 0; (pos = svg.find(what, pos)) != std::string::npos;
       ++pos)
    ++n;
  return n;
}

/// Exactly one arc per traced dependency, in both views; each collective
/// (send, recv) pair is one of them, in the collective color.
void expect_one_arc_per_dependency(const trace::Trace& t,
                                   const order::LogicalStructure& ls) {
  // Off by default: only the lane divider.
  std::size_t base_logical = count_of(render_logical_svg(t, ls), "<line");
  std::size_t base_physical = count_of(render_physical_svg(t, ls), "<line");
  EXPECT_LE(base_logical, 1u);

  SvgOptions opts;
  opts.draw_messages = true;
  const std::string logical = render_logical_svg(t, ls, opts);
  const std::string physical = render_physical_svg(t, ls, opts);
  const auto deps = static_cast<std::size_t>(t.num_dependencies());
  EXPECT_EQ(count_of(logical, "<line"), base_logical + deps);
  EXPECT_EQ(count_of(physical, "<line"), base_physical + deps);
  EXPECT_GT(deps, 0u);

  std::size_t pairs = 0;
  for (const trace::Collective& c : t.collectives())
    pairs += c.sends.size() * c.recvs.size();
  EXPECT_EQ(count_of(logical, "stroke=\"#e08020\""), pairs);
  EXPECT_EQ(count_of(physical, "stroke=\"#e08020\""), pairs);
}

TEST(Svg, MessageArcsDrawOneLinePerDependencyRow) {
  trace::Trace t;
  auto ls = small_jacobi(t);
  expect_one_arc_per_dependency(t, ls);
}

TEST(Svg, MessageArcsIncludeCollectivePairs) {
  apps::LassenConfig cfg;
  cfg.iterations = 2;
  const trace::Trace t = apps::run_lassen_mpi(cfg);
  ASSERT_FALSE(t.collectives().empty());
  const auto ls = order::extract_structure(t, order::Options::mpi());
  expect_one_arc_per_dependency(t, ls);
}

TEST(Cluster, JacobiCompressesToGeometryClasses) {
  apps::Jacobi2DConfig cfg;
  cfg.chares_x = 8;
  cfg.chares_y = 8;
  cfg.num_pes = 8;
  cfg.iterations = 2;
  trace::Trace t = apps::run_jacobi2d(cfg);
  auto ls = order::extract_structure(t, order::Options::charm());
  auto clusters = cluster_chares(t, ls);

  // Application chares must form exactly the corner/edge/interior classes.
  std::vector<std::size_t> app_sizes;
  for (const auto& c : clusters)
    if (!c.runtime && t.chare(c.exemplar()).array == 0)
      app_sizes.push_back(c.chares.size());
  std::sort(app_sizes.begin(), app_sizes.end());
  EXPECT_EQ(app_sizes, (std::vector<std::size_t>{4, 24, 36}));
}

TEST(Cluster, EveryChareInExactlyOneCluster) {
  trace::Trace t;
  auto ls = small_jacobi(t);
  auto clusters = cluster_chares(t, ls);
  std::vector<int> seen(static_cast<std::size_t>(t.num_chares()), 0);
  for (const auto& c : clusters) {
    EXPECT_FALSE(c.chares.empty());
    for (trace::ChareId ch : c.chares) ++seen[static_cast<std::size_t>(ch)];
    for (trace::ChareId ch : c.chares)
      EXPECT_EQ(t.chare(ch).runtime, c.runtime);
  }
  for (int n : seen) EXPECT_EQ(n, 1);
}

TEST(Cluster, ExactStepsIsFinerOrEqual) {
  trace::Trace t;
  auto ls = small_jacobi(t);
  auto coarse = cluster_chares(t, ls, ClusterBy::StepEnvelope);
  auto fine = cluster_chares(t, ls, ClusterBy::ExactSteps);
  EXPECT_GE(fine.size(), coarse.size());
}

TEST(Cluster, RenderMentionsCounts) {
  trace::Trace t;
  auto ls = small_jacobi(t);
  std::string view = render_clustered_ascii(t, ls);
  EXPECT_NE(view.find("classes for"), std::string::npos);
  EXPECT_NE(view.find(" x"), std::string::npos);
}

TEST(Html, ViewerIsSelfContained) {
  trace::Trace t;
  auto ls = small_jacobi(t);
  HtmlOptions opts;
  opts.title = "jacobi \"demo\"";
  std::string html = render_html(t, ls, opts);
  EXPECT_NE(html.find("<!doctype html>"), std::string::npos);
  EXPECT_NE(html.find("</html>"), std::string::npos);
  // Data substituted, markers gone.
  EXPECT_EQ(html.find("__DATA__"), std::string::npos);
  EXPECT_EQ(html.find("__TITLE__"), std::string::npos);
  // Quote in the title is escaped, no external resources referenced.
  EXPECT_NE(html.find("jacobi \\\"demo\\\""), std::string::npos);
  EXPECT_EQ(html.find("src=\"http"), std::string::npos);
  // One event tuple per trace event.
  std::size_t lanes_pos = html.find("\"lanes\":");
  ASSERT_NE(lanes_pos, std::string::npos);
}

TEST(Html, EventDataMatchesTrace) {
  trace::Trace t;
  auto ls = small_jacobi(t);
  std::string html = render_html(t, ls);
  // The events array has exactly num_events '[' entries between
  // "events": [ ... ].
  std::size_t start = html.find("\"events\":[");
  std::size_t end = html.find("],\"pal\"");
  ASSERT_NE(start, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  std::size_t count = 0;
  for (std::size_t pos = start; pos < end; ++pos)
    if (html[pos] == '[') ++count;
  EXPECT_EQ(count, static_cast<std::size_t>(t.num_events()) + 1);  // +array
}

TEST(Html, MetricColoringIncluded) {
  trace::Trace t;
  auto ls = small_jacobi(t);
  auto dd = metrics::differential_duration(t, ls);
  HtmlOptions opts;
  opts.metric.assign(dd.per_event.begin(), dd.per_event.end());
  opts.metric_name = "diff duration";
  std::string html = render_html(t, ls, opts);
  EXPECT_NE(html.find("diff duration"), std::string::npos);
}

TEST(Html, SaveWritesFile) {
  trace::Trace t;
  auto ls = small_jacobi(t);
  std::string path = ::testing::TempDir() + "/viewer_test.html";
  ASSERT_TRUE(save_html(t, ls, path));
  std::ifstream f(path);
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_GT(content.size(), 4000u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace logstruct::vis
