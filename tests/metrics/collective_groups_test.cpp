/// The metric layer reads each MPI collective as one group (its sends
/// and recvs lists) instead of walking its sends x recvs pairs. These
/// property tests rebuild every quantity the groups shortcut —
/// IncomingDeps sender lists and binding senders, per-window message
/// counts and transfer wait — by brute force over every dependency pair
/// (Trace::for_each_dependency), on random traces whose collective sends
/// and recvs sit in different serial blocks, under both storage backends.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "random_trace.hpp"
#include "metrics/depview.hpp"
#include "metrics/efficiency.hpp"
#include "metrics/windows.hpp"
#include "trace/builder.hpp"
#include "trace/io.hpp"
#include "trace/storage/options.hpp"

namespace logstruct::metrics {
namespace {

/// The same trace plus one hand-written collective whose recvs already
/// have senders — a point-to-point recv listed once, another listed
/// twice, and a recv of another collective — and whose send list is
/// unsorted with a repeat. Only the text format can express such
/// membership; it drives IncomingDeps' copy path.
trace::Trace with_mixed_collective(const trace::Trace& t) {
  std::ostringstream out;
  trace::write_trace(t, out);
  std::string text = out.str();
  std::vector<trace::EventId> p2p_recvs;
  for (trace::EventId e = 0; e < t.num_events(); ++e)
    if (t.event(e).kind == trace::EventKind::Recv &&
        t.event(e).partner != trace::kNone)
      p2p_recvs.push_back(e);
  const trace::Collective& first = t.collectives().front();
  const trace::EventId s0 = first.sends.front();
  const trace::EventId s1 = t.collectives().back().sends.back();
  std::ostringstream coll;
  coll << "coll 3 " << s1 << ' ' << s0 << ' ' << s1 << " 4 "
       << p2p_recvs.front() << ' ' << first.recvs.front() << ' '
       << p2p_recvs.back() << ' ' << p2p_recvs.front() << '\n';
  const std::size_t end = text.rfind("end\n");
  text.insert(end, coll.str());
  std::istringstream in(text);
  return trace::read_trace(in);
}

/// Senders of every event, one per dependency pair, in pair order.
std::vector<std::vector<trace::EventId>> brute_senders(const trace::Trace& t) {
  std::vector<std::vector<trace::EventId>> out(
      static_cast<std::size_t>(t.num_events()));
  t.for_each_dependency([&](trace::EventId s, trace::EventId r) {
    out[static_cast<std::size_t>(r)].push_back(s);
  });
  return out;
}

void expect_groups_match_rows(const trace::Trace& t) {
  ASSERT_FALSE(t.collectives().empty());
  const auto rows = brute_senders(t);

  // Collectives are stored only as groups: no column row is one.
  for (const trace::DepKind kind : t.dep_kinds())
    EXPECT_NE(kind, trace::DepKind::Collective);

  const IncomingDeps deps(t);
  for (trace::EventId e = 0; e < t.num_events(); ++e) {
    const auto got = deps.senders(e);
    const auto& want = rows[static_cast<std::size_t>(e)];
    ASSERT_EQ(std::vector<trace::EventId>(got.begin(), got.end()), want)
        << "event " << e;
    trace::EventId binding = trace::kNone;
    for (trace::EventId s : want)
      if (binding == trace::kNone || t.event_time(s) > t.event_time(binding))
        binding = s;
    EXPECT_EQ(deps.binding_sender(t, e), binding) << "event " << e;
  }

  for (const std::int32_t bins : {1, 3, 7}) {
    const WindowSet windows = WindowSet::time_bins(t, bins);
    const WindowLoads loads = compute_window_loads(t, windows, 1);
    std::vector<std::int64_t> messages(static_cast<std::size_t>(bins), 0);
    std::vector<trace::TimeNs> wait(static_cast<std::size_t>(bins), 0);
    t.for_each_dependency([&](trace::EventId s, trace::EventId r) {
      const auto w = static_cast<std::size_t>(windows.window_of(r));
      ++messages[w];
      wait[w] += std::max<trace::TimeNs>(0, t.event_time(r) - t.event_time(s));
    });
    EXPECT_EQ(loads.messages, messages) << bins << " bins";
    EXPECT_EQ(loads.transfer_wait, wait) << bins << " bins";
  }
}

TEST(CollectiveGroups, MatchDependencyRowsOnMem) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE(seed);
    const trace::Trace t =
        order::testing::random_collective_trace(seed, 2, 6, 1);
    expect_groups_match_rows(t);
    expect_groups_match_rows(with_mixed_collective(t));
  }
}

/// 4 KiB storage blocks split the point-to-point dependency columns
/// across several blocks.
TEST(CollectiveGroups, MatchDependencyRowsOnBlocked) {
  trace::storage::StorageOptions opts = trace::storage::default_options();
  opts.kind = trace::storage::BackendKind::Blocked;
  opts.block_bytes = 4096;
  opts.cache_bytes = 64u << 10;
  const trace::storage::ScopedStorageOptions scope(opts);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    const trace::Trace t =
        order::testing::random_collective_trace(seed, 24, 16, 12);
    ASSERT_EQ(t.storage_backend(), trace::storage::BackendKind::Blocked);
    ASSERT_GT(t.dep_sends().size(), 4096 / sizeof(trace::EventId));
    expect_groups_match_rows(t);
    expect_groups_match_rows(with_mixed_collective(t));
  }
}

}  // namespace
}  // namespace logstruct::metrics
