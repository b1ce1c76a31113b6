#pragma once

/// Randomized well-formed trace generators shared by the pipeline fuzz
/// tests, the causality property tests and the collective-group tests.
/// random_trace: random chares, placements, serial blocks, fan-outs,
/// untraced dependencies, and runtime chares; with `collectives`, also
/// hand-written collectives over those chares. random_collective_trace:
/// MPI-style ranks with point-to-point rounds and collectives. Per-PE
/// time is kept monotonic so blocks never overlap; point-to-point
/// receives always follow their send.

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace/builder.hpp"
#include "util/rng.hpp"

namespace logstruct::order::testing {

inline trace::Trace random_trace(std::uint64_t seed,
                                 bool collectives = false) {
  util::Rng rng(seed);
  const std::int32_t num_procs = 2 + static_cast<std::int32_t>(rng.uniform(4));
  const std::int32_t num_chares =
      num_procs + static_cast<std::int32_t>(rng.uniform(12));
  const std::int32_t num_runtime = static_cast<std::int32_t>(rng.uniform(3));
  const std::int32_t rounds = 2 + static_cast<std::int32_t>(rng.uniform(6));

  trace::TraceBuilder tb;
  trace::ArrayId arr = tb.add_array("fuzz");
  std::vector<trace::ChareId> chares;
  std::vector<trace::ProcId> home;
  for (std::int32_t i = 0; i < num_chares; ++i) {
    trace::ProcId p = static_cast<trace::ProcId>(rng.uniform(
        static_cast<std::uint64_t>(num_procs)));
    chares.push_back(tb.add_chare("c" + std::to_string(i), arr, i, p));
    home.push_back(p);
  }
  for (std::int32_t i = 0; i < num_runtime; ++i) {
    trace::ProcId p = static_cast<trace::ProcId>(rng.uniform(
        static_cast<std::uint64_t>(num_procs)));
    chares.push_back(tb.add_chare("rt" + std::to_string(i), trace::kNone,
                                  -1, p, /*runtime=*/true));
    home.push_back(p);
  }
  std::vector<trace::EntryId> entries;
  for (int i = 0; i < 4; ++i)
    entries.push_back(
        tb.add_entry("e" + std::to_string(i), /*runtime=*/i == 3));

  std::vector<trace::TimeNs> proc_clock(
      static_cast<std::size_t>(num_procs), 0);
  // Sends whose receive is still owed: (send event, destination chare,
  // send time) — the receive must not precede the send.
  struct InFlight {
    trace::EventId send;
    std::size_t dst;
    trace::TimeNs sent_at;
  };
  std::vector<InFlight> in_flight;

  // Open a block on c's processor no earlier than `after`.
  auto open_block = [&](std::size_t c, trace::TimeNs after) {
    trace::ProcId p = home[c];
    trace::TimeNs t =
        std::max(proc_clock[static_cast<std::size_t>(p)], after) + 1 +
        static_cast<trace::TimeNs>(rng.uniform(500));
    trace::EntryId e = entries[rng.uniform(entries.size())];
    trace::BlockId b = tb.begin_block(chares[c], p, e, t);
    return std::pair{b, t};
  };

  for (std::int32_t round = 0; round < rounds; ++round) {
    // Deliver some owed receives.
    std::size_t deliver = in_flight.size() / 2 + rng.uniform(2);
    for (std::size_t k = 0; k < deliver && !in_flight.empty(); ++k) {
      std::size_t pick = rng.uniform(in_flight.size());
      auto [send_ev, dst, sent_at] = in_flight[pick];
      in_flight.erase(in_flight.begin() +
                      static_cast<std::ptrdiff_t>(pick));
      auto [b, t0] = open_block(dst, sent_at);
      tb.add_recv(b, t0, send_ev);
      trace::TimeNs end = t0 + 1 + static_cast<trace::TimeNs>(
                                       rng.uniform(300));
      // Maybe respond with sends from this block.
      std::size_t extra = rng.uniform(3);
      trace::TimeNs et = t0;
      for (std::size_t s = 0; s < extra; ++s) {
        et += 1 + static_cast<trace::TimeNs>(rng.uniform(100));
        trace::EventId ev = tb.add_send(b, et);
        std::size_t target = rng.uniform(chares.size());
        in_flight.push_back({ev, target, et});
      }
      end = std::max(end, et + 1);
      tb.end_block(b, end);
      proc_clock[static_cast<std::size_t>(home[dst])] = end;
    }
    // Spawn some fresh source blocks.
    std::size_t fresh = 1 + rng.uniform(3);
    for (std::size_t k = 0; k < fresh; ++k) {
      std::size_t src = rng.uniform(chares.size());
      auto [b, t0] = open_block(src, 0);
      trace::TimeNs et = t0;
      // Occasionally an untraced trigger (missing-dependency shape).
      if (rng.uniform(4) == 0) tb.add_recv(b, t0, trace::kNone);
      std::size_t sends = 1 + rng.uniform(3);
      for (std::size_t s = 0; s < sends; ++s) {
        et += 1 + static_cast<trace::TimeNs>(rng.uniform(100));
        trace::EventId ev = tb.add_send(b, et);
        std::size_t target = rng.uniform(chares.size());
        in_flight.push_back({ev, target, et});
      }
      tb.end_block(b, et + 1);
      proc_clock[static_cast<std::size_t>(home[src])] = et + 1;
    }
    // Occasional idle records.
    if (rng.uniform(2)) {
      trace::ProcId p = static_cast<trace::ProcId>(
          rng.uniform(static_cast<std::uint64_t>(num_procs)));
      trace::TimeNs t0 = proc_clock[static_cast<std::size_t>(p)];
      trace::TimeNs len = 1 + static_cast<trace::TimeNs>(rng.uniform(400));
      tb.add_idle(p, t0, t0 + len);
      proc_clock[static_cast<std::size_t>(p)] = t0 + len;
    }
    // With p = 1/2 one collective: each chare sends with p = 2/3 in a
    // fresh block that half the time also receives one tick later, then
    // each chare receives with p = 2/3 in a later fresh block. At least
    // one chare sends and one receives.
    if (collectives && rng.uniform(2) == 0) {
      const trace::CollectiveId coll = tb.begin_collective();
      bool any = false;
      for (std::size_t c = 0; c < chares.size(); ++c) {
        if (rng.uniform(3) == 0 && (any || c + 1 < chares.size())) continue;
        any = true;
        auto [b, t0] = open_block(c, 0);
        tb.add_collective_send(coll, b, t0);
        if (rng.uniform(2)) tb.add_collective_recv(coll, b, t0 + 1);
        tb.end_block(b, t0 + 2);
        proc_clock[static_cast<std::size_t>(home[c])] = t0 + 2;
      }
      any = false;
      for (std::size_t c = 0; c < chares.size(); ++c) {
        if (rng.uniform(3) == 0 && (any || c + 1 < chares.size())) continue;
        any = true;
        auto [b, t0] = open_block(c, 0);
        tb.add_collective_recv(coll, b, t0);
        tb.end_block(b, t0 + 1);
        proc_clock[static_cast<std::size_t>(home[c])] = t0 + 1;
      }
    }
  }
  // Drain every in-flight message so all sends are matched.
  while (!in_flight.empty()) {
    auto [send_ev, dst, sent_at] = in_flight.back();
    in_flight.pop_back();
    auto [b, t0] = open_block(dst, sent_at);
    tb.add_recv(b, t0, send_ev);
    tb.end_block(b, t0 + 1);
    proc_clock[static_cast<std::size_t>(home[dst])] = t0 + 1;
  }
  return tb.finish(num_procs);
}

/// One chare per rank, MPI style: `min_ranks` plus up to `extra_ranks`
/// ranks. Each round every rank sends `msgs` messages to random peers,
/// then joins a collective: a random subset sends in one block,
/// another random subset receives in a later block. Send and recv times
/// interleave across ranks, so some collective latencies are negative
/// (clamped to zero by the transfer-wait kernel).
inline trace::Trace random_collective_trace(std::uint64_t seed,
                                           std::int32_t min_ranks,
                                           std::int32_t extra_ranks,
                                           std::int32_t msgs) {
  util::Rng rng(seed);
  const auto ranks = static_cast<std::int32_t>(
      min_ranks + static_cast<std::int32_t>(rng.uniform(
                      static_cast<std::uint64_t>(extra_ranks) + 1)));
  trace::TraceBuilder tb;
  const trace::EntryId work = tb.add_entry("work");
  const trace::EntryId coll_entry = tb.add_entry("MPI_Allreduce");
  std::vector<trace::ChareId> chare;
  for (std::int32_t r = 0; r < ranks; ++r)
    chare.push_back(tb.add_chare("rank" + std::to_string(r)));
  std::vector<trace::TimeNs> clock(static_cast<std::size_t>(ranks), 0);
  auto open_block = [&](std::int32_t r, trace::EntryId e) {
    auto& c = clock[static_cast<std::size_t>(r)];
    c += 1 + static_cast<trace::TimeNs>(rng.uniform(40));
    return tb.begin_block(chare[static_cast<std::size_t>(r)], r, e, c);
  };
  auto close_block = [&](std::int32_t r, trace::BlockId b) {
    auto& c = clock[static_cast<std::size_t>(r)];
    c += 1 + static_cast<trace::TimeNs>(rng.uniform(10));
    tb.end_block(b, c);
  };
  auto pick = [&](std::int32_t n) {
    return static_cast<std::int32_t>(
        rng.uniform(static_cast<std::uint64_t>(n)));
  };

  struct Mail {
    std::int32_t dst;
    trace::EventId send;
    trace::TimeNs sent_at;
  };
  for (int round = 0; round < 4; ++round) {
    std::vector<Mail> mail;
    for (std::int32_t r = 0; r < ranks; ++r) {
      const trace::BlockId b = open_block(r, work);
      for (std::int32_t m = 0; m < msgs; ++m) {
        const trace::TimeNs t = clock[static_cast<std::size_t>(r)] + m;
        mail.push_back({pick(ranks), tb.add_send(b, t), t});
      }
      close_block(r, b);
    }
    for (const Mail& m : mail) {
      const trace::BlockId b = open_block(m.dst, work);
      auto& c = clock[static_cast<std::size_t>(m.dst)];
      c = std::max(c, m.sent_at + 1);
      tb.add_recv(b, c, m.send);
      close_block(m.dst, b);
    }
    const trace::CollectiveId coll = tb.begin_collective();
    bool any = false;
    for (std::int32_t r = 0; r < ranks; ++r) {
      if (rng.uniform(3) == 0 && (any || r + 1 < ranks)) continue;
      any = true;
      const trace::BlockId b = open_block(r, coll_entry);
      tb.add_collective_send(coll, b, clock[static_cast<std::size_t>(r)]);
      close_block(r, b);
    }
    any = false;
    for (std::int32_t r = 0; r < ranks; ++r) {
      if (rng.uniform(3) == 0 && (any || r + 1 < ranks)) continue;
      any = true;
      const trace::BlockId b = open_block(r, coll_entry);
      tb.add_collective_recv(coll, b, clock[static_cast<std::size_t>(r)]);
      close_block(r, b);
    }
  }
  return tb.finish(ranks);
}

}  // namespace logstruct::order::testing
