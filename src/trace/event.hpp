#pragma once

/// \file event.hpp
/// Plain-data records of the trace model.
///
/// Mirrors the information content of Charm++'s tracing framework after the
/// paper's §5 additions: entry-method executions (SerialBlock) with begin /
/// end times, message events (Send/Recv) with matching, chare + chare-array
/// identity on every application event, runtime-chare labeling, SDAG serial
/// numbering, and per-processor idle spans.

#include <string>
#include <vector>

#include "trace/ids.hpp"

namespace logstruct::trace {

enum class EventKind : std::uint8_t { Send, Recv };

/// Provenance of one control dependency (trace.hpp). Only Match and
/// Fanout rows are stored; Collective names the (send, recv) pairs that
/// Trace::for_each_dependency() generates from the collective groups.
enum class DepKind : std::uint8_t {
  Match = 0,       ///< point-to-point send/recv partner match
  Fanout = 1,      ///< additional receiver of a broadcast send
  Collective = 2,  ///< one (send, recv) pair of a collective
};

/// A dependency event: an instantaneous endpoint of a control dependency.
/// A Recv is the moment the runtime dequeues a message and begins the
/// corresponding entry method; a Send is a remote method invocation call.
struct Event {
  EventKind kind = EventKind::Send;
  TimeNs time = 0;
  ChareId chare = kNone;
  ProcId proc = kNone;
  BlockId block = kNone;  ///< owning serial block
  /// Recv: matching Send event (kNone if the dependency was not traced).
  /// Send: first matched Recv (kNone if unmatched); additional receivers of
  /// a broadcast live in Trace::fanout(). Collective members use kNone and
  /// are matched through Trace::collectives().
  EventId partner = kNone;
};

/// One uninterruptible entry-method execution ("serial block", §3.1.1).
/// Plain data so block columns can live out of core; the block's events
/// (in physical-time order) are served by Trace::events_of_block().
struct SerialBlock {
  ChareId chare = kNone;
  ProcId proc = kNone;
  EntryId entry = kNone;
  TimeNs begin = 0;
  TimeNs end = 0;
  EventId trigger = kNone;  ///< the Recv that awakened this block, if any
};

/// Entry-method metadata. SDAG `serial` sections carry their parse-order
/// number in sdag_serial; a serial guarded by `when e()` lists e in
/// when_entries (used by the absorption rule of §2.1).
struct EntryInfo {
  std::string name;
  bool runtime = false;
  std::int32_t sdag_serial = -1;
  std::vector<EntryId> when_entries;
};

struct ChareInfo {
  std::string name;
  ArrayId array = kNone;   ///< owning chare array, kNone for singletons
  std::int32_t index = -1; ///< flat index within the array
  ProcId home = kNone;     ///< PE the chare lived on (informative)
  bool runtime = false;    ///< runtime chare (e.g. CkReductionMgr)
};

struct ArrayInfo {
  std::string name;
  bool runtime = false;
};

/// A span of recorded scheduler idle time on one processor.
struct IdleSpan {
  ProcId proc = kNone;
  TimeNs begin = 0;
  TimeNs end = 0;
};

/// An abstracted collective operation (MPI model): every member posts one
/// Send on entry and one Recv on exit; each Recv depends on every Send.
struct Collective {
  std::vector<EventId> sends;
  std::vector<EventId> recvs;
};

}  // namespace logstruct::trace
