#include "trace/storage/blocked_trace.hpp"

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <stdexcept>

#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "trace/repair.hpp"
#include "trace/storage/options.hpp"

namespace logstruct::trace::storage {

namespace {

// ------------------------------------------------- metadata blob codec

class ByteWriter {
 public:
  void raw(const void* data, std::size_t bytes) {
    out_.append(static_cast<const char*>(data), bytes);
  }
  void u8(std::uint8_t v) { raw(&v, 1); }
  void i32(std::int32_t v) { raw(&v, 4); }
  void i64(std::int64_t v) { raw(&v, 8); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(v.size());
    raw(v.data(), v.size() * sizeof(T));
  }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::string& blob)
      : p_(blob.data()), end_(blob.data() + blob.size()) {}
  void raw(void* data, std::size_t bytes) {
    if (bytes == 0) return;  // an empty vector's data() may be null
    if (static_cast<std::size_t>(end_ - p_) < bytes)
      throw std::runtime_error("lsblk: truncated trace metadata");
    std::memcpy(data, p_, bytes);
    p_ += bytes;
  }
  std::uint8_t u8() {
    std::uint8_t v;
    raw(&v, 1);
    return v;
  }
  std::int32_t i32() {
    std::int32_t v;
    raw(&v, 4);
    return v;
  }
  std::int64_t i64() {
    std::int64_t v;
    raw(&v, 8);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    raw(&v, 8);
    return v;
  }
  std::string str() {
    const std::uint64_t n = len();
    std::string s(n, '\0');
    raw(s.data(), n);
    return s;
  }
  template <typename T>
  std::vector<T> vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = len();
    std::vector<T> v(n);
    raw(v.data(), n * sizeof(T));
    return v;
  }

 private:
  std::uint64_t len() {
    const std::uint64_t n = u64();
    if (n > static_cast<std::uint64_t>(end_ - p_))
      throw std::runtime_error("lsblk: truncated trace metadata");
    return n;
  }
  const char* p_;
  const char* end_;
};

constexpr std::uint32_t kMetaVersion = 1;

// ---------------------------------------------------- column streaming

template <typename T>
void append_column(BlockStoreWriter& writer, ColumnId col,
                   const ColumnView<T>& view) {
  writer.set_elem_bytes(col, sizeof(T));
  view.for_each_chunk([&](const T* chunk, std::size_t n, std::size_t) {
    writer.append(col, chunk, n * sizeof(T));
  });
}

std::string make_spill_path(const StorageOptions& opts) {
  static std::atomic<std::uint64_t> counter{0};
  return resolve_spill_dir(opts) + "/lsblk-" + std::to_string(::getpid()) +
         "-" + std::to_string(counter.fetch_add(1)) + ".tmp";
}

}  // namespace

std::string serialize_trace_metadata(const Trace& trace) {
  ByteWriter w;
  w.i32(static_cast<std::int32_t>(kMetaVersion));
  w.i32(trace.num_procs_);
  w.i64(trace.end_time_);
  w.vec(trace.idle_total_);
  w.vec(trace.degraded_chare_);
  w.u64(trace.chares_.size());
  for (const ChareInfo& c : trace.chares_) {
    w.str(c.name);
    w.i32(c.array);
    w.i32(c.index);
    w.i32(c.home);
    w.u8(c.runtime ? 1 : 0);
  }
  w.u64(trace.arrays_.size());
  for (const ArrayInfo& a : trace.arrays_) {
    w.str(a.name);
    w.u8(a.runtime ? 1 : 0);
  }
  w.u64(trace.entries_.size());
  for (const EntryInfo& e : trace.entries_) {
    w.str(e.name);
    w.u8(e.runtime ? 1 : 0);
    w.i32(e.sdag_serial);
    w.vec(e.when_entries);
  }
  w.u64(trace.collectives_.size());
  for (const Collective& c : trace.collectives_) {
    w.vec(c.sends);
    w.vec(c.recvs);
  }
  w.vec(trace.chare_blocks_begin_);
  w.vec(trace.proc_blocks_begin_);
  w.vec(trace.chare_events_begin_);
  return w.take();
}

void deserialize_trace_metadata(const std::string& blob, Trace& trace) {
  ByteReader r(blob);
  if (r.i32() != static_cast<std::int32_t>(kMetaVersion))
    throw std::runtime_error("lsblk: unsupported trace metadata version");
  trace.num_procs_ = r.i32();
  trace.end_time_ = r.i64();
  trace.idle_total_ = r.vec<TimeNs>();
  trace.degraded_chare_ = r.vec<std::uint8_t>();
  trace.chares_.resize(r.u64());
  for (ChareInfo& c : trace.chares_) {
    c.name = r.str();
    c.array = r.i32();
    c.index = r.i32();
    c.home = r.i32();
    c.runtime = r.u8() != 0;
  }
  trace.arrays_.resize(r.u64());
  for (ArrayInfo& a : trace.arrays_) {
    a.name = r.str();
    a.runtime = r.u8() != 0;
  }
  trace.entries_.resize(r.u64());
  for (EntryInfo& e : trace.entries_) {
    e.name = r.str();
    e.runtime = r.u8() != 0;
    e.sdag_serial = r.i32();
    e.when_entries = r.vec<EntryId>();
  }
  trace.collectives_.resize(r.u64());
  for (Collective& c : trace.collectives_) {
    c.sends = r.vec<EventId>();
    c.recvs = r.vec<EventId>();
  }
  trace.chare_blocks_begin_ = r.vec<std::int64_t>();
  trace.proc_blocks_begin_ = r.vec<std::int64_t>();
  trace.chare_events_begin_ = r.vec<std::int64_t>();
}

void freeze_blocked(Trace& trace, int threads) {
  OBS_SPAN(span, "trace/freeze_blocked");
  span.attr("events", static_cast<std::int64_t>(trace.events_.size()));
  const StorageOptions opts = default_options();
  const std::string path = make_spill_path(opts);

  // Three stages, one tick each: derive every column in RAM with the mem
  // freeze, stream them into the spill container, serve the trace from
  // it. One freeze for both backends keeps them bit-identical by
  // construction.
  obs::Progress progress("trace/freeze_blocked", 3);
  trace.freeze_mem(threads);
  obs::Progress::tick();

  auto data = std::make_shared<BlockedTraceData>();
  try {
    write_blocked_file(trace, path, opts.block_bytes);
    obs::Progress::tick();
    data->store = std::make_unique<BlockStore>(path);
  } catch (...) {
    ::unlink(path.c_str());  // a failed freeze leaves no spill file behind
    throw;
  }
  data->store->unlink_backing_file();  // spill store: fd keeps it alive
  data->bind_columns();
  trace.blocked_ = std::move(data);
  obs::Progress::tick();

  // Release the staging and derived vectors; the store serves them now.
  trace.events_ = {};
  trace.blocks_ = {};
  trace.idles_ = {};
  trace.chare_blocks_ = {};
  trace.proc_blocks_ = {};
  trace.chare_events_ = {};
  trace.block_events_ = {};
  trace.block_ev_begin_ = {};
  trace.dep_send_ = {};
  trace.dep_recv_ = {};
  trace.dep_kind_ = {};
  trace.dep_begin_ = {};
}

Trace open_blocked_trace(const std::string& path) {
  // Reading the process defaults applies the LOGSTRUCT_CACHE_MB budget on
  // first use; a process that only opens .lsblk files never freezes, so
  // nothing else would. An earlier set_default_options() stays in force.
  (void)default_options();
  Trace trace;
  auto data = std::make_shared<BlockedTraceData>();
  data->store = std::make_unique<BlockStore>(path);
  deserialize_trace_metadata(data->store->metadata(), trace);
  data->bind_columns();

  // Checksums prove the bytes are what the writer committed, not that the
  // metadata tables and the columns agree; refuse a file where they do not.
  const auto csr_fits = [](const std::vector<std::int64_t>& begin,
                           std::size_t groups, std::size_t rows) {
    return begin.size() == groups + 1 &&
           begin.back() == static_cast<std::int64_t>(rows);
  };
  const std::size_t chares = trace.chares_.size();
  const std::size_t events = data->events.size();
  bool shape_ok =
      trace.num_procs_ >= 0 &&
      csr_fits(trace.chare_blocks_begin_, chares, data->chare_blocks.size()) &&
      csr_fits(trace.chare_events_begin_, chares, data->chare_events.size()) &&
      csr_fits(trace.proc_blocks_begin_,
               static_cast<std::size_t>(trace.num_procs_),
               data->proc_blocks.size()) &&
      data->block_ev_begin.size() == data->blocks.size() + 1 &&
      data->dep_begin.size() == events + 1;
  if (shape_ok) {
    // The dependency columns hold exactly the point-to-point rows.
    const auto rows = static_cast<std::size_t>(data->dep_begin.get(events));
    shape_ok = data->dep_send.size() == rows &&
               data->dep_recv.size() == rows && data->dep_kind.size() == rows;
  }
  if (!shape_ok)
    throw StorageError(DiagCode::BadHeader,
                       "lsblk: open '" + path +
                           "': metadata/column shape mismatch");
  trace.blocked_ = std::move(data);
  return trace;
}

namespace {

/// Visit every element of `col` that lives in a non-quarantined block,
/// as (global element index, element). Blocks lost to quarantine leave
/// index gaps — exactly the shape trace::repair() was built to close.
template <typename T, typename Fn>
void for_each_surviving(const BlockStore& store, ColumnId col,
                        RecoveryReport& report, Fn&& fn) {
  const std::uint32_t elem = store.column_elem_bytes(col);
  if (elem == 0 || store.column_bytes(col) == 0) return;
  if (elem != sizeof(T)) {
    report.add(DiagCode::BadHeader, Severity::Error,
               "lsblk: column " +
                   std::to_string(static_cast<std::uint32_t>(col)) +
                   " element size mismatch; column dropped");
    return;
  }
  const std::size_t elems_per_block = store.column_payload(col) / elem;
  std::vector<char> scratch(store.block_bytes());
  const std::uint32_t blocks = store.num_blocks(col);
  for (std::uint32_t b = 0; b < blocks; ++b) {
    if (store.is_quarantined(col, b)) continue;
    const std::uint32_t size = store.block_size(col, b);
    try {
      store.read_block(col, b, scratch.data());
    } catch (const StorageError&) {
      continue;  // rot the scan missed; already the scan's diagnostic
    }
    const std::size_t base = std::size_t{b} * elems_per_block;
    const T* p = reinterpret_cast<const T*>(scratch.data());
    for (std::uint32_t i = 0; i * elem < size; ++i) fn(base + i, p[i]);
  }
}

}  // namespace

Trace open_blocked_trace(const std::string& path,
                         const StorageOptions& options,
                         RecoveryReport& report, int threads) {
  if (!options.recover) return open_blocked_trace(path);
  OBS_SPAN(span, "trace/open_blocked_recovering");

  auto store =
      std::make_unique<BlockStore>(path, OpenOptions::recovering(&report));
  if (!store->salvageable()) return Trace{};  // Fatal already recorded
  store->scan_blocks(&report);

  // The metadata blob holds the chare / entry / collective tables; a
  // trace cannot be rebuilt without them. (Under a valid footer the blob
  // is checksummed, so this only fires on a torn tail.)
  Trace meta;
  try {
    deserialize_trace_metadata(store->metadata(), meta);
  } catch (const std::exception& e) {
    report.add({DiagCode::ContainerTruncated, Severity::Fatal, -1, -1,
                std::string("trace metadata unusable: ") + e.what()});
    return Trace{};
  }

  if (report.ok() && store->num_quarantined() == 0) {
    // Fully intact: serve straight from the container, strict-style.
    try {
      store.reset();
      return open_blocked_trace(path);
    } catch (const std::exception& e) {
      report.add({DiagCode::BadHeader, Severity::Error, -1, -1,
                  std::string("strict re-open failed: ") + e.what()});
      store = std::make_unique<BlockStore>(
          path, OpenOptions::recovering(&report));
      if (!store->salvageable()) return Trace{};
      store->scan_blocks(&report);
    }
  }

  // Salvage: primary columns only. Derived columns (dependency table,
  // CSR groupings) are recomputed by the freeze inside build_trace(), so
  // damage there costs nothing; damage to the primaries surfaces as id
  // gaps that repair() closes with full provenance.
  RawTrace raw;
  raw.num_procs = meta.num_procs();
  std::int64_t next_id = 0;
  for (const ChareInfo& c : meta.chares()) raw.chares.push_back({next_id++, c});
  next_id = 0;
  for (const ArrayInfo& a : meta.arrays()) raw.arrays.push_back({next_id++, a});
  next_id = 0;
  for (const EntryInfo& e : meta.entries())
    raw.entries.push_back({next_id++, e});
  for (const Collective& c : meta.collectives()) {
    RawCollective rc;
    rc.sends.assign(c.sends.begin(), c.sends.end());
    rc.recvs.assign(c.recvs.begin(), c.recvs.end());
    raw.collectives.push_back(std::move(rc));
  }
  for (ChareId c = 0; c < meta.num_chares(); ++c)
    if (meta.is_degraded_chare(c)) raw.degraded_chares.push_back(c);

  for_each_surviving<Event>(
      *store, ColumnId::Events, report,
      [&](std::size_t id, const Event& e) {
        raw.events.push_back({static_cast<std::int64_t>(id), e.kind, e.time,
                              e.block, e.partner});
      });
  for_each_surviving<SerialBlock>(
      *store, ColumnId::Blocks, report,
      [&](std::size_t id, const SerialBlock& b) {
        raw.blocks.push_back({static_cast<std::int64_t>(id), b.chare, b.proc,
                              b.entry, b.begin, b.end, true});
      });
  for_each_surviving<IdleSpan>(
      *store, ColumnId::Idles, report,
      [&](std::size_t, const IdleSpan& s) { raw.idles.push_back(s); });
  store.reset();

  repair(raw, report);
  return build_trace(std::move(raw), threads);
}

void write_blocked_file(const Trace& trace, const std::string& path,
                        std::uint32_t block_bytes) {
  OBS_SPAN(span, "trace/write_blocked_file");
  BlockStoreWriter writer(path, block_bytes);
  append_column(writer, ColumnId::Events, trace.events());
  append_column(writer, ColumnId::Blocks, trace.blocks());
  append_column(writer, ColumnId::Idles, trace.idles());
  append_column(writer, ColumnId::DepSend, trace.dep_sends());
  append_column(writer, ColumnId::DepRecv, trace.dep_recvs());
  append_column(writer, ColumnId::DepKind, trace.dep_kinds());

  // The derived columns without a public whole-column accessor, from
  // whichever backend holds them.
  const BlockedTraceData* b = trace.blocked_.get();
  const auto view = [b]<typename T>(BlockedColumn<T> BlockedTraceData::*col,
                                    const std::vector<T>& mem) {
    return b ? ColumnView<T>(&(b->*col))
             : ColumnView<T>(mem.data(), mem.size());
  };
  append_column(writer, ColumnId::DepBegin,
                view(&BlockedTraceData::dep_begin, trace.dep_begin_));
  append_column(writer, ColumnId::BlockEvents,
                view(&BlockedTraceData::block_events, trace.block_events_));
  append_column(
      writer, ColumnId::BlockEvBegin,
      view(&BlockedTraceData::block_ev_begin, trace.block_ev_begin_));
  append_column(writer, ColumnId::ChareEvents,
                view(&BlockedTraceData::chare_events, trace.chare_events_));
  append_column(writer, ColumnId::ChareBlocks,
                view(&BlockedTraceData::chare_blocks, trace.chare_blocks_));
  append_column(writer, ColumnId::ProcBlocks,
                view(&BlockedTraceData::proc_blocks, trace.proc_blocks_));
  writer.finish(serialize_trace_metadata(trace));
}

namespace {

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void i32(std::int32_t v) {
    u64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
  }
  void str(const std::string& s) {
    u64(s.size());
    for (char c : s) byte(static_cast<std::uint8_t>(c));
  }
};

}  // namespace

std::uint64_t trace_structure_hash(const Trace& trace) {
  Fnv1a h;
  h.i32(trace.num_procs());
  h.i32(trace.num_events());
  h.i32(trace.num_blocks());
  h.i32(trace.num_chares());
  h.i64(trace.num_dependencies());
  h.i64(trace.end_time());

  for (const Event& e : trace.events()) {
    h.byte(static_cast<std::uint8_t>(e.kind));
    h.i64(e.time);
    h.i32(e.chare);
    h.i32(e.proc);
    h.i32(e.block);
    h.i32(e.partner);
  }
  for (const SerialBlock& b : trace.blocks()) {
    h.i32(b.chare);
    h.i32(b.proc);
    h.i32(b.entry);
    h.i64(b.begin);
    h.i64(b.end);
    h.i32(b.trigger);
  }
  for (const IdleSpan& s : trace.idles()) {
    h.i32(s.proc);
    h.i64(s.begin);
    h.i64(s.end);
  }
  // Every dependency pair, column by column: all sends, all recvs, all
  // kinds. Collective pairs come from the groups and hash as the
  // Collective kind.
  trace.for_each_dependency([&](EventId s, EventId) { h.i32(s); });
  trace.for_each_dependency([&](EventId, EventId r) { h.i32(r); });
  trace.dep_kinds().for_each_chunk(
      [&](const DepKind* p, std::size_t n, std::size_t) {
        for (std::size_t i = 0; i < n; ++i)
          h.byte(static_cast<std::uint8_t>(p[i]));
      });
  const auto rows = static_cast<std::int64_t>(trace.dep_kinds().size());
  for (std::int64_t i = rows; i < trace.num_dependencies(); ++i)
    h.byte(static_cast<std::uint8_t>(DepKind::Collective));
  for (BlockId b = 0; b < trace.num_blocks(); ++b) {
    const auto span = trace.events_of_block(b);
    h.u64(span.size());
    for (EventId e : span) h.i32(e);
  }
  for (ChareId c = 0; c < trace.num_chares(); ++c) {
    const auto events = trace.events_of_chare(c);
    h.u64(events.size());
    for (EventId e : events) h.i32(e);
    const auto blocks = trace.blocks_of_chare(c);
    h.u64(blocks.size());
    for (BlockId b : blocks) h.i32(b);
  }
  for (ProcId p = 0; p < trace.num_procs(); ++p) {
    const auto blocks = trace.blocks_of_proc(p);
    h.u64(blocks.size());
    for (BlockId b : blocks) h.i32(b);
    h.i64(trace.total_idle(p));
  }
  for (const ChareInfo& c : trace.chares()) {
    h.str(c.name);
    h.i32(c.array);
    h.i32(c.index);
    h.i32(c.home);
    h.byte(c.runtime ? 1 : 0);
  }
  for (const ArrayInfo& a : trace.arrays()) {
    h.str(a.name);
    h.byte(a.runtime ? 1 : 0);
  }
  for (const EntryInfo& e : trace.entries()) {
    h.str(e.name);
    h.byte(e.runtime ? 1 : 0);
    h.i32(e.sdag_serial);
    h.u64(e.when_entries.size());
    for (EntryId w : e.when_entries) h.i32(w);
  }
  for (const Collective& c : trace.collectives()) {
    h.u64(c.sends.size());
    for (EventId s : c.sends) h.i32(s);
    h.u64(c.recvs.size());
    for (EventId r : c.recvs) h.i32(r);
  }
  h.i32(trace.num_degraded_chares());
  for (ChareId c = 0; c < trace.num_chares(); ++c)
    if (trace.is_degraded_chare(c)) h.i32(c);
  return h.h;
}

}  // namespace logstruct::trace::storage
