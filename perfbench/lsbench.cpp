/// \file lsbench.cpp
/// End-to-end benchmark program: trace file -> logical structure + metrics.
///
/// Two subcommands, run as separate processes by perfbench/run.py so the
/// analysis high-water RSS never includes set-up:
///
///   lsbench setup   --workload=W --seed=N --dir=D --reps=K [--toy]
///       Generate the workload's input files K times (simulate, write
///       .lstrace, and for lulesh-blocked also write .lsblk) and time
///       each round. For lulesh-blocked, also compute once, untimed, the
///       digest of a mem-backend analysis of the same trace: the oracle
///       the blocked analyses must match. Prints one JSON line.
///
///   lsbench analyze --workload=W --seed=N --dir=D --seconds=T --trace=0|1
///                   [--toy] [--expect=HEX] [--spans=PATH] [--force=X]
///       Repeat the analysis a user runs (open file -> trace::validate ->
///       order::extract_structure -> metric suite) for about T seconds,
///       check every result outside the timed region, and print one JSON
///       line. --trace=1 alternates plain analyses with traced ones whose
///       spans and count deltas are taken around each public call, and
///       writes the spans to --spans at exit.
///
/// perfbench/README.md documents the metrics and workloads.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/lassen.hpp"
#include "apps/lulesh.hpp"
#include "metrics/concurrency.hpp"
#include "metrics/critical_path.hpp"
#include "metrics/duration.hpp"
#include "metrics/efficiency.hpp"
#include "metrics/idle.hpp"
#include "metrics/imbalance.hpp"
#include "metrics/lateness.hpp"
#include "metrics/windows.hpp"
#include "obs/memstats.hpp"
#include "obs/pipeline.hpp"
#include "obs/registry.hpp"
#include "order/context.hpp"
#include "order/phases.hpp"
#include "order/stepping.hpp"
#include "order/validate.hpp"
#include "trace/io.hpp"
#include "trace/storage/block_cache.hpp"
#include "trace/storage/blocked_trace.hpp"
#include "trace/storage/options.hpp"
#include "trace/validate.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace ls = logstruct;
namespace storage = logstruct::trace::storage;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t ns_since(Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "lsbench: %s\n", msg.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  bool blocked = false;  ///< analysis opens .lsblk through the block cache
  bool mpi = false;      ///< LASSEN MPI skeleton, Options::mpi()
  std::int32_t grid = 0;
  std::int32_t iterations = 0;
  std::uint32_t block_bytes = 256u << 10;
  std::uint64_t cache_bytes = 0;  ///< block-cache budget (blocked only)
};

Workload make_workload(const std::string& name, bool toy) {
  Workload w;
  w.name = name;
  if (name == "lulesh-mem") {
    w.grid = toy ? 3 : 10;
    w.iterations = toy ? 4 : 40;
  } else if (name == "lulesh-blocked") {
    w.blocked = true;
    w.grid = toy ? 3 : 10;
    w.iterations = toy ? 4 : 12;
    // Toy size keeps the same shape of regime: a container many times
    // the budget, so the cache must evict.
    w.block_bytes = toy ? (16u << 10) : (256u << 10);
    w.cache_bytes = toy ? (128ull << 10) : (8ull << 20);
  } else if (name == "lassen-mpi") {
    w.mpi = true;
    w.grid = toy ? 4 : 32;
    w.iterations = toy ? 4 : 20;
  } else {
    die("unknown workload '" + name +
        "' (lulesh-mem | lulesh-blocked | lassen-mpi)");
  }
  return w;
}

ls::order::Options options_of(const Workload& w) {
  ls::order::Options o = w.mpi ? ls::order::Options::mpi()
                               : ls::order::Options::charm();
  o.threads = 1;
  o.step.threads = 1;
  return o;
}

ls::trace::Trace simulate(const Workload& w, std::uint64_t seed) {
  if (w.mpi) {
    ls::apps::LassenConfig cfg;
    cfg.chares_x = cfg.chares_y = w.grid;
    cfg.iterations = w.iterations;
    cfg.seed = seed;
    return ls::apps::run_lassen_mpi(cfg);
  }
  ls::apps::LuleshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = w.grid;
  cfg.num_pes = 8;
  cfg.iterations = w.iterations;
  cfg.seed = seed;
  return ls::apps::run_lulesh_charm(cfg);
}

/// Process storage defaults: mem freezing for everything the benchmark
/// builds, spill files inside the work directory, and the workload's
/// block-cache budget set explicitly. open_blocked_trace(path) never
/// consults the environment (LOGSTRUCT_CACHE_MB), so without this call a
/// process that only opens .lsblk files runs with whatever budget the
/// cache happens to hold.
void pin_storage(const Workload& w, const std::string& dir,
                 storage::BackendKind kind) {
  storage::StorageOptions o;
  o.kind = kind;
  o.cache_bytes = w.cache_bytes;
  o.dir = dir;
  storage::set_default_options(o);
}

std::string lstrace_path(const std::string& dir) {
  return dir + "/input.lstrace";
}
std::string lsblk_path(const std::string& dir) {
  return dir + "/input.lsblk";
}

// ---------------------------------------------------------------------------
// Digest of an analysis result: the logical structure (phase and global
// step of every event) and every metric output.

struct Digest {
  std::uint64_t h = 0x6a09e667f3bcc908ull;
  void word(std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 32;
  }
  void real(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    word(bits);
  }
  template <class T>
  void seq(const std::vector<T>& v) {
    word(v.size());
    for (const T& x : v) {
      if constexpr (std::is_floating_point_v<T>)
        real(x);
      else
        word(static_cast<std::uint64_t>(x));
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

struct MetricSuite {
  ls::metrics::IdleExperienced idle;
  ls::metrics::DifferentialDuration diffdur;
  ls::metrics::Imbalance imbalance;
  ls::metrics::Lateness lateness;
  ls::metrics::CriticalPath critical;
  ls::metrics::EfficiencySuite efficiency;
  ls::metrics::ConcurrencyReport concurrency;
  std::int32_t windows = 0;
};

std::string digest_of(const ls::order::LogicalStructure& s,
                      const MetricSuite& m) {
  Digest d;
  d.word(static_cast<std::uint64_t>(s.num_phases()));
  d.seq(s.phases.phase_of_event);
  d.seq(s.global_step);
  d.seq(m.idle.per_event);
  d.seq(m.diffdur.per_event);
  d.seq(m.imbalance.per_event);
  d.seq(m.lateness.per_event);
  d.seq(m.lateness.caused_by_chare);
  d.seq(m.critical.events);
  d.word(static_cast<std::uint64_t>(m.critical.length_ns));
  d.seq(m.efficiency.loads.ideal_span);
  d.seq(m.efficiency.parallel.per_window);
  d.seq(m.efficiency.balance.per_window);
  d.seq(m.efficiency.communication.per_window);
  for (const auto& c : m.concurrency.per_window) {
    d.word(static_cast<std::uint64_t>(c.unordered_pairs));
    d.word(static_cast<std::uint64_t>(c.commuting_pairs));
  }
  d.word(static_cast<std::uint64_t>(m.concurrency.phase_pairs_unordered));
  d.word(static_cast<std::uint64_t>(m.concurrency.phase_pairs_commuting));
  return d.hex();
}

// ---------------------------------------------------------------------------
// Benchmark-side tracing: spans around the calls into each module's
// public functions, with block-cache, allocation and I/O-retry deltas
// taken at the same boundaries. Spans stay in memory until exit.

struct Counts {
  std::int64_t hits = 0, misses = 0, evictions = 0, io_retries = 0;
  std::int64_t alloc_bytes = 0;
};

Counts read_counts() {
  const storage::BlockCache::Stats s = storage::BlockCache::global().stats();
  Counts c;
  c.hits = static_cast<std::int64_t>(s.hits);
  c.misses = static_cast<std::int64_t>(s.misses);
  c.evictions = static_cast<std::int64_t>(s.evictions);
  c.io_retries =
      ls::obs::Registry::global().counter("trace/storage/io/retries").value();
  c.alloc_bytes = ls::obs::thread_allocs().bytes;
  return c;
}

Counts operator-(const Counts& a, const Counts& b) {
  return {a.hits - b.hits, a.misses - b.misses, a.evictions - b.evictions,
          a.io_retries - b.io_retries, a.alloc_bytes - b.alloc_bytes};
}

struct SpanRec {
  std::string name;
  std::int32_t analysis = 0;
  std::int32_t parent = -1;  ///< index into the span log, -1 = root
  std::int64_t start_ns = 0, end_ns = 0;
  Counts delta;
  std::int64_t resident_bytes = 0;  ///< block cache at span end
};

class SpanLog {
 public:
  /// Disabled logs record nothing; the plain analysis path uses one.
  explicit SpanLog(bool enabled) : epoch_(Clock::now()), enabled_(enabled) {}

  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log) {
      if (!log_.enabled_) return;
      id_ = static_cast<std::int32_t>(log_.spans_.size());
      SpanRec r;
      r.name = name;
      r.analysis = log_.analysis_;
      r.parent = log_.stack_.empty() ? -1 : log_.stack_.back();
      log_.stack_.push_back(id_);
      log_.spans_.push_back(std::move(r));
      start_ = read_counts();
      log_.spans_[static_cast<std::size_t>(id_)].start_ns = log_.now();
    }
    ~Scope() {
      if (id_ < 0) return;
      SpanRec& r = log_.spans_[static_cast<std::size_t>(id_)];
      r.end_ns = log_.now();
      r.delta = read_counts() - start_;
      r.resident_bytes = static_cast<std::int64_t>(
          storage::BlockCache::global().stats().resident_bytes);
      log_.stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::int32_t id_ = -1;
    Counts start_;
  };

  void next_analysis() { ++analysis_; }
  [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"schema\":\"logstruct-perfbench-spans/v1\",\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\""
          << s.name << "\",\"analysis\":" << s.analysis
          << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"hits\":" << s.delta.hits
          << ",\"misses\":" << s.delta.misses
          << ",\"evictions\":" << s.delta.evictions
          << ",\"io_retries\":" << s.delta.io_retries
          << ",\"alloc_bytes\":" << s.delta.alloc_bytes
          << ",\"resident_bytes\":" << s.resident_bytes << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  [[nodiscard]] std::int64_t now() const { return ns_since(epoch_); }

  Clock::time_point epoch_;
  bool enabled_;
  std::int32_t analysis_ = 0;
  std::vector<SpanRec> spans_;
  std::vector<std::int32_t> stack_;
};

// ---------------------------------------------------------------------------
// One analysis

struct Result {
  double analyze_s = 0;
  double extract_s = 0;
  double peak_rss_mb = 0;
  std::int32_t events = 0;
  std::int32_t phases = 0;
  std::int32_t windows = 0;
  std::string digest;
  std::vector<std::string> problems;  ///< failed checks; empty = pass
  Counts cache;                       ///< whole-analysis delta
  std::int64_t resident_bytes = 0;
};

ls::trace::Trace open_input(const Workload& w, const std::string& dir,
                            bool force_mem_read) {
  if (w.blocked && !force_mem_read)
    return storage::open_blocked_trace(lsblk_path(dir));
  return ls::trace::load_trace(lstrace_path(dir));
}

MetricSuite run_metrics(const ls::trace::Trace& t,
                        const ls::order::LogicalStructure& s, SpanLog& log) {
  MetricSuite m;
  {
    SpanLog::Scope paper(log, "metrics.paper");
    {
      SpanLog::Scope k(log, "metrics.idle_experienced");
      m.idle = ls::metrics::idle_experienced(t);
    }
    {
      SpanLog::Scope k(log, "metrics.differential_duration");
      m.diffdur = ls::metrics::differential_duration(t, s, 1);
    }
    {
      SpanLog::Scope k(log, "metrics.imbalance");
      m.imbalance = ls::metrics::imbalance(t, s, 1);
    }
    {
      SpanLog::Scope k(log, "metrics.lateness");
      m.lateness = ls::metrics::lateness(t, s, false, 1);
    }
    {
      SpanLog::Scope k(log, "metrics.critical_path");
      m.critical = ls::metrics::critical_path(t, s, 1);
    }
  }
  std::optional<ls::metrics::WindowSet> ws;
  {
    SpanLog::Scope k(log, "metrics.windows");
    ws.emplace(ls::metrics::WindowSet::phases(t, s.phases));
  }
  m.windows = ws->size();
  {
    SpanLog::Scope k(log, "metrics.efficiency");
    m.efficiency = ls::metrics::efficiency_suite(t, *ws, 1);
  }
  {
    SpanLog::Scope k(log, "metrics.concurrency");
    m.concurrency = ls::metrics::concurrency_report(t, s, *ws, 1);
  }
  return m;
}

struct AnalyzeArgs {
  Workload w;
  std::string dir;
  bool force_mem_read = false;  ///< self-test: bypass the .lsblk file
};

/// The analysis a user runs. The plain path calls extract_structure; the
/// traced path runs its two halves (the partition and stepping pipelines
/// over one shared OrderContext, exactly what extract_structure does) so
/// find_phases and assign_steps get spans of their own. Checks run after
/// the timed region.
Result analyze_once(const AnalyzeArgs& a, SpanLog& log, bool traced) {
  Result r;
  const ls::order::Options opts = options_of(a.w);
  // Between analyses: drop the library's own span buffer, hand freed
  // heap back, and rebase VmHWM so the peak is this analysis alone.
  ls::obs::PipelineTracer::global().reset();
  malloc_trim(0);
  ls::obs::reset_peak_rss();
  const Counts before = read_counts();

  std::optional<ls::trace::Trace> t;
  ls::order::LogicalStructure s;
  MetricSuite m;
  std::vector<std::string> trace_problems;
  const Clock::time_point t0 = Clock::now();
  {
    SpanLog::Scope root(log, "analysis");
    {
      SpanLog::Scope k(log, "trace.load");
      t.emplace(open_input(a.w, a.dir, a.force_mem_read));
    }
    {
      SpanLog::Scope k(log, "trace.validate");
      trace_problems = ls::trace::validate(*t);
    }
    const Clock::time_point x0 = Clock::now();
    if (traced) {
      std::optional<ls::order::OrderContext> ctx;
      {
        SpanLog::Scope k(log, "order.find_phases");
        ctx.emplace(*t, opts);
        ls::order::run_partition_pipeline(*ctx, nullptr, nullptr);
      }
      {
        SpanLog::Scope k(log, "order.assign_steps");
        ls::order::run_stepping_pipeline(*ctx);
        s = std::move(ctx->structure);
      }
    } else {
      s = ls::order::extract_structure(*t, opts);
    }
    r.extract_s = seconds_since(x0);
    m = run_metrics(*t, s, log);
  }
  r.analyze_s = seconds_since(t0);
  r.peak_rss_mb = static_cast<double>(ls::obs::peak_rss_kb()) / 1024.0;
  r.cache = read_counts() - before;
  r.resident_bytes = static_cast<std::int64_t>(
      storage::BlockCache::global().stats().resident_bytes);

  // Checks, outside the timed region.
  r.events = t->num_events();
  r.phases = s.num_phases();
  r.windows = m.windows;
  for (const std::string& p : trace_problems)
    r.problems.push_back("trace::validate: " + p);
  for (const std::string& p : ls::order::validate_structure(*t, s))
    r.problems.push_back("order::validate_structure: " + p);
  r.digest = digest_of(s, m);
  return r;
}

/// Regime guards: the blocked workload must really run through a bounded
/// cache, and the mem workloads must not touch it at all.
void check_regime(const Workload& w, Result& r) {
  const std::int64_t lookups = r.cache.hits + r.cache.misses;
  if (!w.blocked) {
    if (lookups != 0)
      r.problems.push_back("regime: mem workload made " +
                           std::to_string(lookups) + " block-cache lookups");
    return;
  }
  if (r.cache.misses == 0)
    r.problems.push_back("regime: blocked workload had zero cache misses");
  const std::uint64_t budget = storage::default_options().cache_bytes;
  if (budget != w.cache_bytes)
    r.problems.push_back("regime: cache budget is " + std::to_string(budget) +
                         " bytes, expected " + std::to_string(w.cache_bytes));
  if (r.resident_bytes > static_cast<std::int64_t>(w.cache_bytes))
    r.problems.push_back("regime: " + std::to_string(r.resident_bytes) +
                         " bytes resident, over the " +
                         std::to_string(w.cache_bytes) + "-byte budget");
}

// ---------------------------------------------------------------------------
// Output helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Args {
  std::map<std::string, std::string> kv;
  bool has(const std::string& k) const { return kv.count(k) != 0; }
  std::string get(const std::string& k, const std::string& def = "") const {
    auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  }
  long long num_of(const std::string& k, long long def) const {
    return has(k) ? std::stoll(get(k)) : def;
  }
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 2; i < argc; ++i) {
    std::string s = argv[i];
    if (s.rfind("--", 0) != 0) die("unexpected argument '" + s + "'");
    s = s.substr(2);
    const auto eq = s.find('=');
    if (eq == std::string::npos)
      a.kv[s] = "1";
    else
      a.kv[s.substr(0, eq)] = s.substr(eq + 1);
  }
  return a;
}

// ---------------------------------------------------------------------------
// Subcommands

int cmd_setup(const Args& args) {
  const Workload w = make_workload(args.get("workload"), args.has("toy"));
  const auto seed = static_cast<std::uint64_t>(args.num_of("seed", 1));
  const std::string dir = args.get("dir");
  const long long reps = std::max(1LL, args.num_of("reps", 1));
  if (dir.empty()) die("setup: --dir is required");
  std::filesystem::create_directories(dir);
  pin_storage(w, dir, storage::BackendKind::Mem);

  std::vector<double> times;
  std::int32_t events = 0;
  for (long long i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    {
      const ls::trace::Trace t = simulate(w, seed);
      events = t.num_events();
      if (!ls::trace::save_trace(t, lstrace_path(dir)))
        die("setup: cannot write " + lstrace_path(dir));
      if (w.blocked)
        storage::write_blocked_file(t, lsblk_path(dir), w.block_bytes);
    }
    times.push_back(seconds_since(t0));
  }

  std::string ref;
  if (w.blocked) {
    // The oracle for the blocked analyses: the same trace analysed on the
    // mem backend.
    SpanLog off(false);
    AnalyzeArgs a{w, dir, /*force_mem_read=*/true};
    Result r = analyze_once(a, off, false);
    if (!r.problems.empty()) die("setup: mem reference failed its checks");
    ref = r.digest;
  }
  std::printf("{\"setup_s\":[");
  for (std::size_t i = 0; i < times.size(); ++i)
    std::printf("%s%s", i ? "," : "", num(times[i]).c_str());
  std::printf("],\"events\":%d,\"ref_digest\":\"%s\"}\n", events,
              ref.c_str());
  return 0;
}

int cmd_analyze(const Args& args) {
  AnalyzeArgs a;
  a.w = make_workload(args.get("workload"), args.has("toy"));
  a.dir = args.get("dir");
  if (a.dir.empty()) die("analyze: --dir is required");
  const double seconds = static_cast<double>(args.num_of("seconds", 10));
  const bool traced = args.num_of("trace", 0) != 0;
  const std::string expect = args.get("expect");
  const std::string ref = args.get("ref");
  const std::string force = args.get("force");
  const long long min_runs = std::max(1LL, args.num_of("min-runs", 1));

  // Self-test hooks: force each regime guard's condition.
  //   mem-touches-cache  freeze the mem workload into blocked storage
  //   blocked-skips-cache  read the .lstrace instead of the .lsblk
  //   budget-not-set     skip set_default_options, as a process that
  //                      only opens .lsblk files does
  storage::BackendKind kind = storage::BackendKind::Mem;
  if (force == "mem-touches-cache") {
    kind = storage::BackendKind::Blocked;
  } else if (force == "blocked-skips-cache") {
    a.force_mem_read = true;
  } else if (!force.empty() && force != "budget-not-set") {
    die("analyze: unknown --force '" + force + "'");
  }
  if (force != "budget-not-set") pin_storage(a.w, a.dir, kind);
  if (!std::filesystem::exists(lstrace_path(a.dir)))
    die("analyze: no input in " + a.dir + " (run setup first)");

  SpanLog off(false);
  SpanLog log(true);
  std::vector<Result> plain, traced_runs;
  std::vector<std::string> failures;
  std::string first_digest;
  std::int64_t attempted = 0;
  const Clock::time_point start = Clock::now();
  double last = 0;
  // Traced runs alternate plain and traced analyses so the tracing
  // overhead is measured under the same conditions.
  for (std::int64_t i = 0;; ++i) {
    const double elapsed = seconds_since(start);
    if (attempted >= min_runs * (traced ? 2 : 1) &&
        elapsed + last > seconds)
      break;
    const bool with_spans = traced && (i % 2 == 1);
    ++attempted;
    const Clock::time_point t0 = Clock::now();
    try {
      if (with_spans) log.next_analysis();
      Result r = analyze_once(a, with_spans ? log : off, with_spans);
      check_regime(a.w, r);
      if (!expect.empty() && r.digest != expect)
        r.problems.push_back("digest " + r.digest + " != pinned " + expect);
      if (!ref.empty() && r.digest != ref)
        r.problems.push_back("digest " + r.digest +
                             " != mem-backend reference " + ref);
      if (first_digest.empty()) first_digest = r.digest;
      if (r.digest != first_digest)
        r.problems.push_back("digest " + r.digest +
                             " differs from the run's first " +
                             first_digest);
      if (!r.problems.empty()) {
        failures.push_back(r.problems.front());
        if (failures.size() <= 3)
          for (const std::string& p : r.problems)
            std::fprintf(stderr, "lsbench: analysis %lld: %s\n",
                         static_cast<long long>(i), p.c_str());
      }
      (with_spans ? traced_runs : plain).push_back(std::move(r));
    } catch (const std::exception& e) {
      failures.push_back(std::string("exception: ") + e.what());
      std::fprintf(stderr, "lsbench: analysis %lld threw: %s\n",
                   static_cast<long long>(i), e.what());
    }
    last = seconds_since(t0);
  }
  const double measured_s = seconds_since(start);

  auto med = [](const std::vector<Result>& rs, double Result::*f) {
    std::vector<double> v;
    for (const Result& r : rs) v.push_back(r.*f);
    return median(v);
  };
  const Result* any = !plain.empty()         ? &plain.front()
                      : !traced_runs.empty() ? &traced_runs.front()
                                             : nullptr;

  std::printf("{\"workload\":\"%s\",\"attempted\":%lld,\"failed\":%zu,",
              a.w.name.c_str(), static_cast<long long>(attempted),
              failures.size());
  std::printf("\"measured_s\":%s,\"plain_runs\":%zu,\"traced_runs\":%zu,",
              num(measured_s).c_str(), plain.size(), traced_runs.size());
  std::printf("\"digest\":\"%s\",\"cache_budget_bytes\":%llu,",
              first_digest.c_str(),
              static_cast<unsigned long long>(
                  storage::default_options().cache_bytes));
  std::printf("\"failures\":[");
  for (std::size_t i = 0; i < failures.size() && i < 8; ++i)
    std::printf("%s\"%s\"", i ? "," : "", json_escape(failures[i]).c_str());
  std::printf("],\"events\":%d,\"phases\":%d,\"windows\":%d,",
              any ? any->events : 0, any ? any->phases : 0,
              any ? any->windows : 0);
  std::printf("\"analyze_s\":%s,\"extract_s\":%s,\"peak_rss_mb\":%s,",
              num(med(plain, &Result::analyze_s)).c_str(),
              num(med(plain, &Result::extract_s)).c_str(),
              num(med(plain, &Result::peak_rss_mb)).c_str());
  std::printf("\"traced_analyze_s\":%s,\"analyze_all_s\":[",
              num(med(traced_runs, &Result::analyze_s)).c_str());
  for (std::size_t i = 0; i < plain.size(); ++i)
    std::printf("%s%s", i ? "," : "", num(plain[i].analyze_s).c_str());
  std::printf("],");

  // Per-layer metrics from the traced analyses: per analysis, then the
  // median over analyses.
  std::map<std::string, std::vector<double>> layer;
  if (traced) {
    const std::vector<SpanRec>& spans = log.spans();
    std::int32_t n_analyses = 0;
    for (const SpanRec& s : spans) n_analyses = std::max(n_analyses, s.analysis);
    const double file_mb =
        static_cast<double>(std::filesystem::file_size(
            a.w.blocked ? lsblk_path(a.dir) : lstrace_path(a.dir))) /
        (1024.0 * 1024.0);
    for (std::int32_t an = 1; an <= n_analyses; ++an) {
      std::map<std::string, double> v;
      std::map<std::string, Counts> c;
      std::map<std::string, double> self;  // per layer
      std::int64_t max_resident = 0;
      double root_s = 0, root_self_s = 0;
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRec& s = spans[i];
        if (s.analysis != an) continue;
        const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
        // Self time: duration minus the union of the children's
        // intervals (children of one span never overlap: one thread).
        double child = 0;
        for (std::size_t j = i + 1; j < spans.size(); ++j)
          if (spans[j].parent == static_cast<std::int32_t>(i))
            child += static_cast<double>(spans[j].end_ns -
                                         spans[j].start_ns) * 1e-9;
        const double own = dur - child;
        v[s.name] = dur;
        c[s.name] = s.delta;
        max_resident = std::max(max_resident, s.resident_bytes);
        if (s.name == "analysis") {
          root_s = dur;
          root_self_s = own;
        } else {
          self[s.name.substr(0, s.name.find('.'))] += own;
        }
      }
      auto put = [&](const std::string& k, double x) { layer[k].push_back(x); };
      const Counts& all = c["analysis"];
      const double mb = 1.0 / (1024.0 * 1024.0);
      put("trace.load_s", v["trace.load"]);
      put("trace.load_mb_per_s",
          v["trace.load"] > 0 ? file_mb / v["trace.load"] : 0);
      put("trace.validate_s", v["trace.validate"]);
      put("trace.events", any ? any->events : 0);
      put("trace.self_s", self["trace"]);
      put("trace.storage.budget_mb",
          static_cast<double>(storage::default_options().cache_bytes) * mb);
      put("trace.storage.hits", static_cast<double>(all.hits));
      put("trace.storage.misses", static_cast<double>(all.misses));
      const std::int64_t lookups = all.hits + all.misses;
      put("trace.storage.hit_ratio",
          lookups ? static_cast<double>(all.hits) / static_cast<double>(lookups)
                  : 0);
      put("trace.storage.evictions", static_cast<double>(all.evictions));
      put("trace.storage.resident_mb", static_cast<double>(max_resident) * mb);
      put("trace.storage.io_retries", static_cast<double>(all.io_retries));
      put("trace.storage.misses.load",
          static_cast<double>(c["trace.load"].misses));
      put("trace.storage.misses.validate",
          static_cast<double>(c["trace.validate"].misses));
      put("trace.storage.misses.find_phases",
          static_cast<double>(c["order.find_phases"].misses));
      put("trace.storage.misses.assign_steps",
          static_cast<double>(c["order.assign_steps"].misses));
      put("trace.storage.misses.metrics",
          static_cast<double>(c["metrics.paper"].misses +
                              c["metrics.windows"].misses +
                              c["metrics.efficiency"].misses +
                              c["metrics.concurrency"].misses));
      put("order.find_phases_s", v["order.find_phases"]);
      put("order.assign_steps_s", v["order.assign_steps"]);
      put("order.find_phases_alloc_mb",
          static_cast<double>(c["order.find_phases"].alloc_bytes) * mb);
      put("order.assign_steps_alloc_mb",
          static_cast<double>(c["order.assign_steps"].alloc_bytes) * mb);
      put("order.phases", any ? any->phases : 0);
      put("order.self_s", self["order"]);
      put("metrics.paper_s", v["metrics.paper"]);
      put("metrics.windows_s", v["metrics.windows"]);
      put("metrics.efficiency_s", v["metrics.efficiency"]);
      put("metrics.concurrency_s", v["metrics.concurrency"]);
      put("metrics.alloc_mb",
          static_cast<double>(c["metrics.paper"].alloc_bytes +
                              c["metrics.windows"].alloc_bytes +
                              c["metrics.efficiency"].alloc_bytes +
                              c["metrics.concurrency"].alloc_bytes) *
              mb);
      put("metrics.windows", any ? any->windows : 0);
      put("metrics.self_s", self["metrics"]);
      put("traced.uncovered_s", root_self_s);
      put("traced.analyze_s", root_s);
    }
    const double overhead = med(traced_runs, &Result::analyze_s) -
                            med(plain, &Result::analyze_s);
    layer["traced.overhead_s"].push_back(overhead);
    const std::string spans_path = args.get("spans");
    if (!spans_path.empty() && !log.write(spans_path))
      std::fprintf(stderr, "lsbench: cannot write %s\n", spans_path.c_str());
  }
  std::printf("\"layers\":{");
  bool first = true;
  for (const auto& [k, vs] : layer) {
    std::printf("%s\"%s\":%s", first ? "" : ",", k.c_str(),
                num(median(vs)).c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s setup|analyze --workload=W --seed=N --dir=D ...\n"
                 "(see the file comment of perfbench/lsbench.cpp)\n",
                 argv[0]);
    return 2;
  }
  ls::util::set_default_parallelism(1);
  const std::string cmd = argv[1];
  const Args args = parse(argc, argv);
  try {
    if (cmd == "setup") return cmd_setup(args);
    if (cmd == "analyze") return cmd_analyze(args);
  } catch (const std::exception& e) {
    die(cmd + ": " + e.what());
  }
  die("unknown subcommand '" + cmd + "'");
}
