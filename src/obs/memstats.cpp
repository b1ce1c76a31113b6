#include "obs/memstats.hpp"

#include <cstdio>
#include <cstring>

namespace logstruct::obs {

namespace detail {
constinit thread_local std::int64_t t_alloc_bytes = 0;
constinit thread_local std::int64_t t_alloc_count = 0;
constinit thread_local std::int64_t t_flushed_bytes = 0;
constinit thread_local std::int64_t t_flushed_count = 0;
std::atomic<std::int64_t> g_alloc_bytes{0};
std::atomic<std::int64_t> g_alloc_count{0};
}  // namespace detail

MemStats read_mem_stats() {
  MemStats out;
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return out;
  char line[256];
  int found = 0;
  while (found < 2 && std::fgets(line, sizeof line, f)) {
    long long kb = 0;
    if (std::strncmp(line, "VmRSS:", 6) == 0 &&
        std::sscanf(line + 6, "%lld", &kb) == 1) {
      out.current_rss_kb = kb;
      ++found;
    } else if (std::strncmp(line, "VmHWM:", 6) == 0 &&
               std::sscanf(line + 6, "%lld", &kb) == 1) {
      out.peak_rss_kb = kb;
      ++found;
    }
  }
  std::fclose(f);
#endif
  return out;
}

std::int64_t current_rss_kb() { return read_mem_stats().current_rss_kb; }

std::int64_t peak_rss_kb() { return read_mem_stats().peak_rss_kb; }

bool reset_peak_rss() {
#if defined(__linux__)
  // Writing "5" to clear_refs resets VmHWM to the current VmRSS, so a
  // subsequent peak_rss_kb() reflects only allocations after this call.
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (!f) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return (std::fclose(f) == 0) && ok;
#else
  return false;
#endif
}

AllocCounters thread_allocs() {
  return {detail::t_alloc_bytes, detail::t_alloc_count};
}

AllocCounters process_allocs() {
  // Fold in the calling thread's unflushed tail so single-threaded
  // callers see exact totals; other threads lag by at most one batch.
  detail::flush_thread_allocs();
  return {detail::g_alloc_bytes.load(std::memory_order_relaxed),
          detail::g_alloc_count.load(std::memory_order_relaxed)};
}

bool alloc_hook_active() { return detail::hook_linked(); }

void credit_external_allocs(const AllocCounters& delta) {
  detail::t_alloc_bytes += delta.bytes;
  detail::t_alloc_count += delta.count;
}

}  // namespace logstruct::obs
