#pragma once

/// \file thread_pool.hpp
/// Shared work-stealing thread pool for the extraction pipeline.
///
/// One process-wide pool (ThreadPool::global()) backs every parallel
/// stage: trace freezing, initial partitioning, the per-phase order
/// passes, step assignment, and the metric kernels. Workers are spawned
/// lazily the first time a parallel_for asks for them and then reused, so
/// repeated pipeline runs pay thread start-up once.
///
/// parallel_for(threads, n, fn) runs fn(i) for every i in [0, n) using at
/// most `threads` participants (the calling thread plus stolen-from
/// workers). The index range is split into one contiguous shard per
/// participant; a participant drains its own shard from the front in
/// grain-sized chunks and, when empty, steals the back half of the
/// largest remaining shard — classic range stealing, so load imbalance
/// (one giant phase next to many tiny ones) never idles a thread while
/// work remains.
///
/// Determinism contract: every index is executed exactly once and fn must
/// write only to index-owned slots (or accumulate into per-participant
/// state that the caller combines in index order). Under that contract
/// results are bit-identical for ANY thread count — which is what the
/// golden-structure thread matrix tests enforce end-to-end.
///
/// Telemetry: heap allocations performed by workers inside a parallel_for
/// are credited to the calling thread's obs counters when the call
/// returns, so AllocScope / per-span / per-pass alloc_bytes keep summing
/// correctly when work fans out (see obs/memstats.hpp).
///
/// Exceptions: a body that throws does not take the process down. Each
/// participant catches what its chunks throw; the job still drains
/// (chunks that start past the lowest throwing chunk are skipped, every
/// earlier one runs), the workers are joined and their allocations
/// credited, and then the calling thread rethrows the exception of the
/// chunk with the lowest begin. For parallel_for that is the lowest
/// throwing index — the exception a serial loop would have thrown — at
/// any thread count.
///
/// Nested parallel_for calls from inside a worker run inline serially:
/// the pipeline parallelizes one stage at a time, and inline execution
/// keeps a mis-nested call correct instead of deadlocked.

#include <cstdint>
#include <functional>

namespace logstruct::util {

class ThreadPool {
 public:
  /// A pool that may use up to `threads` participants (spawns threads-1
  /// workers lazily; the submitting thread is always a participant).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Maximum participants this pool was built for (>= 1).
  [[nodiscard]] int threads() const { return threads_; }

  /// Run body(i) for every i in [0, n), blocking until all are done.
  /// At most min(threads(), limit) participants; the caller is one of
  /// them. Serial (inline, no locking) when n < 2 or limit <= 1.
  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t)>& body,
                    int limit = 1 << 30);

  /// Chunked variant: body(begin, end) over disjoint subranges covering
  /// [0, n) exactly once. `grain` bounds the chunk size a participant
  /// claims at a time (also the stealing granularity floor).
  void parallel_for_chunks(
      std::int64_t n, std::int64_t grain,
      const std::function<void(std::int64_t, std::int64_t)>& body,
      int limit = 1 << 30);

  /// The process-wide pool, sized for the hardware; grows its worker set
  /// lazily as parallel_for limits demand them.
  static ThreadPool& global();

  /// std::thread::hardware_concurrency with a floor of 1.
  static int hardware_threads();

 private:
  /// Lazily spawn workers until at least `wanted` exist (capped at
  /// threads() - 1; the submitting thread is the remaining participant).
  void ensure_workers(int wanted);

  struct Impl;
  Impl* impl_;
  int threads_;
};

/// Process-wide default parallelism for stages without an explicit
/// thread-count parameter (trace freezing, metric kernels called with
/// threads = 0). Set once by the shared --threads harness flag; defaults
/// to 1 (fully serial) so tests and library users opt in explicitly.
[[nodiscard]] int default_parallelism();

/// Set the default; 0 resolves to hardware_threads().
void set_default_parallelism(int threads);

/// Resolve a thread-count knob: n >= 1 is explicit, 0 means
/// default_parallelism(). Always >= 1.
[[nodiscard]] int resolve_threads(int n);

/// Convenience wrapper over the global pool: serial loop when
/// resolve_threads(threads) == 1 or n < 2, parallel otherwise.
void parallel_for(int threads, std::int64_t n,
                  const std::function<void(std::int64_t)>& body);

/// Chunked convenience wrapper (see ThreadPool::parallel_for_chunks).
void parallel_for_chunks(
    int threads, std::int64_t n, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& body);

}  // namespace logstruct::util
