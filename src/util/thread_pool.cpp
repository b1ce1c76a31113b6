#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/memstats.hpp"

namespace logstruct::util {

namespace {

/// True while the current thread is executing inside a pool job; nested
/// parallel_for calls then run inline serially instead of deadlocking on
/// the single job slot.
thread_local bool t_in_pool_job = false;

/// One participant's contiguous index range. Claims (owner pops from the
/// front, thieves split off the back) are serialized by `mu`; the range
/// is small shared state, so a plain mutex is both simple and exactly
/// what ThreadSanitizer can verify.
struct Shard {
  std::mutex mu;
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

}  // namespace

struct ThreadPool::Impl {
  struct Job {
    const std::function<void(std::int64_t, std::int64_t)>* body = nullptr;
    std::vector<Shard> shards;
    std::int64_t grain = 1;
    // Guarded by the pool mutex:
    int tickets = 0;  ///< worker participation slots left
    int active = 0;   ///< participants currently inside participate()
    obs::AllocCounters worker_allocs;  ///< summed from finished workers
    /// The exception thrown by the chunk with the lowest begin, and that
    /// begin (int64 max while none has thrown). Chunks that start past
    /// it are skipped; every chunk before it still runs, so the one
    /// rethrown is the serial loop's first, whatever the thread count.
    std::mutex error_mu;
    std::atomic<std::int64_t> error_begin{
        std::numeric_limits<std::int64_t>::max()};
    std::exception_ptr error;
  };

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::thread> workers;
  Job* job = nullptr;
  bool stop = false;
  /// Serializes submissions from distinct threads (one job slot).
  std::mutex submit_mu;

  void worker_loop() {
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      cv.wait(lk, [this] {
        return stop || (job != nullptr && job->tickets > 0);
      });
      if (stop) return;
      Job* j = job;
      --j->tickets;
      ++j->active;
      lk.unlock();

      const obs::AllocCounters before = obs::thread_allocs();
      t_in_pool_job = true;
      participate(*j);
      t_in_pool_job = false;
      const obs::AllocCounters after = obs::thread_allocs();

      lk.lock();
      j->worker_allocs.bytes += after.bytes - before.bytes;
      j->worker_allocs.count += after.count - before.count;
      if (--j->active == 0) cv.notify_all();
    }
  }

  /// Drain shards until every index is claimed. Own shard first (front,
  /// grain-sized chunks), then steal the back half of the fullest
  /// remaining shard.
  static void participate(Job& j) {
    const std::size_t nshards = j.shards.size();
    for (;;) {
      // Pick the shard with the most remaining work. The snapshot is
      // racy-by-design (sizes move under their own mutexes); the claim
      // below re-checks under the shard's lock, so a stale pick only
      // costs a retry.
      std::size_t pick = nshards;
      std::int64_t pick_size = 0;
      for (std::size_t s = 0; s < nshards; ++s) {
        std::int64_t size;
        {
          std::lock_guard<std::mutex> g(j.shards[s].mu);
          size = j.shards[s].end - j.shards[s].begin;
        }
        if (size > pick_size) {
          pick_size = size;
          pick = s;
        }
      }
      if (pick == nshards) return;  // every shard empty: job drained

      Shard& shard = j.shards[pick];
      std::int64_t lo = 0;
      std::int64_t hi = 0;
      {
        std::lock_guard<std::mutex> g(shard.mu);
        const std::int64_t size = shard.end - shard.begin;
        if (size <= 0) continue;  // lost the race; re-scan
        // Steal the back half (at least one grain) and run it here; the
        // front stays claimable by the shard's other visitors.
        const std::int64_t take =
            std::max(j.grain, (size + 1) / 2);
        lo = std::max(shard.begin, shard.end - take);
        hi = shard.end;
        shard.end = lo;
      }
      for (std::int64_t c = lo; c < hi; c += j.grain) {
        if (c > j.error_begin.load(std::memory_order_relaxed)) break;
        try {
          (*j.body)(c, std::min(hi, c + j.grain));
        } catch (...) {
          std::lock_guard<std::mutex> g(j.error_mu);
          if (c < j.error_begin.load(std::memory_order_relaxed)) {
            j.error_begin.store(c, std::memory_order_relaxed);
            j.error = std::current_exception();
          }
          break;
        }
      }
    }
  }
};

ThreadPool::ThreadPool(int threads)
    : impl_(new Impl), threads_(std::max(1, threads)) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> g(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

int ThreadPool::hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(hardware_threads());
  return pool;
}

void ThreadPool::parallel_for(
    std::int64_t n, const std::function<void(std::int64_t)>& body,
    int limit) {
  parallel_for_chunks(
      n, /*grain=*/1,
      [&body](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) body(i);
      },
      limit);
}

void ThreadPool::parallel_for_chunks(
    std::int64_t n, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& body,
    int limit) {
  if (n <= 0) return;
  grain = std::max<std::int64_t>(1, grain);
  const int participants = static_cast<int>(std::min<std::int64_t>(
      std::min(threads_, std::max(1, limit)), n));
  if (participants <= 1 || t_in_pool_job) {
    // Serial (or nested-from-a-worker) execution: one chunk sweep, no
    // locking, identical index coverage.
    for (std::int64_t c = 0; c < n; c += grain)
      body(c, std::min(n, c + grain));
    return;
  }

  std::lock_guard<std::mutex> submit(impl_->submit_mu);
  Impl::Job job;
  job.body = &body;
  job.grain = grain;
  job.tickets = participants - 1;
  job.shards = std::vector<Shard>(static_cast<std::size_t>(participants));
  // Contiguous shards, remainder spread over the leading shards; every
  // index appears in exactly one shard.
  const std::int64_t base = n / participants;
  const std::int64_t extra = n % participants;
  std::int64_t at = 0;
  for (std::int64_t s = 0; s < participants; ++s) {
    const std::int64_t len = base + (s < extra ? 1 : 0);
    job.shards[static_cast<std::size_t>(s)].begin = at;
    job.shards[static_cast<std::size_t>(s)].end = at + len;
    at += len;
  }

  ensure_workers(participants - 1);
  {
    std::lock_guard<std::mutex> g(impl_->mu);
    job.active = 1;  // the calling thread
    impl_->job = &job;
  }
  impl_->cv.notify_all();

  t_in_pool_job = true;
  Impl::participate(job);
  t_in_pool_job = false;

  {
    std::unique_lock<std::mutex> lk(impl_->mu);
    job.tickets = 0;  // late workers must not join a drained job
    --job.active;
    impl_->cv.wait(lk, [&job] { return job.active == 0; });
    impl_->job = nullptr;
  }
  // Credit worker-side heap traffic to this thread so enclosing
  // AllocScope / span deltas keep summing correctly across the fan-out.
  obs::credit_external_allocs(job.worker_allocs);
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::ensure_workers(int wanted) {
  std::lock_guard<std::mutex> g(impl_->mu);
  const int cap = threads_ - 1;
  wanted = std::min(wanted, cap);
  while (static_cast<int>(impl_->workers.size()) < wanted)
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
}

namespace {
std::atomic<int> g_default_parallelism{1};
}  // namespace

int default_parallelism() {
  return g_default_parallelism.load(std::memory_order_relaxed);
}

void set_default_parallelism(int threads) {
  if (threads <= 0) threads = ThreadPool::hardware_threads();
  g_default_parallelism.store(threads, std::memory_order_relaxed);
}

int resolve_threads(int n) {
  return n >= 1 ? n : default_parallelism();
}

void parallel_for(int threads, std::int64_t n,
                  const std::function<void(std::int64_t)>& body) {
  const int t = resolve_threads(threads);
  if (t <= 1 || n < 2) {
    for (std::int64_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool::global().parallel_for(n, body, t);
}

void parallel_for_chunks(
    int threads, std::int64_t n, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  const int t = resolve_threads(threads);
  grain = std::max<std::int64_t>(1, grain);
  if (t <= 1 || n < 2) {
    for (std::int64_t c = 0; c < n; c += grain)
      body(c, std::min(n, c + grain));
    return;
  }
  ThreadPool::global().parallel_for_chunks(n, grain, body, t);
}

}  // namespace logstruct::util
