#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "obs/memstats.hpp"

namespace logstruct::util {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (std::int64_t n : {0, 1, 2, 3, 7, 100, 4096}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    pool.parallel_for(n, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                  std::memory_order_relaxed);
    });
    for (std::int64_t i = 0; i < n; ++i)
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "i=" << i;
  }
}

TEST(ThreadPool, ChunksPartitionTheRange) {
  ThreadPool pool(3);
  const std::int64_t n = 1000;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  pool.parallel_for_chunks(n, /*grain=*/7,
                           [&](std::int64_t begin, std::int64_t end) {
                             ASSERT_LT(begin, end);
                             ASSERT_LE(end, n);
                             for (std::int64_t i = begin; i < end; ++i)
                               hits[static_cast<std::size_t>(i)].fetch_add(
                                   1, std::memory_order_relaxed);
                           });
  for (std::int64_t i = 0; i < n; ++i)
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "i=" << i;
}

TEST(ThreadPool, LimitCapsParticipants) {
  ThreadPool pool(8);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  pool.parallel_for(
      64,
      [&](std::int64_t) {
        int now = concurrent.fetch_add(1) + 1;
        int p = peak.load();
        while (now > p && !peak.compare_exchange_weak(p, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        concurrent.fetch_sub(1);
      },
      /*limit=*/2);
  EXPECT_LE(peak.load(), 2);
}

TEST(ThreadPool, DeterministicResultAnyThreadCount) {
  // Index-owned writes: identical output for any pool size.
  const std::int64_t n = 10000;
  std::vector<std::int64_t> expect(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    expect[static_cast<std::size_t>(i)] = i * i % 9973;
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    std::vector<std::int64_t> got(static_cast<std::size_t>(n), -1);
    pool.parallel_for(n, [&](std::int64_t i) {
      got[static_cast<std::size_t>(i)] = i * i % 9973;
    });
    EXPECT_EQ(got, expect) << "threads=" << threads;
  }
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  pool.parallel_for(8, [&](std::int64_t) {
    // Nested call must complete serially instead of deadlocking on the
    // single job slot.
    std::int64_t local = 0;
    ThreadPool::global().parallel_for(16,
                                      [&local](std::int64_t) { ++local; });
    total.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.parallel_for(97, [&](std::int64_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 97 * 96 / 2) << "round=" << round;
  }
}

TEST(ThreadPool, ConcurrentSubmittersSerialize) {
  // Several threads submitting to one pool at once: every job still
  // covers its range exactly once.
  ThreadPool pool(4);
  std::vector<std::thread> submitters;
  std::vector<std::int64_t> sums(6, 0);
  for (int s = 0; s < 6; ++s) {
    submitters.emplace_back([&pool, &sums, s] {
      std::atomic<std::int64_t> sum{0};
      pool.parallel_for(500, [&](std::int64_t i) {
        sum.fetch_add(i + s, std::memory_order_relaxed);
      });
      sums[static_cast<std::size_t>(s)] = sum.load();
    });
  }
  for (auto& t : submitters) t.join();
  for (int s = 0; s < 6; ++s)
    EXPECT_EQ(sums[static_cast<std::size_t>(s)],
              500 * 499 / 2 + 500LL * s);
}

TEST(ThreadPool, WorkerAllocsCreditedToCaller) {
  if (!obs::alloc_hook_active()) GTEST_SKIP() << "alloc hook not linked";
  ThreadPool pool(4);
  obs::AllocScope scope;
  std::atomic<std::int64_t> keep{0};
  pool.parallel_for(64, [&](std::int64_t i) {
    std::vector<std::int64_t> v(1024, i);  // ~8 KiB per index
    keep.fetch_add(v.back(), std::memory_order_relaxed);
  });
  const obs::AllocCounters d = scope.delta();
  // All 64 allocations must be visible to the caller's scope no matter
  // which worker performed them.
  EXPECT_GE(d.bytes, 64 * 1024 * static_cast<std::int64_t>(sizeof(std::int64_t)));
  EXPECT_GE(d.count, 64);
}

/// A throwing body reaches the caller as an exception, not
/// std::terminate: the lowest throwing index wins at any thread count,
/// every index before it ran, and the pool stays usable afterwards.
TEST(ThreadPool, ExceptionOfLowestIndexReachesCaller) {
  struct Thrown {
    std::int64_t index;
  };
  ThreadPool pool(4);
  const std::int64_t n = 1000;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> ran(static_cast<std::size_t>(n));
    std::int64_t caught = -1;
    try {
      pool.parallel_for(n, [&](std::int64_t i) {
        ran[static_cast<std::size_t>(i)].fetch_add(1,
                                                   std::memory_order_relaxed);
        if (i == 17 || i == 900) throw Thrown{i};
      });
    } catch (const Thrown& t) {
      caught = t.index;
    }
    ASSERT_EQ(caught, 17) << "round " << round;
    for (std::int64_t i = 0; i <= 17; ++i)
      EXPECT_EQ(ran[static_cast<std::size_t>(i)].load(), 1) << "i=" << i;

    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    pool.parallel_for(n, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                  std::memory_order_relaxed);
    });
    for (std::int64_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "i=" << i;
  }
  // The free function over the global pool, and the serial path, agree.
  for (int threads : {1, 4}) {
    std::int64_t caught = -1;
    try {
      parallel_for(threads, n, [](std::int64_t i) {
        if (i == 17 || i == 900) throw Thrown{i};
      });
    } catch (const Thrown& t) {
      caught = t.index;
    }
    EXPECT_EQ(caught, 17) << "threads=" << threads;
  }
}

TEST(ThreadPoolDefaults, ResolveThreads) {
  set_default_parallelism(3);
  EXPECT_EQ(default_parallelism(), 3);
  EXPECT_EQ(resolve_threads(0), 3);
  EXPECT_EQ(resolve_threads(5), 5);
  set_default_parallelism(1);
  EXPECT_EQ(resolve_threads(0), 1);
}

TEST(ThreadPoolDefaults, ZeroMeansHardware) {
  set_default_parallelism(0);
  EXPECT_EQ(default_parallelism(), ThreadPool::hardware_threads());
  set_default_parallelism(1);
}

TEST(ThreadPoolDefaults, FreeFunctionRespectsExplicitCount) {
  std::vector<int> out(100, 0);
  parallel_for(4, 100, [&](std::int64_t i) {
    out[static_cast<std::size_t>(i)] = static_cast<int>(i) + 1;
  });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i + 1);
}

}  // namespace
}  // namespace logstruct::util
