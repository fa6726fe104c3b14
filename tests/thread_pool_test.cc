#include "query/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace edr {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  for (const size_t n : {0u, 1u, 2u, 7u, 100u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(n, [&hits](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  // Zero means zero on every host: no workers at all, and the caller must
  // still execute everything.
  EXPECT_EQ(pool.num_workers(), 0u);
  std::vector<int> hits(50, 0);
  const std::thread::id caller = std::this_thread::get_id();
  bool all_on_caller = true;
  pool.ParallelFor(hits.size(), [&](size_t i) {
    hits[i]++;
    if (std::this_thread::get_id() != caller) all_on_caller = false;
  });
  EXPECT_TRUE(all_on_caller);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 50);
}

TEST(ThreadPoolTest, MaxParallelismOneStaysOnCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> all_on_caller{true};
  pool.ParallelFor(
      64,
      [&](size_t) {
        if (std::this_thread::get_id() != caller) all_on_caller = false;
      },
      /*max_parallelism=*/1);
  EXPECT_TRUE(all_on_caller.load());
}

TEST(ThreadPoolTest, RepeatedJobsReuseWorkers) {
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(17, [&total](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 200u * 17u);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::atomic<size_t> total{0};
  pool.ParallelFor(8, [&](size_t) {
    // A nested call from inside a job must not deadlock on the job mutex;
    // it runs inline on the current participant.
    pool.ParallelFor(5, [&total](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 8u * 5u);
}

TEST(ThreadPoolTest, ConcurrentCallersSerializeSafely) {
  ThreadPool pool(2);
  std::atomic<size_t> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&pool, &total] {
      for (int round = 0; round < 50; ++round) {
        pool.ParallelFor(13, [&total](size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(total.load(), 4u * 50u * 13u);
}

TEST(ThreadPoolTest, SkewedWorkIsStolen) {
  ThreadPool pool(3);
  // One item is 1000x heavier; with contiguous static slices alone the
  // other participants would idle. Just assert completion and coverage —
  // the steal path runs under TSan/ASan in CI.
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(hits.size(), [&hits](size_t i) {
    volatile double sink = 0.0;
    const int spins = i == 0 ? 2000000 : 2000;
    for (int s = 0; s < spins; ++s) sink += static_cast<double>(s);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, GlobalPoolIsSingleton) {
  ThreadPool& a = ThreadPool::Global();
  ThreadPool& b = ThreadPool::Global();
  EXPECT_EQ(&a, &b);
}

TEST(ThreadPoolTest, HardwareSizedPoolIsAnExplicitRequest) {
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(ThreadPool::HardwareWorkers(), hw > 1 ? hw - 1 : 0u);
  ThreadPool pool(ThreadPool::HardwareWorkers());
  EXPECT_EQ(pool.num_workers(), ThreadPool::HardwareWorkers());
  EXPECT_EQ(ThreadPool::Global().num_workers(), ThreadPool::HardwareWorkers());
}

}  // namespace
}  // namespace edr
