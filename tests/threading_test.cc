// Unit tests for the threading substrate.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "threading/thread_pool.h"

namespace bytebrain {
namespace {

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, DestructionDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  pool.Wait();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, ScheduleFutureCompletesAfterTask) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  std::future<void> done = pool.Schedule([&ran] { ran = true; });
  done.get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, ScheduleTracksOneTaskNotTheWholePool) {
  // A single-thread pool runs FIFO: waiting on task 1's future must not
  // require the later long-running task 2 to finish (unlike Wait()).
  ThreadPool pool(1);
  std::promise<void> release_second;
  std::atomic<int> order{0};
  std::future<void> first = pool.Schedule([&order] { order = 1; });
  pool.Submit([&release_second, &order] {
    release_second.get_future().wait();
    order = 2;
  });
  first.get();
  EXPECT_EQ(order.load(), 1);  // second task still parked
  release_second.set_value();
  pool.Wait();
  EXPECT_EQ(order.load(), 2);
}

TEST(ThreadPoolTest, ScheduleCapturesTaskException) {
  ThreadPool pool(1);
  std::future<void> done =
      pool.Schedule([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(done.get(), std::runtime_error);
  // The worker survived the throwing task and keeps serving.
  std::atomic<bool> ran{false};
  pool.Schedule([&ran] { ran = true; }).get();
  EXPECT_TRUE(ran.load());
}

TEST(ParallelForTest, CoversAllIndicesExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(1000, 8, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ParallelFor(0, 4, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelForTest, SingleThreadRunsInline) {
  std::thread::id main_id = std::this_thread::get_id();
  ParallelFor(10, 1, [main_id](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), main_id);
  });
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  std::atomic<int> count{0};
  ParallelFor(3, 16, [&count](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
  for (size_t n : {1, 2, 3}) {
    std::vector<std::atomic<int>> hits(n);
    ParallelFor(n, 16, [&hits](size_t i) { hits[i].fetch_add(1); });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << "count=" << n;
  }
}

TEST(ParallelForTest, SlowItemDoesNotHoldBackTheRest) {
  // Index 0 blocks until every other index has run. Under a fixed block
  // split its block-mates would wait behind it; with dynamic claiming
  // the other workers drain them. The deadline only bounds a failure.
  constexpr size_t kCount = 64;
  ASSERT_GE(ShardParallelism(kCount, 4), 2u);
  std::vector<std::atomic<int>> hits(kCount);
  std::atomic<size_t> others_done{0};
  std::atomic<bool> drained{false};
  ParallelFor(kCount, 4, [&](size_t i) {
    hits[i].fetch_add(1);
    if (i != 0) {
      others_done.fetch_add(1);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (others_done.load() < kCount - 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    drained = others_done.load() == kCount - 1;
  });
  EXPECT_TRUE(drained.load());
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, SkewedCostsRunEveryIndexOnce) {
  constexpr size_t kCount = 257;
  std::vector<std::atomic<int>> hits(kCount);
  ParallelFor(kCount, 4, [&hits](size_t i) {
    // A few items cost orders of magnitude more than the rest.
    if (i % 64 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, NestedCallRunsInlineAndCoversEveryIndex) {
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 100;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::atomic<int> off_thread_inner{0};
  ParallelFor(kOuter, 4, [&](size_t i) {
    const std::thread::id outer = std::this_thread::get_id();
    ParallelFor(kInner, 4, [&](size_t j) {
      hits[i * kInner + j].fetch_add(1);
      // Inside a pool worker's shard the nested loop must not fan out.
      if (outer != caller && std::this_thread::get_id() != outer) {
        off_thread_inner.fetch_add(1);
      }
    });
  });
  EXPECT_EQ(off_thread_inner.load(), 0);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForShardsTest, ShardsArePartition) {
  constexpr size_t kCount = 1003;
  std::vector<std::atomic<int>> hits(kCount);
  ParallelForShards(kCount, 7, [&hits](size_t begin, size_t end) {
    ASSERT_LE(begin, end);
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  int total = 0;
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
    total += h.load();
  }
  EXPECT_EQ(total, static_cast<int>(kCount));
}

TEST(ParallelForTest, SumMatchesSequential) {
  constexpr size_t kN = 4096;
  std::vector<long> values(kN);
  std::iota(values.begin(), values.end(), 0);
  std::atomic<long> sum{0};
  ParallelFor(kN, 4, [&](size_t i) { sum.fetch_add(values[i]); });
  EXPECT_EQ(sum.load(), static_cast<long>(kN * (kN - 1) / 2));
}

}  // namespace
}  // namespace bytebrain
