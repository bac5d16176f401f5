#include "src/common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace swope {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTask) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  pool.Submit([&] { value = 42; }).get();
  EXPECT_EQ(value, 42);
}

TEST(ThreadPoolTest, AtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
  std::atomic<int> value{0};
  pool.Submit([&] { value = 7; }).get();
  EXPECT_EQ(value, 7);
}

TEST(ThreadPoolTest, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([&] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter, 200);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<int> hits(1000, 0);
  pool.ParallelFor(0, hits.size(), [&](size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool touched = false;
  pool.ParallelFor(5, 5, [&](size_t) { touched = true; });
  pool.ParallelFor(7, 3, [&](size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, ParallelForSmallRangeManyThreads) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  pool.ParallelFor(0, 3, [&](size_t) { ++counter; });
  EXPECT_EQ(counter, 3);
}

TEST(ThreadPoolTest, PoolModeNamesRoundTrip) {
  PoolMode mode = PoolMode::kSingleQueue;
  EXPECT_TRUE(ParsePoolMode("stealing", &mode));
  EXPECT_EQ(mode, PoolMode::kWorkStealing);
  EXPECT_TRUE(ParsePoolMode("single-queue", &mode));
  EXPECT_EQ(mode, PoolMode::kSingleQueue);
  EXPECT_FALSE(ParsePoolMode("bogus", &mode));
  EXPECT_STREQ(PoolModeName(PoolMode::kWorkStealing), "stealing");
  EXPECT_STREQ(PoolModeName(PoolMode::kSingleQueue), "single-queue");
}

// The A/B baseline mode must provide the same Submit/ParallelFor
// semantics as the stealing default; only scheduling differs.
TEST(ThreadPoolTest, SingleQueueModeRunsSubmitAndParallelFor) {
  ThreadPool pool(3, PoolMode::kSingleQueue);
  EXPECT_EQ(pool.mode(), PoolMode::kSingleQueue);
  std::atomic<int> value{0};
  pool.Submit([&] { value = 11; }).get();
  EXPECT_EQ(value, 11);
  std::vector<int> hits(500, 0);
  pool.ParallelFor(0, hits.size(), [&](size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
  // A central queue has no deques to steal from.
  EXPECT_EQ(pool.steals(), 0u);
}

TEST(ThreadPoolTest, ParkedWorkersAccrueIdleTimeWhileParked) {
  ThreadPool pool(2);
  pool.Submit([] {}).get();
  // Give both workers time to park, then watch them stay parked.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto idle_ns = [&pool] {
    uint64_t total = 0;
    for (const auto& w : pool.GetWorkerStats()) total += w.idle_ns;
    return total;
  };
  const uint64_t before = idle_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const uint64_t after = idle_ns();
  // Each worker's parked stretch counts without it waking up.
  EXPECT_GE(after - before, 2 * 80'000'000ull);
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { ++counter; });
    }
  }  // destructor must drain or join without crashing
  EXPECT_LE(counter.load(), 50);
}

}  // namespace
}  // namespace swope
