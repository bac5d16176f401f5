// Zero-allocation serving regression test.
//
// Interposes global operator new/delete with a counting allocator and
// provides the strong definition of swope::AllocationCount() (the weak
// default in src/common/alloc_hook.cc yields to it). The test then pins
// the steady-state contract: with a pooled QueryMemory (arena + scratch)
// and a pre-built shared row order, a warmed-up serial query performs
// ZERO heap allocations -- not "few", zero. Any regression that slips a
// per-query std::vector, std::string, or node allocation back into the
// core path fails here with an exact count.
//
// Under ASan/TSan the sanitizer runtime owns operator new, so the
// interposer is compiled out and the tests skip.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/alloc_hook.h"
#include "src/common/thread_pool.h"
#include "src/core/query_memory.h"
#include "src/core/query_options.h"
#include "src/core/query_result.h"
#include "src/core/swope_filter_entropy.h"
#include "src/core/swope_topk_entropy.h"
#include "src/core/swope_topk_mi.h"
#include "src/table/shuffle.h"
#include "src/table/table.h"
#include "tests/test_util.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SWOPE_ALLOC_INTERPOSER 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SWOPE_ALLOC_INTERPOSER 0
#else
#define SWOPE_ALLOC_INTERPOSER 1
#endif
#else
#define SWOPE_ALLOC_INTERPOSER 1
#endif

#if SWOPE_ALLOC_INTERPOSER

namespace {
// Relaxed is fine: only deltas are compared, read once the counted
// region (pool tasks included) has completed.
std::atomic<uint64_t> g_allocations{0};

void* CountedNew(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedNewAligned(size_t size, std::align_val_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<size_t>(alignment),
                                   (size + static_cast<size_t>(alignment) - 1) /
                                       static_cast<size_t>(alignment) *
                                       static_cast<size_t>(alignment))) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

// Strong definition: overrides the weak zero in src/common/alloc_hook.cc.
namespace swope {
uint64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}
}  // namespace swope

void* operator new(size_t size) { return CountedNew(size); }
void* operator new[](size_t size) { return CountedNew(size); }
void* operator new(size_t size, std::align_val_t a) {
  return CountedNewAligned(size, a);
}
void* operator new[](size_t size, std::align_val_t a) {
  return CountedNewAligned(size, a);
}
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // SWOPE_ALLOC_INTERPOSER

namespace swope {
namespace {

#if !SWOPE_ALLOC_INTERPOSER
TEST(AllocRegressionTest, SkippedUnderSanitizers) {
  GTEST_SKIP() << "sanitizer runtime owns operator new; interposer disabled";
}
#else

// Runs `query` against pooled memory and returns the heap-allocation
// count of the LAST of `rounds` executions (earlier ones are warmup:
// they size the arena blocks and decode buffers).
template <typename QueryFn>
uint64_t SteadyStateAllocs(const std::shared_ptr<QueryMemoryPool>& pool,
                           QueryFn query, int rounds) {
  uint64_t last = 0;
  for (int i = 0; i < rounds; ++i) {
    QueryMemoryLease lease = QueryMemoryPool::Acquire(pool);
    const uint64_t before = AllocationCount();
    {
      QueryOptions options;
      options.seed = 7;
      options.memory = lease->arena().resource();
      options.scratch = &lease->scratch();
      auto result = query(options);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      last = AllocationCount() - before;
    }  // result (arena-backed) dies before the lease rewinds the arena
  }
  return last;
}

TEST(AllocRegressionTest, InterposerCounts) {
  const uint64_t before = AllocationCount();
  auto p = std::make_unique<std::vector<int>>(100);
  const uint64_t after = AllocationCount();
  EXPECT_GT(after, before);
  (void)p;
}

TEST(AllocRegressionTest, EntropyTopKSteadyStateIsZeroAlloc) {
  const uint64_t rows = 4000;
  Table table = test::MakeEntropyTable({1.0, 2.5, 0.5, 1.8, 3.0}, rows, 11);
  auto order = std::make_shared<const std::vector<uint32_t>>(
      ShuffledRowOrder(static_cast<uint32_t>(rows), /*seed=*/7));
  auto pool = std::make_shared<QueryMemoryPool>();

  const uint64_t allocs = SteadyStateAllocs(
      pool,
      [&](QueryOptions& options) {
        options.shared_order = order;  // else the sampler shuffles per query
        return SwopeTopKEntropy(table, /*k=*/2, options);
      },
      /*rounds=*/4);
  EXPECT_EQ(allocs, 0u) << "entropy top-k steady state must not touch the "
                           "heap; see docs/ENGINE.md";
}

TEST(AllocRegressionTest, EntropyFilterSteadyStateIsZeroAlloc) {
  const uint64_t rows = 4000;
  Table table = test::MakeEntropyTable({1.0, 2.5, 0.5, 1.8}, rows, 13);
  auto order = std::make_shared<const std::vector<uint32_t>>(
      ShuffledRowOrder(static_cast<uint32_t>(rows), /*seed=*/7));
  auto pool = std::make_shared<QueryMemoryPool>();

  const uint64_t allocs = SteadyStateAllocs(
      pool,
      [&](QueryOptions& options) {
        options.epsilon = 0.05;
        options.shared_order = order;
        return SwopeFilterEntropy(table, /*eta=*/1.5, options);
      },
      /*rounds=*/4);
  EXPECT_EQ(allocs, 0u) << "entropy filter steady state must not touch the "
                           "heap; see docs/ENGINE.md";
}

TEST(AllocRegressionTest, MiTopKSteadyStateIsZeroAlloc) {
  const uint64_t rows = 4000;
  Table table = test::MakeMiTable({0.9, 0.1, 0.5}, rows, 17);
  auto order = std::make_shared<const std::vector<uint32_t>>(
      ShuffledRowOrder(static_cast<uint32_t>(rows), /*seed=*/7));
  auto pool = std::make_shared<QueryMemoryPool>();

  const uint64_t allocs = SteadyStateAllocs(
      pool,
      [&](QueryOptions& options) {
        options.epsilon = 0.5;
        options.shared_order = order;
        return SwopeTopKMi(table, /*target=*/0, /*k=*/1, options);
      },
      /*rounds=*/4);
  EXPECT_EQ(allocs, 0u) << "MI top-k steady state must not touch the heap; "
                           "see docs/ENGINE.md";
}

// Fanned-out rounds: ParallelFor's chunks live in the caller's frame and
// queue intrusively, round scratch comes from the arena, and the decode
// buffers every lane leases are reserved before the fan-out -- so a warm
// query on a ThreadPool allocates nothing either, on whichever thread.
TEST(AllocRegressionTest, EntropyTopKOnThreadPoolIsZeroAlloc) {
  const uint64_t rows = 4000;
  // Sharded, so rounds take the (candidate x shard) path with its
  // partition and per-shard deltas.
  Table table = test::MakeEntropyTable({1.0, 2.5, 0.5, 1.8, 3.0}, rows, 11)
                    .Resharded(1024);
  ASSERT_GT(table.num_shards(), 1u);
  auto order = std::make_shared<const std::vector<uint32_t>>(
      ShuffledRowOrder(static_cast<uint32_t>(rows), /*seed=*/7));
  auto pool = std::make_shared<QueryMemoryPool>();
  ThreadPool workers(3);

  const uint64_t allocs = SteadyStateAllocs(
      pool,
      [&](QueryOptions& options) {
        options.shared_order = order;
        options.pool = &workers;
        return SwopeTopKEntropy(table, /*k=*/2, options);
      },
      /*rounds=*/4);
  EXPECT_EQ(allocs, 0u) << "fanned-out entropy top-k must not touch the "
                           "heap; see docs/ENGINE.md";
}

TEST(AllocRegressionTest, MiTopKOnThreadPoolIsZeroAlloc) {
  const uint64_t rows = 4000;
  // One shard: rounds take the candidate-task path.
  Table table = test::MakeMiTable({0.9, 0.1, 0.5}, rows, 17);
  ASSERT_EQ(table.num_shards(), 1u);
  auto order = std::make_shared<const std::vector<uint32_t>>(
      ShuffledRowOrder(static_cast<uint32_t>(rows), /*seed=*/7));
  auto pool = std::make_shared<QueryMemoryPool>();
  ThreadPool workers(3);

  const uint64_t allocs = SteadyStateAllocs(
      pool,
      [&](QueryOptions& options) {
        options.epsilon = 0.5;
        options.shared_order = order;
        options.pool = &workers;
        return SwopeTopKMi(table, /*target=*/0, /*k=*/1, options);
      },
      /*rounds=*/4);
  EXPECT_EQ(allocs, 0u) << "fanned-out MI top-k must not touch the heap; "
                           "see docs/ENGINE.md";
}

TEST(AllocRegressionTest, ColdQueryAllocatesThenPoolAbsorbsIt) {
  const uint64_t rows = 2000;
  Table table = test::MakeEntropyTable({1.0, 2.0}, rows, 19);
  auto order = std::make_shared<const std::vector<uint32_t>>(
      ShuffledRowOrder(static_cast<uint32_t>(rows), /*seed=*/7));
  auto pool = std::make_shared<QueryMemoryPool>();

  // First execution is allowed (expected, even) to allocate: it sizes
  // the arena chain and the scratch buffers.
  uint64_t first = 0;
  {
    QueryMemoryLease lease = QueryMemoryPool::Acquire(pool);
    QueryOptions options;
    options.seed = 7;
    options.shared_order = order;
    options.memory = lease->arena().resource();
    options.scratch = &lease->scratch();
    const uint64_t before = AllocationCount();
    auto result = SwopeTopKEntropy(table, 1, options);
    ASSERT_TRUE(result.ok());
    first = AllocationCount() - before;
  }
  EXPECT_GT(first, 0u);
  EXPECT_GT(pool->IdleArenaBytes(), 0u);
}

#endif  // SWOPE_ALLOC_INTERPOSER

}  // namespace
}  // namespace swope
