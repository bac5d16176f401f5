// Counting operator new for the benchmark binary. It provides the strong
// definition of swope::AllocationCount() (src/common/alloc_hook.h), so
// the per-query "allocs" field of profile=1 replies carries real counts.
// The count is process-wide; the benchmark reads it only from its serial
// probe, where one query runs at a time. Compiled out under sanitizers,
// whose runtimes own operator new.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/common/alloc_hook.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_COUNT_ALLOCATIONS 0
#else
#define PERFBENCH_COUNT_ALLOCATIONS 1
#endif

#if PERFBENCH_COUNT_ALLOCATIONS

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedNew(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedNewAligned(size_t size, std::align_val_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const size_t align = static_cast<size_t>(alignment);
  const size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

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

#endif  // PERFBENCH_COUNT_ALLOCATIONS
