// CodeScratchArena: reusable decode buffers for gather-then-count.
//
// Scorers decode each round's newly exposed permutation slice into a
// scratch buffer before feeding the span to a counter (the split the
// bit-packed storage forces: PackedCodes has no per-row hot path). The
// arena keeps those buffers alive across rounds and hands them out to
// whichever worker asks, so a query allocates O(pool size) buffers total
// instead of one per (candidate, round). Buffer contents are never
// reused -- Gather overwrites the prefix a lease reads -- so recycling
// cannot affect results.

#ifndef SWOPE_CORE_CODE_SCRATCH_H_
#define SWOPE_CORE_CODE_SCRATCH_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/table/packed_codes.h"

namespace swope {

/// A thread-safe pool of ValueCode vectors. Acquire returns a buffer
/// (empty or recycled); Release returns it for reuse. Typical use is via
/// the RAII Lease.
class CodeScratchArena {
 public:
  /// RAII lease: holds a buffer, returns it to the arena on destruction.
  class Lease {
   public:
    explicit Lease(CodeScratchArena& arena) REQUIRES(!arena.mutex_)
        : arena_(&arena), buffer_(arena.Acquire()) {}
    ~Lease() REQUIRES(!arena_->mutex_) {
      if (arena_ != nullptr) arena_->Release(std::move(buffer_));
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    std::vector<ValueCode>& buffer() { return buffer_; }

   private:
    CodeScratchArena* arena_;
    std::vector<ValueCode> buffer_;
  };

  std::vector<ValueCode> Acquire() REQUIRES(!mutex_) {
    MutexLock lock(mutex_);
    if (free_.empty()) return {};
    std::vector<ValueCode> buffer = std::move(free_.back());
    free_.pop_back();
    return buffer;
  }

  void Release(std::vector<ValueCode> buffer) REQUIRES(!mutex_) {
    MutexLock lock(mutex_);
    free_.push_back(std::move(buffer));
  }

  /// Keeps at least `count` idle buffers of at least `size` values each,
  /// so `count` concurrent leases of that size allocate nothing. Leases
  /// pop and push at the back, so up to `count` concurrent leases only
  /// ever hold the last `count` buffers. Sorting by capacity puts the
  /// largest there, and only those grow, so a query whose rounds reserve
  /// varying counts stops allocating once warm. Call while no lease is
  /// out (between rounds).
  void Reserve(size_t count, size_t size) REQUIRES(!mutex_) {
    MutexLock lock(mutex_);
    if (free_.size() < count) free_.resize(count);
    std::sort(free_.begin(), free_.end(),
              [](const std::vector<ValueCode>& a,
                 const std::vector<ValueCode>& b) {
                return a.capacity() < b.capacity();
              });
    for (size_t i = free_.size() - count; i < free_.size(); ++i) {
      if (free_[i].size() < size) free_[i].resize(size);
    }
  }

 private:
  Mutex mutex_;
  std::vector<std::vector<ValueCode>> free_ GUARDED_BY(mutex_);
};

}  // namespace swope

#endif  // SWOPE_CORE_CODE_SCRATCH_H_
