// Mutex / MutexLock / CondVar: annotated lock primitives.
//
// Clang's thread-safety analysis is attribute-driven: it can only track
// acquisitions of types annotated as capabilities. libstdc++'s std::mutex
// and std::lock_guard carry no such attributes, so code locking them is
// invisible to the analysis and every GUARDED_BY check silently degrades.
// These thin wrappers (the abseil/Chromium idiom) restore the contract:
// under Clang, locking and guarded access are proved consistent at compile
// time; under other compilers they compile to the std primitives with zero
// overhead.
//
// Lock discipline in this repo (enforced by tools/analyze, pass `locks`):
//   - shared mutable state lives next to a swope::Mutex member and is
//     GUARDED_BY(mutex_); raw std::mutex members are banned outside this
//     header,
//   - methods that acquire their own mutex declare REQUIRES(!mutex_)
//     (negative capability: proves non-reentrancy, so double-lock is a
//     compile error under -Wthread-safety-negative),
//   - methods called with the lock held declare REQUIRES(mutex_).

#ifndef SWOPE_COMMON_MUTEX_H_
#define SWOPE_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "src/common/thread_annotations.h"

namespace swope {

/// A non-reentrant exclusive lock. Satisfies BasicLockable, so it works
/// directly with CondVar below. Prefer MutexLock over manual lock/unlock.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII guard: acquires on construction, releases on destruction.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex. Wait/WaitFor take the Mutex
/// itself (not a guard) so the analysis can express that the caller must
/// already hold it; the wait atomically releases and reacquires.
///
/// Waits are intentionally predicate-free: callers loop
///     while (!condition) cv_.Wait(mutex_);
/// so the guarded reads in `condition` stay inside the caller's own
/// REQUIRES(mutex_) scope instead of an opaque lambda.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller still holds `mu`
  }

  template <typename Rep, typename Period>
  void WaitFor(Mutex& mu, std::chrono::duration<Rep, Period> timeout)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait_for(lock, timeout);
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  // The plain condition_variable over Mutex's own std::mutex, adopted for
  // the duration of a wait: unlike condition_variable_any it allocates
  // nothing on construction, so a CondVar in a hot frame (ThreadPool's
  // ParallelFor latch) stays off the heap. The lock calls it makes live
  // in system headers, where the analysis is silent by design.
  std::condition_variable cv_;
};

}  // namespace swope

#endif  // SWOPE_COMMON_MUTEX_H_
