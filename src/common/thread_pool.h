// Fixed-size thread pool with a ParallelFor helper and a work-stealing
// executor.
//
// The query algorithms are sequential by default (the paper's experiments
// are single-threaded), but shard-decomposed counter updates are
// embarrassingly parallel; setting QueryOptions::pool routes them through
// this pool (the engine wires EngineConfig::intra_query_threads to it).
//
// Two execution modes (PoolMode):
//   kWorkStealing (default)  each worker owns a Chase–Lev-style deque;
//                            external submissions land in a shared
//                            injector queue, workers push nested work to
//                            their own deque (LIFO for the owner) and
//                            steal FIFO from peers when idle. Blocked
//                            ParallelFor callers steal too instead of
//                            sleeping, which is what keeps many small
//                            shard tasks from many concurrent queries
//                            flowing (docs/SHARDING.md).
//   kSingleQueue             one mutex-guarded FIFO, the pre-stealing
//                            executor, kept behind this flag as the
//                            determinism / throughput A/B baseline
//                            (bench/serve_throughput.cc runs both).
// Scheduling mode never affects query answers: the core's shard merge is
// order-invariant by construction, so modes are freely interchangeable.

#ifndef SWOPE_COMMON_THREAD_POOL_H_
#define SWOPE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_annotations.h"

namespace swope {

class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;

/// Executor selection for ThreadPool. See the header comment.
enum class PoolMode {
  kWorkStealing,
  kSingleQueue,
};

/// Parses "stealing" / "single-queue" (the CLI spellings); returns false
/// on anything else without touching `out`.
bool ParsePoolMode(const std::string& text, PoolMode* out);
/// Inverse of ParsePoolMode, for stats/metadata reporting.
const char* PoolModeName(PoolMode mode);

/// A work-queue thread pool. Submit returns a future for the task's
/// result or exception.
///
/// ParallelFor is reentrant: a task running on the pool may itself call
/// ParallelFor. The blocked caller helps drain queued work (popping its
/// own deque, stealing from peers, draining the injector) instead of
/// sleeping, so nested parallel sections cannot deadlock even on a
/// single-thread pool.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads)
      : ThreadPool(num_threads, nullptr, "") {}

  ThreadPool(size_t num_threads, PoolMode mode)
      : ThreadPool(num_threads, nullptr, "", mode) {}

  /// Instrumented pool: when `metrics` is non-null, the pool reports
  ///   swope_pool_queue_depth{pool=...}        gauge
  ///   swope_pool_tasks_total{pool=...}        counter
  ///   swope_pool_steals_total{pool=...}       counter (stealing mode)
  ///   swope_pool_task_wait_ms{pool=...}       histogram (enqueue -> start)
  ///   swope_pool_task_run_ms{pool=...}        histogram (start -> finish)
  /// The registry must outlive the pool.
  ThreadPool(size_t num_threads, MetricsRegistry* metrics,
             const std::string& pool_name,
             PoolMode mode = PoolMode::kWorkStealing);
  ~ThreadPool() REQUIRES(!mutex_);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }
  PoolMode mode() const { return mode_; }
  /// Successful deque steals since construction (0 in single-queue mode).
  /// Cheap enough to keep unconditionally; the engine snapshots it into
  /// swope_pool_steals_total.
  uint64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }

  /// Per-worker execution telemetry, the raw material for utilization
  /// gauges (busy fraction = run / (run + idle)). Counters are cumulative
  /// since construction and relaxed-atomic, so a snapshot is monotone but
  /// not linearizable -- monitoring semantics, like Counter.
  struct WorkerStats {
    /// Time spent executing task bodies.
    uint64_t run_ns = 0;
    /// Time spent parked in the idle wait loop (only workers accrue it;
    /// external helpers never park).
    uint64_t idle_ns = 0;
    /// Tasks executed.
    uint64_t tasks = 0;
    /// Successful steals performed *by* this worker (0 in single-queue
    /// mode).
    uint64_t steals = 0;
  };
  /// One entry per worker, plus a final entry aggregating every external
  /// helper thread (ParallelFor callers draining work while they wait).
  std::vector<WorkerStats> GetWorkerStats() const;

  /// Enqueues `fn`; the future resolves to its result (or exception)
  /// when it finishes. The task's run time and count are recorded before
  /// the future becomes ready, so a caller returning from get() sees
  /// them in GetWorkerStats. Worker threads of this pool push to their
  /// own deque (stealing mode); external threads go through the shared
  /// injector.
  template <typename Fn>
  std::future<std::invoke_result_t<Fn&>> Submit(Fn fn) REQUIRES(!mutex_) {
    using R = std::invoke_result_t<Fn&>;
    auto work = std::make_shared<std::packaged_task<R()>>(
        [this, fn = std::move(fn)]() mutable -> R {
          const RunRecorder record{*this, Stopwatch()};
          return fn();
        });
    std::future<R> future = work->get_future();
    Enqueue([work] { (*work)(); });
    return future;
  }

  /// Runs fn(i) for i in [begin, end) across the pool and blocks until all
  /// iterations complete. Iterations are distributed in contiguous chunks.
  /// If any iteration throws, the first exception is rethrown after every
  /// chunk has finished (so `fn` is never referenced after the call
  /// returns). A zero-length range returns immediately.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn) REQUIRES(!mutex_);

 private:
  /// A queued unit of work. `wait` starts at enqueue time so the task
  /// wait histogram measures time spent in the queue.
  struct Task {
    std::function<void()> fn;
    Stopwatch wait;
  };

  /// Times one task body. The destructor -- run on normal and
  /// exceptional exit alike, before the packaged task publishes the
  /// result -- adds the time to the calling thread's worker counters and,
  /// when instrumented, the run histogram.
  struct RunRecorder {
    ~RunRecorder();
    ThreadPool& pool;
    const Stopwatch run;
  };

  /// Chase–Lev-style bounded work-stealing deque over heap Task
  /// pointers. The owning worker pushes and pops at the bottom (LIFO);
  /// thieves CAS the top (FIFO). Every access is a seq_cst atomic -- the
  /// classic algorithm minus the relaxed-ordering refinements -- which
  /// keeps it data-race-free by construction (the TSan stress jobs run
  /// it hard). A full deque rejects the push and the task overflows to
  /// the shared injector, so capacity is a performance knob, not a
  /// correctness bound.
  class StealDeque {
   public:
    static constexpr size_t kCapacity = 1024;  // power of two
    static constexpr size_t kMask = kCapacity - 1;

    StealDeque() : cells_(kCapacity) {
      for (auto& cell : cells_) cell.store(nullptr);
    }

    /// Owner only. False when full.
    bool Push(Task* task) {
      const int64_t b = bottom_.load();
      const int64_t t = top_.load();
      if (b - t >= static_cast<int64_t>(kCapacity)) return false;
      cells_[static_cast<size_t>(b) & kMask].store(task);
      bottom_.store(b + 1);
      return true;
    }

    /// Owner only. Null when empty.
    Task* Pop() {
      const int64_t b = bottom_.load() - 1;
      bottom_.store(b);
      int64_t t = top_.load();
      if (t > b) {  // empty
        bottom_.store(b + 1);
        return nullptr;
      }
      Task* task = cells_[static_cast<size_t>(b) & kMask].load();
      if (t == b) {
        // Last element: race the thieves for it.
        if (!top_.compare_exchange_strong(t, t + 1)) task = nullptr;
        bottom_.store(b + 1);
      }
      return task;
    }

    /// Any thread. Null when empty or lost the race.
    Task* Steal() {
      int64_t t = top_.load();
      const int64_t b = bottom_.load();
      if (t >= b) return nullptr;
      Task* task = cells_[static_cast<size_t>(t) & kMask].load();
      if (!top_.compare_exchange_strong(t, t + 1)) return nullptr;
      return task;
    }

    bool Empty() const { return top_.load() >= bottom_.load(); }

   private:
    std::vector<std::atomic<Task*>> cells_;
    std::atomic<int64_t> top_{0};
    std::atomic<int64_t> bottom_{0};
  };

  void WorkerLoop(size_t worker_index) REQUIRES(!mutex_);

  /// Pops and runs one queued task if available: own deque first (when
  /// the caller is a worker of this pool), then the injector, then a
  /// steal sweep over every worker deque. Returns false when no task was
  /// found. Used by ParallelFor callers to help make progress while they
  /// wait on their chunks -- external waiters steal too.
  bool RunOneTask() REQUIRES(!mutex_);

  /// Finds one task without running it (the RunOneTask scan). `self` is
  /// the calling worker's deque or null for external threads.
  Task* FindTask(StealDeque* self) REQUIRES(!mutex_);

  /// Pops one injector task; null when empty.
  Task* PopInjector() REQUIRES(!mutex_);

  /// Steal sweep: one round over every worker deque except `self`.
  Task* TrySteal(const StealDeque* self);

  /// Queues a type-erased task body: on the calling worker's own deque
  /// when possible, else through the injector.
  void Enqueue(std::function<void()> body) REQUIRES(!mutex_);

  /// Enqueues in the shared injector and wakes a worker.
  void SubmitToInjector(Task* task) REQUIRES(!mutex_);

  /// Runs a heap task, feeding the queue-depth gauge and wait histogram
  /// when the pool is instrumented, and frees it.
  void RunTask(Task* task);

  /// Index into worker_cells_ for the calling thread: its worker slot on
  /// this pool's threads, the final external-helper slot otherwise.
  size_t StatsSlot() const;

  const PoolMode mode_;

  /// Written only during construction (before workers run) and joined in
  /// the destructor; never mutated while the pool is concurrent.
  // NOLINTNEXTLINE(swope-lock-discipline): ctor/dtor-only state
  std::vector<std::thread> workers_;
  /// One deque per worker; the vector itself is ctor-immutable, each
  /// deque is internally synchronized (atomics).
  // NOLINTNEXTLINE(swope-lock-discipline): ctor-immutable, atomic cells
  std::vector<std::unique_ptr<StealDeque>> deques_;
  Mutex mutex_;
  /// Shared injector: external submissions and deque overflow.
  std::queue<Task*> injector_ GUARDED_BY(mutex_);
  bool stop_ GUARDED_BY(mutex_) = false;
  CondVar cv_;
  std::atomic<uint64_t> steals_{0};
  /// Tasks queued anywhere (injector + deques); lets sleeping workers
  /// avoid a full deque sweep per wakeup check.
  std::atomic<int64_t> pending_{0};

  /// Per-worker telemetry cells, one cache line each so concurrent
  /// workers never contend; sized workers + 1 (the last is the shared
  /// external-helper slot). The vector itself is ctor-immutable.
  struct alignas(64) WorkerCell {
    std::atomic<uint64_t> run_ns{0};
    std::atomic<uint64_t> idle_ns{0};
    std::atomic<uint64_t> tasks{0};
    std::atomic<uint64_t> steals{0};
  };
  // NOLINTNEXTLINE(swope-lock-discipline): ctor-immutable, atomic cells
  std::vector<WorkerCell> worker_cells_;

  /// Metric handles, resolved once at construction; all null for an
  /// uninstrumented pool.
  Gauge* const queue_depth_;
  Counter* const tasks_total_;
  Counter* const steals_total_;
  Histogram* const wait_ms_;
  Histogram* const run_ms_;
};

}  // namespace swope

#endif  // SWOPE_COMMON_THREAD_POOL_H_
