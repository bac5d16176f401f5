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
//                            ParallelFor callers steal too before they
//                            sleep, so a query's own thread is one more
//                            execution lane for its round
//                            (docs/SHARDING.md).
//   kSingleQueue             one mutex-guarded FIFO, the pre-stealing
//                            executor, kept behind this flag as the
//                            determinism / throughput A/B baseline
//                            (bench/serve_throughput.cc runs both).
// Scheduling mode never affects query answers: the core's shard merge is
// order-invariant by construction, so modes are freely interchangeable.
//
// Queueing allocates nothing: tasks are intrusive nodes, and ParallelFor
// chunks live in the caller's frame and report to a countdown latch
// there. Idle workers sleep on a condition variable until work is queued.

#ifndef SWOPE_COMMON_THREAD_POOL_H_
#define SWOPE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
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
/// own deque, stealing from peers, draining the injector) and sleeps only
/// once nothing is left to take, when each of its outstanding chunks is
/// running on some thread. So nested parallel sections cannot deadlock,
/// even on a single-thread pool.
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
    /// Time spent parked in the idle wait loop, including the stretch of
    /// a worker that is parked right now (only workers accrue it;
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
  std::vector<WorkerStats> GetWorkerStats() const REQUIRES(!mutex_);

  /// Enqueues `fn`; the future resolves to its result (or exception)
  /// when it finishes. The task's run time and count are recorded before
  /// the future becomes ready, so a caller returning from get() sees
  /// them in GetWorkerStats. Worker threads of this pool push to their
  /// own deque (stealing mode); external threads go through the shared
  /// injector.
  template <typename Fn>
  std::future<std::invoke_result_t<Fn&>> Submit(Fn fn) REQUIRES(!mutex_) {
    using R = std::invoke_result_t<Fn&>;
    // A heap task that owns the packaged body and frees itself once run.
    struct Submitted : Task {
      explicit Submitted(std::packaged_task<R()> body)
          : work(std::move(body)) {}
      std::packaged_task<R()> work;
    };
    auto task = std::make_unique<Submitted>(std::packaged_task<R()>(
        [this, fn = std::move(fn)]() mutable -> R {
          const RunRecorder record{*this, Stopwatch()};
          return fn();
        }));
    task->run = [](Task* base) {
      const std::unique_ptr<Submitted> self(static_cast<Submitted*>(base));
      self->work();
    };
    std::future<R> future = task->work.get_future();
    Task* const queued = task.release();  // reclaimed by `run`
    Enqueue(&queued, 1);
    return future;
  }

  /// Most chunks one ParallelFor splits its range into (the chunks live
  /// on the caller's stack). Stealing mode aims for 4 chunks per worker,
  /// so a pool wider than kMaxChunks / 4 loses part of that rebalancing
  /// slack, and one wider than kMaxChunks leaves workers idle in a call.
  static constexpr size_t kMaxChunks = 64;

  /// Runs fn(i) for i in [begin, end) across the pool and blocks until all
  /// iterations complete. Iterations are distributed in at most
  /// kMaxChunks contiguous chunks that live in this call's frame, so a
  /// call allocates nothing. If any iteration throws, the first
  /// exception is rethrown after every chunk has finished (so `fn` is
  /// never referenced after the call returns).
  /// A zero-length range returns immediately.
  template <typename Fn>
  void ParallelFor(size_t begin, size_t end, Fn&& fn) REQUIRES(!mutex_) {
    using Body = std::remove_reference_t<Fn>;
    ParallelForImpl(
        begin, end,
        [](const void* body, size_t i) {
          (*static_cast<Body*>(const_cast<void*>(body)))(i);
        },
        &fn);
  }

 private:
  /// A queued unit of work: an intrusive node, so queueing it allocates
  /// nothing. `run` executes the body and is the last access to the
  /// task (a ParallelFor chunk's frame may end right after it). The
  /// enqueue time feeds the wait histogram of instrumented pools.
  struct Task {
    void (*run)(Task*) = nullptr;
    Task* next = nullptr;
    std::chrono::steady_clock::time_point enqueued{};
  };

  /// Times one task body. The destructor -- run on normal and
  /// exceptional exit alike, before the task publishes its completion
  /// (future or latch) -- adds the time to the calling thread's worker
  /// counters and, when instrumented, the run histogram.
  struct RunRecorder {
    ~RunRecorder();
    ThreadPool& pool;
    const Stopwatch run;
  };

  /// Counts a ParallelFor's outstanding chunks down to zero and keeps the
  /// first exception. Counting happens under the latch's own mutex, so
  /// the waiter cannot return (and end the frame holding the latch)
  /// before the last chunk has released it.
  class Latch {
   public:
    explicit Latch(size_t count) : count_(count) {}
    void CountDown(std::exception_ptr error) REQUIRES(!mutex_);
    /// True once every chunk finished.
    bool Done() REQUIRES(!mutex_);
    /// Blocks until Done(); returns the first chunk exception, if any.
    std::exception_ptr Wait() REQUIRES(!mutex_);

   private:
    Mutex mutex_;
    CondVar cv_;
    size_t count_ GUARDED_BY(mutex_);
    std::exception_ptr error_ GUARDED_BY(mutex_);
  };

  /// One ParallelFor chunk: fn(i) for i in [lo, hi).
  struct ChunkTask : Task {
    ThreadPool* pool = nullptr;
    Latch* latch = nullptr;
    void (*call)(const void*, size_t) = nullptr;
    const void* body = nullptr;
    size_t lo = 0;
    size_t hi = 0;
  };

  void ParallelForImpl(size_t begin, size_t end,
                       void (*call)(const void*, size_t), const void* body)
      REQUIRES(!mutex_);

  /// Runs a ChunkTask and counts its latch down.
  static void RunChunk(Task* base);

  /// Chase–Lev-style bounded work-stealing deque over Task pointers.
  /// The owning worker pushes and pops at the bottom (LIFO); thieves CAS
  /// the top (FIFO). Every access is a seq_cst atomic -- the
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

  /// Queues `count` tasks -- on the calling worker's own deque when
  /// possible, the rest through the injector -- and wakes workers.
  void Enqueue(Task* const* tasks, size_t count) REQUIRES(!mutex_);

  /// Feeds the queue-depth gauge and wait histogram when the pool is
  /// instrumented, then runs the task.
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
  /// Also read by GetWorkerStats, hence mutable.
  mutable Mutex mutex_;
  /// Shared injector, an intrusive FIFO through Task::next: external
  /// submissions and deque overflow.
  Task* injector_head_ GUARDED_BY(mutex_) = nullptr;
  Task* injector_tail_ GUARDED_BY(mutex_) = nullptr;
  bool stop_ GUARDED_BY(mutex_) = false;
  CondVar cv_;
  std::atomic<uint64_t> steals_{0};
  /// Tasks queued anywhere (injector + deques); lets sleeping workers
  /// avoid a full deque sweep per wakeup check. Raised under mutex_, so
  /// a worker that saw 0 under the lock is already waiting when the
  /// matching notify arrives: the idle wait needs no timeout.
  std::atomic<int64_t> pending_{0};

  /// Per-worker telemetry cells, one cache line each so concurrent
  /// workers never contend; sized workers + 1 (the last is the shared
  /// external-helper slot). The vector itself is ctor-immutable.
  struct alignas(64) WorkerCell {
    std::atomic<uint64_t> run_ns{0};
    std::atomic<uint64_t> idle_ns{0};
    /// Steady-clock ns at which the worker parked, 0 while it is awake.
    /// Set and cleared (with the idle_ns credit) under mutex_, which
    /// GetWorkerStats also holds, so a parked stretch counts exactly once.
    std::atomic<int64_t> parked_since_ns{0};
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
