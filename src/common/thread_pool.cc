#include "src/common/thread_pool.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <exception>
#include <memory>
#include <utility>

#include "src/obs/metrics.h"

namespace swope {

namespace {

// Identity of the current thread within its owning pool, set once at
// worker startup. Lets Submit route nested work to the submitting
// worker's own deque and RunOneTask pop it LIFO.
thread_local ThreadPool* tls_pool = nullptr;
thread_local size_t tls_worker_index = 0;

// Steady-clock nanoseconds since the clock's epoch; never 0 in practice,
// which WorkerCell::parked_since_ns uses as "awake".
int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyNow().time_since_epoch())
      .count();
}

}  // namespace

bool ParsePoolMode(const std::string& text, PoolMode* out) {
  if (text == "stealing") {
    *out = PoolMode::kWorkStealing;
    return true;
  }
  if (text == "single-queue") {
    *out = PoolMode::kSingleQueue;
    return true;
  }
  return false;
}

const char* PoolModeName(PoolMode mode) {
  return mode == PoolMode::kWorkStealing ? "stealing" : "single-queue";
}

ThreadPool::ThreadPool(size_t num_threads, MetricsRegistry* metrics,
                       const std::string& pool_name, PoolMode mode)
    : mode_(mode),
      worker_cells_(std::max<size_t>(1, num_threads) + 1),
      queue_depth_(metrics != nullptr
                       ? metrics->GetGauge("swope_pool_queue_depth",
                                           {{"pool", pool_name}})
                       : nullptr),
      tasks_total_(metrics != nullptr
                       ? metrics->GetCounter("swope_pool_tasks_total",
                                             {{"pool", pool_name}})
                       : nullptr),
      steals_total_(metrics != nullptr
                       ? metrics->GetCounter("swope_pool_steals_total",
                                             {{"pool", pool_name}})
                       : nullptr),
      wait_ms_(metrics != nullptr
                   ? metrics->GetHistogram("swope_pool_task_wait_ms",
                                           {{"pool", pool_name}},
                                           DefaultLatencyBucketsMs())
                   : nullptr),
      run_ms_(metrics != nullptr
                  ? metrics->GetHistogram("swope_pool_task_run_ms",
                                          {{"pool", pool_name}},
                                          DefaultLatencyBucketsMs())
                  : nullptr) {
  const size_t n = std::max<size_t>(1, num_threads);
  if (mode_ == PoolMode::kWorkStealing) {
    deques_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      deques_.push_back(std::make_unique<StealDeque>());
    }
  }
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // A fresh thread starts with no locks held; stating that lets the
    // negative-capability analysis accept the WorkerLoop call.
    workers_.emplace_back(
        [this, i]() REQUIRES(!mutex_) { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Enqueue(Task* const* tasks, size_t count) {
  if (queue_depth_ != nullptr) {
    const auto now = SteadyNow();
    for (size_t i = 0; i < count; ++i) tasks[i]->enqueued = now;
  }
  // Nested submissions from one of our own workers go to its deque, no
  // lock needed for the push; external ones and deque overflow go to the
  // injector.
  size_t pushed = 0;
  if (mode_ == PoolMode::kWorkStealing && tls_pool == this) {
    StealDeque& own = *deques_[tls_worker_index];
    while (pushed < count && own.Push(tasks[pushed])) ++pushed;
  }
  {
    MutexLock lock(mutex_);
    for (size_t i = pushed; i < count; ++i) {
      Task* task = tasks[i];
      task->next = nullptr;
      if (injector_tail_ != nullptr) {
        injector_tail_->next = task;
      } else {
        injector_head_ = task;
      }
      injector_tail_ = task;
    }
    // Counted under mutex_: a worker checks pending_ under the same lock
    // before it sleeps, so either it sees these tasks or it is already
    // waiting when the notify below arrives.
    pending_.fetch_add(static_cast<int64_t>(count));
  }
  if (queue_depth_ != nullptr) queue_depth_->Add(static_cast<int64_t>(count));
  if (count >= workers_.size()) {
    cv_.NotifyAll();
  } else {
    for (size_t i = 0; i < count; ++i) cv_.NotifyOne();
  }
}

size_t ThreadPool::StatsSlot() const {
  return tls_pool == this ? tls_worker_index : workers_.size();
}

std::vector<ThreadPool::WorkerStats> ThreadPool::GetWorkerStats() const {
  std::vector<WorkerStats> stats(worker_cells_.size());
  // Under mutex_, a parked worker can neither wake nor credit its stretch
  // to idle_ns, so the stretch so far is added here exactly once.
  MutexLock lock(mutex_);
  const int64_t now = SteadyNowNs();
  for (size_t i = 0; i < worker_cells_.size(); ++i) {
    const WorkerCell& cell = worker_cells_[i];
    const int64_t parked_since =
        cell.parked_since_ns.load(std::memory_order_relaxed);
    stats[i].run_ns = cell.run_ns.load(std::memory_order_relaxed);
    stats[i].idle_ns =
        cell.idle_ns.load(std::memory_order_relaxed) +
        (parked_since != 0 ? static_cast<uint64_t>(now - parked_since) : 0);
    stats[i].tasks = cell.tasks.load(std::memory_order_relaxed);
    stats[i].steals = cell.steals.load(std::memory_order_relaxed);
  }
  return stats;
}

void ThreadPool::RunTask(Task* task) {
  if (queue_depth_ != nullptr) {
    queue_depth_->Add(-1);
    tasks_total_->Increment();
    wait_ms_->Observe(std::chrono::duration<double, std::milli>(
                          SteadyNow() - task->enqueued)
                          .count());
  }
  // Last access: the task may be freed or its frame gone once it ran.
  task->run(task);
}

ThreadPool::RunRecorder::~RunRecorder() {
  const double run_ms = run.ElapsedMillis();
  if (pool.run_ms_ != nullptr) pool.run_ms_->Observe(run_ms);
  WorkerCell& cell = pool.worker_cells_[pool.StatsSlot()];
  cell.run_ns.fetch_add(static_cast<uint64_t>(run_ms * 1e6),
                        std::memory_order_relaxed);
  cell.tasks.fetch_add(1, std::memory_order_relaxed);
}

void ThreadPool::Latch::CountDown(std::exception_ptr error) {
  MutexLock lock(mutex_);
  if (error && !error_) error_ = std::move(error);
  if (--count_ == 0) cv_.NotifyAll();
}

bool ThreadPool::Latch::Done() {
  MutexLock lock(mutex_);
  return count_ == 0;
}

std::exception_ptr ThreadPool::Latch::Wait() {
  MutexLock lock(mutex_);
  while (count_ > 0) cv_.Wait(mutex_);
  return error_;
}

void ThreadPool::RunChunk(Task* base) {
  const ChunkTask& chunk = *static_cast<ChunkTask*>(base);
  std::exception_ptr error;
  {
    const RunRecorder record{*chunk.pool, Stopwatch()};
    try {
      for (size_t i = chunk.lo; i < chunk.hi; ++i) chunk.call(chunk.body, i);
    } catch (...) {
      error = std::current_exception();
    }
  }
  // The caller's frame (chunk and latch) may end once this returns.
  chunk.latch->CountDown(std::move(error));
}

void ThreadPool::ParallelForImpl(size_t begin, size_t end,
                                 void (*call)(const void*, size_t),
                                 const void* body) {
  if (begin >= end) return;
  const size_t total = end - begin;
  // Single-queue keeps the one-chunk-per-worker split (the A/B
  // baseline); stealing oversubscribes so uneven chunks rebalance by
  // theft.
  const size_t target_chunks = mode_ == PoolMode::kWorkStealing
                                   ? num_threads() * 4
                                   : num_threads();
  const size_t chunks =
      std::min({total, std::max<size_t>(1, target_chunks), kMaxChunks});
  const size_t chunk_size = (total + chunks - 1) / chunks;
  const size_t used = (total + chunk_size - 1) / chunk_size;
  Latch latch(used);
  std::array<ChunkTask, kMaxChunks> storage;
  std::array<Task*, kMaxChunks> queued;
  for (size_t c = 0; c < used; ++c) {
    ChunkTask& chunk = storage[c];
    chunk.run = &RunChunk;
    chunk.pool = this;
    chunk.latch = &latch;
    chunk.call = call;
    chunk.body = body;
    chunk.lo = begin + c * chunk_size;
    chunk.hi = std::min(end, chunk.lo + chunk_size);
    queued[c] = &chunk;
  }
  Enqueue(queued.data(), used);
  // Help while anything is queued: when this is itself a pool task
  // (nested ParallelFor) every worker may be blocked here, so queued work
  // would never drain if we simply slept. In stealing mode helpers raid
  // peer deques too, so an external caller (a query blocked on its
  // round's tasks) contributes a full execution lane. Once nothing is
  // left to take, each outstanding chunk is running on some thread, and
  // sleeping on the latch until they finish cannot deadlock.
  //
  // Every chunk finishes before any exception is rethrown -- the chunks
  // reference `body` and this frame.
  while (!latch.Done() && RunOneTask()) {
  }
  if (std::exception_ptr error = latch.Wait()) std::rethrow_exception(error);
}

ThreadPool::Task* ThreadPool::PopInjector() {
  MutexLock lock(mutex_);
  Task* task = injector_head_;
  if (task == nullptr) return nullptr;
  injector_head_ = task->next;
  if (injector_head_ == nullptr) injector_tail_ = nullptr;
  return task;
}

ThreadPool::Task* ThreadPool::TrySteal(const StealDeque* self) {
  // One sweep starting after the caller's own slot (or 0 for external
  // threads) so victims rotate instead of pack-attacking deque 0.
  const size_t n = deques_.size();
  const size_t start = (tls_pool == this) ? tls_worker_index + 1 : 0;
  for (size_t i = 0; i < n; ++i) {
    StealDeque* victim = deques_[(start + i) % n].get();
    if (victim == self) continue;
    Task* task = victim->Steal();
    if (task != nullptr) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      worker_cells_[StatsSlot()].steals.fetch_add(1,
                                                  std::memory_order_relaxed);
      if (steals_total_ != nullptr) steals_total_->Increment();
      return task;
    }
  }
  return nullptr;
}

ThreadPool::Task* ThreadPool::FindTask(StealDeque* self) {
  if (self != nullptr) {
    Task* task = self->Pop();
    if (task != nullptr) return task;
  }
  Task* task = PopInjector();
  if (task != nullptr) return task;
  if (mode_ == PoolMode::kWorkStealing) return TrySteal(self);
  return nullptr;
}

bool ThreadPool::RunOneTask() {
  StealDeque* self =
      (mode_ == PoolMode::kWorkStealing && tls_pool == this)
          ? deques_[tls_worker_index].get()
          : nullptr;
  Task* task = FindTask(self);
  if (task == nullptr) return false;
  pending_.fetch_sub(1);
  RunTask(task);
  return true;
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  tls_pool = this;
  tls_worker_index = worker_index;
  StealDeque* self = mode_ == PoolMode::kWorkStealing
                         ? deques_[worker_index].get()
                         : nullptr;
  for (;;) {
    Task* task = FindTask(self);
    if (task != nullptr) {
      pending_.fetch_sub(1);
      RunTask(task);
      continue;
    }
    MutexLock lock(mutex_);
    // Drain-before-exit: stop_ only wins once no task is queued
    // anywhere, preserving the pre-stealing destructor contract. The
    // wait is untimed: Enqueue raises pending_ under mutex_ before it
    // notifies, so no wakeup can slip between this check and the sleep.
    // The parked stretch is published while it lasts (GetWorkerStats
    // reads it), then credited to idle_ns.
    WorkerCell& cell = worker_cells_[worker_index];
    const int64_t parked_since = SteadyNowNs();
    cell.parked_since_ns.store(parked_since, std::memory_order_relaxed);
    while (!stop_ && pending_.load() == 0) cv_.Wait(mutex_);
    cell.idle_ns.fetch_add(static_cast<uint64_t>(SteadyNowNs() - parked_since),
                           std::memory_order_relaxed);
    cell.parked_since_ns.store(0, std::memory_order_relaxed);
    if (stop_ && pending_.load() == 0) return;
  }
}

}  // namespace swope
