// Options shared by the four SWOPE query algorithms and the sampling
// baselines.

#ifndef SWOPE_CORE_QUERY_OPTIONS_H_
#define SWOPE_CORE_QUERY_OPTIONS_H_

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <vector>

#include "src/common/status.h"

namespace swope {

class CodeScratchArena;
struct ExecControl;
class Histogram;
class QueryTrace;
class StageProfiler;
class ThreadPool;

/// Tunable parameters of a sampling query. Defaults follow the paper's
/// experimental settings where one exists.
struct QueryOptions {
  /// Relative error parameter (Definitions 5 and 6); must be in (0, 1).
  /// Paper defaults: 0.1 for entropy top-k, 0.05 for entropy filtering,
  /// 0.5 for both MI queries.
  double epsilon = 0.1;

  /// Overall failure probability p_f. 0 means "use the paper's default
  /// p_f = 1/N", resolved against the queried table.
  double failure_probability = 0.0;

  /// Seed for the row permutation. Queries with equal seeds over the same
  /// table see the same sample sequence.
  uint64_t seed = 42;

  /// When > 0, overrides the paper's M0 policy with a fixed initial sample
  /// size (used by the ablation benches).
  uint64_t initial_sample_size = 0;

  /// Sample-size growth factor per iteration; the paper doubles.
  /// Must be > 1.
  double growth_factor = 2.0;

  /// Maximum dense joint-count table size (cells) before PairCounter falls
  /// back to hashing. MI queries only.
  uint64_t dense_pair_limit = 1ULL << 20;

  /// Columns whose support exceeds this take the sketch-backed frequency
  /// path when sketch_epsilon > 0, and are rejected with InvalidArgument
  /// when it is 0 (the paper's "eliminate columns with a support size
  /// larger than 1000" preprocessing, made explicit). See docs/SKETCH.md.
  uint32_t sketch_threshold = 1000;

  /// Count-min sketch additive-error target for the sketch path:
  /// frequency overcounts stay below sketch_epsilon * M with probability
  /// 1 - kSketchDelta. 0 (the default) disables sketches entirely; must
  /// otherwise be in (0, 1).
  double sketch_epsilon = 0.0;

  /// When true, sample the stored row order directly instead of drawing a
  /// fresh permutation -- the paper's "sequential sampling" on columnar
  /// storage (Section 6.1). Sound whenever the stored order is
  /// exchangeable (shuffled once offline, or generated i.i.d.); much
  /// faster because batches read columns sequentially. The benches enable
  /// this, matching the paper's implementation.
  bool sequential_sampling = false;

  /// Engine hook: a pre-shuffled row order to sample from, shared across
  /// concurrent queries over the same table (sound per Section 6.1: one
  /// exchangeable order serves every query). Must be a permutation of
  /// [0, N) for the queried table; when null the driver draws its own
  /// permutation from `seed`. Ignored by ResultCache canonicalization --
  /// the engine only injects an order equal to what `seed` would produce.
  std::shared_ptr<const std::vector<uint32_t>> shared_order;

  /// Engine hook: cooperative cancellation / deadline, polled at every
  /// sample-doubling round. Not owned; may be null. The caller keeps the
  /// pointee alive for the duration of the query.
  const ExecControl* control = nullptr;

  /// Intra-query parallelism: when non-null, the driver decomposes the
  /// counter-update phase of each round into (candidate x shard) tasks
  /// and fans them out across this pool. Answers are byte-identical to
  /// the serial path at any thread count and any shard count (shard
  /// tasks count into private deltas merged in fixed shard order, and
  /// every reduction runs serially in fixed candidate order; see
  /// docs/CORE.md and docs/SHARDING.md), so this is ignored by
  /// ResultCache canonicalization. Not owned; may be null. The caller
  /// keeps the pool alive for the duration of the query.
  ThreadPool* pool = nullptr;

  /// Observability hook: when non-null, the driver records each shard
  /// task's wall-clock milliseconds into it (the engine wires this to
  /// the swope_engine_shard_task_ms histogram). Affects no answer bytes,
  /// so it is ignored by ResultCache canonicalization. Not owned; may be
  /// null. The caller keeps the pointee alive for the query's duration.
  Histogram* shard_task_latency = nullptr;

  /// Observability hook: when non-null, the driver records one RoundTrace
  /// per sampling round into it (src/obs/query_trace.h). Every field
  /// except wall time is deterministic for a given (table, spec, seed),
  /// so it is ignored by ResultCache canonicalization. When null (the
  /// default) the driver's only extra work is one branch per round. Not
  /// owned; the caller keeps the pointee alive for the query's duration.
  QueryTrace* trace = nullptr;

  /// Engine hook: backing store for the query's transient state -- every
  /// per-candidate counter, interval table, decode slice, and answer
  /// vector allocates from it. The engine passes the pooled per-query
  /// Arena (src/common/arena.h), whose rewind-and-reuse cycle makes
  /// steady-state queries heap-allocation-free
  /// (tests/alloc_regression_test.cc). Null (the default) means the
  /// global heap; results are byte-identical either way, so this is
  /// ignored by ResultCache canonicalization. Not owned; the caller must
  /// not rewind the arena before the returned items are consumed.
  std::pmr::memory_resource* memory = nullptr;

  /// Engine hook: shared pool of decode buffers (src/core/code_scratch.h).
  /// When non-null, scorers lease their gather scratch from it instead of
  /// a query-local pool, so buffer capacity persists across queries.
  /// Affects no answer bytes (buffers are fully overwritten before every
  /// read); ignored by ResultCache canonicalization. Not owned; may be
  /// null.
  CodeScratchArena* scratch = nullptr;

  /// Observability hook: when non-null, the driver and scorers attribute
  /// CPU time to the fixed stage taxonomy (src/obs/profiler.h) at
  /// (candidate x shard)-task granularity -- gather, count, shard-merge,
  /// interval-update, finalize. Affects no answer bytes, so it
  /// is ignored by ResultCache canonicalization. When null (the default)
  /// each would-be stage timer costs one branch and no clock read. Not
  /// owned; the caller keeps the pointee alive for the query's duration.
  StageProfiler* profiler = nullptr;

  /// Validates ranges; returns InvalidArgument with a description on
  /// failure.
  Status Validate() const;

  /// Resolves failure_probability against a table of n rows (paper default
  /// p_f = 1/N, floored to keep ln(2/p) finite).
  double ResolveFailureProbability(uint64_t n) const;
};

}  // namespace swope

#endif  // SWOPE_CORE_QUERY_OPTIONS_H_
