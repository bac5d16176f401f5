// This TU lives in src/core/ and may use the internal driver headers.
#define SWOPE_CORE_INTERNAL

#include "src/core/adaptive_sampling_driver.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"
#include "src/core/bounds.h"
#include "src/core/exec_control.h"
#include "src/core/prefix_sampler.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/query_trace.h"

namespace swope {

void Scorer::BeginRound(const std::vector<uint32_t>& /*order*/,
                        uint64_t /*begin*/, uint64_t /*end*/,
                        uint64_t /*m*/) {}

namespace {

// Sentinel shard index marking a whole-slice task (a candidate whose
// counters cannot be shard-decomposed, i.e. the sketch path).
constexpr size_t kWholeSlice = static_cast<size_t>(-1);

// One unit of a parallel round: one shard's sub-slice for a shardable
// candidate, or the entire slice for one that is not.
struct RoundTask {
  size_t candidate;
  size_t shard;
};

// Per-round scratch reused across rounds so steady-state scheduling
// allocates nothing.
struct RoundScratch {
  ShardSlicePartition partition;
  std::vector<RoundTask> tasks;
  std::vector<size_t> shardable;
  bool sharding_prepared = false;
};

void RunRoundTask(Scorer& scorer, const RoundTask& task,
                  const std::vector<uint32_t>& order,
                  PrefixSampler::Range range, uint64_t m,
                  const ShardSlicePartition& partition) {
  if (task.shard == kWholeSlice) {
    scorer.UpdateCandidate(task.candidate, order, range.begin, range.end, m);
  } else {
    scorer.UpdateCandidateShard(task.candidate, task.shard, partition);
  }
}

// The round's counter-update phase. Serial path (no pool): whole-slice
// UpdateCandidate per active candidate, exactly the pre-sharding loop.
// Parallel path: decompose into (candidate x shard) tasks -- each works
// one shard's sub-slice against (candidate, shard)-private state -- fan
// them out, then reduce each shardable candidate in FinalizeCandidate
// (marginal and joint counters alike merge by exact integer addition in
// ascending shard order). Both paths reach identical counts, and every
// entropy is a pure function of the counts, so intervals are
// byte-identical at any thread count and any shard count; every
// cross-candidate reduction afterwards runs serially in Decide.
void UpdateActiveCandidates(Scorer& scorer,
                            const std::pmr::vector<size_t>& active,
                            const std::vector<uint32_t>& order,
                            PrefixSampler::Range range, uint64_t m,
                            const Table& table, ThreadPool* pool,
                            Histogram* task_latency, RoundScratch& scratch) {
  if (pool == nullptr || pool->num_threads() <= 1) {
    for (size_t idx : active) {
      scorer.UpdateCandidate(idx, order, range.begin, range.end, m);
    }
    return;
  }
  if (!scratch.sharding_prepared) {
    // Serial one-time sizing of the per-candidate delta counters; shard
    // tasks may then run concurrently without lazy-init races.
    scorer.PrepareSharding(table.num_shards());
    scratch.sharding_prepared = true;
  }
  scratch.partition.Build(order, range.begin, range.end, table.shard_size(),
                          table.num_shards());
  scratch.tasks.clear();
  scratch.shardable.clear();
  for (size_t idx : active) {
    if (scorer.CandidateShardable(idx)) {
      // Shardable even with zero tasks this round: FinalizeCandidate
      // must still refresh the interval at the new m.
      scratch.shardable.push_back(idx);
      for (size_t s = 0; s < scratch.partition.num_shards(); ++s) {
        if (!scratch.partition.local_rows(s).empty()) {
          scratch.tasks.push_back({idx, s});
        }
      }
    } else {
      scratch.tasks.push_back({idx, kWholeSlice});
    }
  }
  pool->ParallelFor(0, scratch.tasks.size(), [&](size_t t) {
    if (task_latency != nullptr) {
      Stopwatch timer;
      RunRoundTask(scorer, scratch.tasks[t], order, range, m,
                   scratch.partition);
      task_latency->Observe(timer.ElapsedMillis());
    } else {
      RunRoundTask(scorer, scratch.tasks[t], order, range, m,
                   scratch.partition);
    }
  });
  pool->ParallelFor(0, scratch.shardable.size(), [&](size_t i) {
    scorer.FinalizeCandidate(scratch.shardable[i], scratch.partition, m);
  });
}

}  // namespace

Result<AdaptiveSamplingDriver::Output> AdaptiveSamplingDriver::Run(
    Scorer& scorer, DecisionPolicy& policy) {
  const uint64_t n = table_.num_rows();
  const size_t h = table_.num_columns();

  const double pf = options_.ResolveFailureProbability(n);
  const uint64_t m0 =
      options_.initial_sample_size > 0
          ? std::min<uint64_t>(n, std::max<uint64_t>(
                                      kMinSampleSize,
                                      options_.initial_sample_size))
          : ComputeM0(n, h, pf, table_.MaxSupport());
  const uint32_t i_max = MaxIterations(n, m0);
  // Splits the failure budget over rounds and candidates; the scorer's
  // union-bound multiplier covers how many intervals it derives per
  // candidate per round.
  const double p_iter =
      pf / (scorer.bounds_per_candidate() * static_cast<double>(i_max) *
            static_cast<double>(scorer.num_candidates()));
  scorer.Bind(n, p_iter);

  std::pmr::memory_resource* const memory = ResolveQueryMemory(options_);
  Output output(memory);
  output.stats.initial_sample_size = m0;

  SWOPE_ASSIGN_OR_RETURN(
      PrefixSampler sampler,
      MakePrefixSampler(static_cast<uint32_t>(n), options_));
  std::pmr::vector<size_t> active(memory);
  active.resize(scorer.num_candidates());
  for (size_t i = 0; i < active.size(); ++i) active[i] = i;

  // Tracing cost when disabled is the null checks below -- one branch per
  // round -- plus this one Stopwatch construction (a single clock read)
  // per query. BM_MetricsOverhead pins that to <1%.
  QueryTrace* const trace = options_.trace;
  Stopwatch round_timer;
  RoundScratch scratch;

  uint64_t m = std::min<uint64_t>(m0, n);
  bool done = false;
  while (!done && !active.empty()) {
    if (options_.control != nullptr) {
      SWOPE_RETURN_NOT_OK(options_.control->Check());
    }
    if (trace != nullptr) round_timer.Reset();
    ++output.stats.iterations;
    const PrefixSampler::Range range = sampler.GrowTo(m);
    scorer.BeginRound(sampler.order(), range.begin, range.end, m);
    UpdateActiveCandidates(scorer, active, sampler.order(), range, m, table_,
                           options_.pool, options_.shard_task_latency,
                           scratch);
    const size_t active_before = active.size();
    const uint64_t round_cells =
        (range.end - range.begin) * scorer.CellsPerRow(active_before);
    output.stats.cells_scanned += round_cells;

    // The bias slack snapshot must precede Decide: it covers the
    // candidates the round actually evaluated, not the survivors.
    double max_bias = 0.0;
    if (trace != nullptr) {
      for (size_t idx : active) {
        max_bias = std::max(max_bias, scorer.interval(idx).slack);
      }
    }

    {
      // Decision work is cross-candidate ranking/pruning; the scorers
      // attribute their own stages, so this brackets only the policy.
      StageTimer decide_timer(options_.profiler, Stage::kFinalize);
      done = policy.Decide(scorer, active, m, n, output.items);
    }

    if (trace != nullptr) {
      RoundTrace round;
      round.round = output.stats.iterations;
      round.sample_size = m;
      round.lambda = PermutationLambda(n, m, p_iter);
      round.max_bias = max_bias;
      round.active_before = static_cast<uint32_t>(active_before);
      round.decided = static_cast<uint32_t>(active_before - active.size());
      round.cells_scanned = round_cells;
      round.wall_ms = round_timer.ElapsedMillis();
      trace->Record(round);
    }

    if (!done) {
      const uint64_t grown = static_cast<uint64_t>(
          std::ceil(static_cast<double>(m) * options_.growth_factor));
      m = std::min<uint64_t>(n, std::max<uint64_t>(m + 1, grown));
    }
  }

  {
    StageTimer finalize_timer(options_.profiler, Stage::kFinalize);
    policy.Finalize(scorer, active, output.items);
  }
  output.stats.final_sample_size = sampler.consumed();
  output.stats.sketch_candidates = scorer.sketch_candidates();
  output.stats.candidates_remaining = active.size();
  output.stats.exhausted_dataset = (sampler.consumed() >= n);
  return output;
}

bool TopKPolicy::Decide(const Scorer& scorer, std::pmr::vector<size_t>& active,
                        uint64_t m, uint64_t n,
                        std::pmr::vector<AttributeScore>& /*items*/) {
  // k-th largest upper bound over the active set. The selection buffers
  // are members so rounds after the first reuse their capacity.
  uppers_.clear();
  uppers_.reserve(active.size());
  for (size_t idx : active) uppers_.push_back(scorer.interval(idx).upper);
  std::nth_element(uppers_.begin(), uppers_.begin() + (k_ - 1), uppers_.end(),
                   std::greater<double>());
  const double kth_upper = uppers_[k_ - 1];

  if (scorer.TopKShouldStop(active, kth_upper, m, epsilon_)) return true;
  if (m >= n) {
    // Bounds are exact at M = N, so the stopping rule always fires there;
    // this is a defensive backstop.
    return true;
  }

  // Prune candidates that cannot be in the top-k: upper bound strictly
  // below the k-th largest lower bound (Algorithm 1 lines 14-17).
  lowers_.clear();
  lowers_.reserve(active.size());
  for (size_t idx : active) lowers_.push_back(scorer.interval(idx).lower);
  std::nth_element(lowers_.begin(), lowers_.begin() + (k_ - 1), lowers_.end(),
                   std::greater<double>());
  const double kth_lower = lowers_[k_ - 1];
  std::erase_if(active, [&](size_t idx) {
    return scorer.interval(idx).upper < kth_lower;
  });
  return false;
}

void TopKPolicy::Finalize(const Scorer& scorer,
                          const std::pmr::vector<size_t>& active,
                          std::pmr::vector<AttributeScore>& items) {
  // Order the active candidates by descending upper bound (ties by
  // ascending column index) and emit the top k.
  order_.assign(active.begin(), active.end());
  std::sort(order_.begin(), order_.end(), [&](size_t a, size_t b) {
    if (scorer.interval(a).upper != scorer.interval(b).upper) {
      return scorer.interval(a).upper > scorer.interval(b).upper;
    }
    return scorer.column(a) < scorer.column(b);
  });
  order_.resize(std::min(order_.size(), k_));
  for (size_t idx : order_) {
    const ScoreInterval& interval = scorer.interval(idx);
    items.push_back({scorer.column(idx),
                     table_.column(scorer.column(idx)).name(),
                     interval.Estimate(), interval.lower, interval.upper});
  }
}

bool FilterPolicy::Decide(const Scorer& scorer,
                          std::pmr::vector<size_t>& active, uint64_t m,
                          uint64_t n, std::pmr::vector<AttributeScore>& items) {
  std::pmr::vector<size_t>& still_active = still_active_;
  still_active.clear();
  still_active.reserve(active.size());
  for (size_t idx : active) {
    const ScoreInterval& interval = scorer.interval(idx);
    const size_t column = scorer.column(idx);
    // Rules in the paper's order (Algorithm 2 lines 6-14).
    if (interval.Width() < 2.0 * epsilon_ * eta_) {
      if (interval.Estimate() >= eta_) {
        items.push_back({column, table_.column(column).name(),
                         interval.Estimate(), interval.lower,
                         interval.upper});
      }
    } else if (interval.lower >= (1.0 - epsilon_) * eta_) {
      items.push_back({column, table_.column(column).name(),
                       interval.Estimate(), interval.lower, interval.upper});
    } else if (interval.upper < (1.0 + epsilon_) * eta_) {
      // rejected
    } else {
      still_active.push_back(idx);
    }
  }
  if (active.get_allocator() == still_active.get_allocator()) {
    // Buffer ping-pong: both vectors keep their capacities, so
    // steady-state rounds allocate nothing.
    active.swap(still_active);
    still_active.clear();
  } else {
    active.assign(still_active.begin(), still_active.end());
  }

  // Exact bounds have zero width at M = N, so everything is classified
  // above; the m >= n arm is a defensive backstop.
  return active.empty() || m >= n;
}

void FilterPolicy::Finalize(const Scorer& /*scorer*/,
                            const std::pmr::vector<size_t>& /*active*/,
                            std::pmr::vector<AttributeScore>& items) {
  std::sort(items.begin(), items.end(),
            [](const AttributeScore& a, const AttributeScore& b) {
              return a.index < b.index;
            });
}

}  // namespace swope
