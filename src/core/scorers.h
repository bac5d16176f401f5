// The three Scorer implementations behind the SWOPE entry points
// (internal to src/core/ — see adaptive_sampling_driver.h).
//
//   EntropyScorer  one FrequencyCounter per column; Lemma 3 intervals.
//   MiScorer       a shared target counter plus, per candidate, a marginal
//                  FrequencyCounter and a joint PairCounter; Section 4.1
//                  interval composition.
//   NmiScorer      MiScorer's counters, with the MI interval normalized by
//                  sqrt(H(t) * H(a)) bounds.
//
// Columns whose support exceeds QueryOptions::sketch_threshold take the
// sketch-backed path when sketches are enabled: the exact counter is
// replaced by a SketchFrequencyProvider and the interval by
// MakeSketchEntropyInterval (src/core/sketch_estimation.h). The split is
// per candidate, so one query can mix exact and sketched columns; MI/NMI
// joints go through a sketch whenever either side does. docs/SKETCH.md
// covers the estimator.
//
// This header is internal: outside src/core/, include the public
// swope_*.h entry points instead. src/core/ TUs opt in by defining
// SWOPE_CORE_INTERNAL before their includes; everyone else hits the
// #error below.

#ifndef SWOPE_CORE_SCORERS_H_
#define SWOPE_CORE_SCORERS_H_

#ifndef SWOPE_CORE_INTERNAL
#error "src/core/scorers.h is internal to src/core/; include the public swope_topk_*/swope_filter_* headers instead"
#endif

#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <vector>

#include "src/core/adaptive_sampling_driver.h"
#include "src/core/bounds.h"
#include "src/core/code_scratch.h"
#include "src/core/frequency_counter.h"
#include "src/core/pair_counter.h"
#include "src/core/query_options.h"
#include "src/core/shard_partition.h"
#include "src/core/sketch_estimation.h"
#include "src/sketch/frequency_provider.h"
#include "src/table/column_view.h"
#include "src/table/table.h"

namespace swope {

/// Scores every column of the table by its empirical entropy.
class EntropyScorer : public Scorer {
 public:
  EntropyScorer(const Table& table, const QueryOptions& options);

  double bounds_per_candidate() const override { return 1.0; }
  uint64_t CellsPerRow(size_t active) const override { return active; }
  void UpdateCandidate(size_t c, const std::vector<uint32_t>& order,
                       uint64_t begin, uint64_t end, uint64_t m) override;
  /// Exact candidates shard; sketched ones are order-dependent and don't.
  bool CandidateShardable(size_t c) const override {
    return sketches_[c] == nullptr;
  }
  void PrepareSharding(size_t num_shards) override;
  void UpdateCandidateShard(size_t c, size_t shard,
                            const ShardSlicePartition& partition) override;
  void FinalizeCandidate(size_t c, const ShardSlicePartition& partition,
                         uint64_t m) override;
  /// Algorithm 1 line 8: (kth_upper - 2*lambda - b_max) / kth_upper
  /// >= 1 - epsilon, with b_max the largest bias among current top-k
  /// members.
  bool TopKShouldStop(const std::pmr::vector<size_t>& active,
                      double kth_upper, uint64_t m,
                      double epsilon) const override;

 private:
  const Table& table_;
  /// Stage-attribution hook (QueryOptions::profiler); null when off.
  StageProfiler* const profiler_;
  std::pmr::vector<ColumnView> views_;
  // Exactly one of counters_[c] (sized 0 when sketched) and sketches_[c]
  // (null when exact) is live per candidate.
  std::pmr::vector<FrequencyCounter> counters_;
  std::pmr::vector<std::unique_ptr<SketchFrequencyProvider>> sketches_;
  // Per-candidate per-shard delta counters for the shard-decomposed
  // rounds (empty for sketched candidates); sized by PrepareSharding.
  std::pmr::vector<std::pmr::vector<FrequencyCounter>> deltas_;
  // Decode buffers, recycled across rounds and shared by the pool
  // workers: the engine-pooled arena (QueryOptions::scratch) when
  // provided, else a query-local fallback.
  CodeScratchArena own_scratch_;
  CodeScratchArena& scratch_;
};

/// Scores every non-target column by its mutual information with the
/// target column.
class MiScorer : public Scorer {
 public:
  MiScorer(const Table& table, size_t target, const QueryOptions& options);

  double bounds_per_candidate() const override { return 3.0; }
  uint64_t CellsPerRow(size_t active) const override {
    // Target marginal plus, per candidate, one marginal and one joint
    // update per row.
    return 1 + 2 * active;
  }
  void BeginRound(const std::vector<uint32_t>& order, uint64_t begin,
                  uint64_t end, uint64_t m) override;
  void UpdateCandidate(size_t c, const std::vector<uint32_t>& order,
                       uint64_t begin, uint64_t end, uint64_t m) override;
  /// Shardable when both the marginal and the joint counters are exact;
  /// any sketched side pins the candidate to whole-slice updates.
  bool CandidateShardable(size_t c) const override {
    return counters_[c].marginal_sketch == nullptr &&
           counters_[c].joint_sketch == nullptr;
  }
  void PrepareSharding(size_t num_shards) override;
  void UpdateCandidateShard(size_t c, size_t shard,
                            const ShardSlicePartition& partition) override;
  void FinalizeCandidate(size_t c, const ShardSlicePartition& partition,
                         uint64_t m) override;
  /// Algorithm 3: (kth_upper - slack_max) / kth_upper >= 1 - epsilon,
  /// with slack_max the largest b' among current top-k members.
  bool TopKShouldStop(const std::pmr::vector<size_t>& active,
                      double kth_upper, uint64_t m,
                      double epsilon) const override;

 protected:
  /// Folds order[begin..end) into candidate `c`'s marginal and joint
  /// counters and returns the composed MI interval at sample size `m`;
  /// also reports the candidate's marginal entropy interval (the NMI
  /// normalization needs it).
  MiInterval UpdateMi(size_t c, const std::vector<uint32_t>& order,
                      uint64_t begin, uint64_t end, uint64_t m,
                      EntropyInterval* marginal_out);

  const EntropyInterval& target_interval() const { return target_interval_; }

  const Table& table_;
  const Column& target_col_;
  /// Stage-attribution hook (QueryOptions::profiler); null when off.
  /// Protected so NmiScorer can attribute its composition step too.
  StageProfiler* const profiler_;

 private:
  struct CandidateCounters {
    /// Every container allocates from `memory` so an arena-backed query
    /// builds its whole candidate state in the arena.
    explicit CandidateCounters(std::pmr::memory_resource* memory)
        : marginal(0, memory),
          joint(0, 0, 1ULL << 20, memory),
          marginal_deltas(memory),
          joint_deltas(memory) {}

    FrequencyCounter marginal;
    PairCounter joint;
    // Sketch-path replacements; null means the exact counter above is
    // live. The joint sketch is keyed (target_code << 32) | code and is
    // engaged whenever either marginal is sketched.
    std::unique_ptr<SketchFrequencyProvider> marginal_sketch;
    std::unique_ptr<SketchFrequencyProvider> joint_sketch;
    // Per-shard delta counters for the shard-decomposed rounds (empty on
    // the sketch path; sized by PrepareSharding), merged into the
    // counters above exactly as EntropyScorer merges its deltas.
    std::pmr::vector<FrequencyCounter> marginal_deltas;
    std::pmr::vector<PairCounter> joint_deltas;
  };

  // QueryOptions::dense_pair_limit, for the joint deltas PrepareSharding
  // builds.
  const uint64_t dense_pair_limit_;
  ColumnView target_view_;
  std::pmr::vector<ColumnView> views_;
  FrequencyCounter target_counter_;
  std::unique_ptr<SketchFrequencyProvider> target_sketch_;
  EntropyInterval target_interval_;
  // The round's gathered target slice: target_slice_[i] is the target
  // code at order[begin + i]. Written once per round in BeginRound
  // (serial), read by every UpdateCandidate and shard task -- the latter
  // through the partition's slice positions (the pool's fork provides
  // the happens-before edge).
  std::pmr::vector<ValueCode> target_slice_;
  std::pmr::vector<CandidateCounters> counters_;
  // See EntropyScorer::scratch_.
  CodeScratchArena own_scratch_;
  CodeScratchArena& scratch_;
};

/// Scores every non-target column by its normalized mutual information
/// NMI(t, a) = I(t; a) / sqrt(H(t) * H(a)) with the target column.
class NmiScorer : public MiScorer {
 public:
  NmiScorer(const Table& table, size_t target, const QueryOptions& options)
      : MiScorer(table, target, options) {}

  void UpdateCandidate(size_t c, const std::vector<uint32_t>& order,
                       uint64_t begin, uint64_t end, uint64_t m) override;
  /// Generalized relative-width rule: every current top-k member must
  /// satisfy upper - lower <= epsilon * upper.
  bool TopKShouldStop(const std::pmr::vector<size_t>& active,
                      double kth_upper, uint64_t m,
                      double epsilon) const override;
};

}  // namespace swope

#endif  // SWOPE_CORE_SCORERS_H_
