// This TU lives in src/core/ and may use the internal driver headers.
#define SWOPE_CORE_INTERNAL

#include "src/core/scorers.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/obs/profiler.h"

namespace swope {

namespace {

// Composes the NMI interval from the MI interval and the two marginal
// entropy intervals. When a marginal lower bound is 0 the upper bound is
// vacuous (1); when a marginal upper bound is 0 the attribute is constant
// and NMI is 0.
ScoreInterval ComposeNmi(const MiInterval& mi, const EntropyInterval& target,
                         const EntropyInterval& candidate) {
  ScoreInterval interval;
  const double denom_upper = std::sqrt(target.upper * candidate.upper);
  const double denom_lower = std::sqrt(target.lower * candidate.lower);
  if (denom_upper <= 0.0) return interval;  // a constant attribute: NMI = 0
  interval.lower = std::clamp(mi.lower / denom_upper, 0.0, 1.0);
  interval.upper =
      denom_lower > 0.0
          ? std::clamp(mi.upper / denom_lower, interval.lower, 1.0)
          : 1.0;
  return interval;
}

// Builds one sketch provider for a scorer slot. The wrappers validate
// options before constructing any scorer and the heavy capacities are
// compile-time constants >= 1, so provider construction cannot fail here.
std::unique_ptr<SketchFrequencyProvider> MakeScorerSketch(
    const QueryOptions& options, uint64_t seed_salt, uint32_t heavy_capacity) {
  Result<SketchFrequencyProvider> provider =
      MakeQuerySketchProvider(options, seed_salt, heavy_capacity);
  return std::make_unique<SketchFrequencyProvider>(
      std::move(provider).value());
}

// Seed-salt namespace bit for joint sketches: column supports fit in 32
// bits, so (kJointSaltBit | column) never collides with a marginal salt.
constexpr uint64_t kJointSaltBit = uint64_t{1} << 32;

// FinalizeCandidate re-evaluates a candidate's merged counters by running
// the ordinary whole-slice update over this zero-length slice.
const std::vector<uint32_t> kEmptySlice;

// Merges a candidate's per-shard deltas into `total` in ascending shard
// order and resets them. Merging is exact integer addition, so the merged
// counts equal the whole-slice counts exactly.
template <typename Counter>
void MergeShardDeltas(const ShardSlicePartition& partition,
                      std::pmr::vector<Counter>& deltas, Counter& total) {
  for (size_t s = 0; s < partition.num_shards(); ++s) {
    if (partition.local_rows(s).empty()) continue;
    total.Merge(deltas[s]);
    deltas[s].Reset();
  }
}

}  // namespace

EntropyScorer::EntropyScorer(const Table& table, const QueryOptions& options)
    : Scorer(options.memory),
      table_(table),
      profiler_(options.profiler),
      views_(memory_),
      counters_(memory_),
      sketches_(memory_),
      deltas_(memory_),
      scratch_(options.scratch != nullptr ? *options.scratch : own_scratch_) {
  const size_t h = table.num_columns();
  columns_.resize(h);
  views_.reserve(h);
  counters_.reserve(h);
  sketches_.resize(h);
  for (size_t j = 0; j < h; ++j) {
    columns_[j] = j;
    views_.emplace_back(table.column(j));
    const uint32_t support = table.column(j).support();
    if (UsesSketchPath(support, options)) {
      sketches_[j] = MakeScorerSketch(options, j, kSketchHeavyCapacity);
      counters_.emplace_back(0, memory_);  // placeholder; the sketch is live
      ++sketch_candidates_;
    } else {
      counters_.emplace_back(support, memory_);
    }
  }
  intervals_.resize(h);
}

void EntropyScorer::UpdateCandidate(size_t c,
                                    const std::vector<uint32_t>& order,
                                    uint64_t begin, uint64_t end,
                                    uint64_t m) {
  // Gather-then-count: decode the round's slice once, then feed the span.
  CodeScratchArena::Lease lease(scratch_);
  const ValueCode* codes;
  {
    StageTimer timer(profiler_, Stage::kGather);
    codes = views_[c].Gather(order, begin, end, lease.buffer());
  }
  EntropyInterval interval;
  if (sketches_[c] != nullptr) {
    {
      StageTimer timer(profiler_, Stage::kCount);
      sketches_[c]->AddCodes(codes, end - begin);
    }
    StageTimer timer(profiler_, Stage::kIntervalUpdate);
    interval = MakeSketchEntropyInterval(sketches_[c]->Summarize(),
                                         views_[c].support(), n_, m, p_iter_);
  } else {
    {
      StageTimer timer(profiler_, Stage::kCount);
      counters_[c].AddCodes(codes, end - begin);
    }
    StageTimer timer(profiler_, Stage::kIntervalUpdate);
    interval =
        MakeEntropyInterval(counters_[c].SampleEntropy(), views_[c].support(),
                            n_, m, p_iter_);
  }
  intervals_[c] = {interval.lower, interval.upper, interval.bias};
}

void EntropyScorer::PrepareSharding(size_t num_shards) {
  deltas_.resize(counters_.size());
  for (size_t c = 0; c < counters_.size(); ++c) {
    if (sketches_[c] != nullptr) continue;
    deltas_[c].reserve(num_shards);
    while (deltas_[c].size() < num_shards) {
      deltas_[c].emplace_back(views_[c].support(), memory_);
    }
  }
}

void EntropyScorer::UpdateCandidateShard(size_t c, size_t shard,
                                         const ShardSlicePartition& partition) {
  const std::vector<uint32_t>& rows = partition.local_rows(shard);
  CodeScratchArena::Lease lease(scratch_);
  const ValueCode* codes;
  {
    StageTimer timer(profiler_, Stage::kGather);
    codes =
        views_[c].GatherShard(shard, rows.data(), rows.size(), lease.buffer());
  }
  StageTimer timer(profiler_, Stage::kCount);
  deltas_[c][shard].AddCodes(codes, rows.size());
}

void EntropyScorer::FinalizeCandidate(size_t c,
                                      const ShardSlicePartition& partition,
                                      uint64_t m) {
  {
    StageTimer timer(profiler_, Stage::kShardMerge);
    MergeShardDeltas(partition, deltas_[c], counters_[c]);
  }
  // Empty-slice update: absorbs nothing, evaluates the merged counts
  // through the same code path (and machine code) as a serial round, so
  // the interval is bitwise identical by construction.
  UpdateCandidate(c, kEmptySlice, 0, 0, m);
}

bool EntropyScorer::TopKShouldStop(const std::pmr::vector<size_t>& active,
                                   double kth_upper, uint64_t m,
                                   double epsilon) const {
  // A non-positive k-th upper bound means every candidate entropy is
  // zero, so any answer is exact.
  if (kth_upper <= 0.0) return true;
  double b_max = 0.0;
  for (size_t idx : active) {
    if (intervals_[idx].upper >= kth_upper) {
      b_max = std::max(b_max, intervals_[idx].slack);
    }
  }
  const double lambda = PermutationLambda(n_, m, p_iter_);
  // Stopping rule (Algorithm 1 line 8).
  return (kth_upper - 2.0 * lambda - b_max) / kth_upper >= 1.0 - epsilon;
}

MiScorer::MiScorer(const Table& table, size_t target,
                   const QueryOptions& options)
    : Scorer(options.memory),
      table_(table),
      target_col_(table.column(target)),
      profiler_(options.profiler),
      dense_pair_limit_(options.dense_pair_limit),
      target_view_(table.column(target)),
      views_(memory_),
      target_counter_(UsesSketchPath(table.column(target).support(), options)
                          ? 0
                          : table.column(target).support(),
                      memory_),
      target_slice_(memory_),
      counters_(memory_),
      scratch_(options.scratch != nullptr ? *options.scratch : own_scratch_) {
  const bool target_sketched =
      UsesSketchPath(target_col_.support(), options);
  if (target_sketched) {
    target_sketch_ = MakeScorerSketch(options, target, kSketchHeavyCapacity);
  }
  const size_t h = table.num_columns();
  columns_.reserve(h - 1);
  views_.reserve(h - 1);
  counters_.reserve(h - 1);
  for (size_t j = 0; j < h; ++j) {
    if (j == target) continue;
    columns_.push_back(j);
    views_.emplace_back(table.column(j));
    const uint32_t support = table.column(j).support();
    const bool marginal_sketched = UsesSketchPath(support, options);
    // Assignments below move between equal-resource counters, so the
    // arena-built buffers are stolen, not copied.
    CandidateCounters counter(memory_);
    if (marginal_sketched) {
      counter.marginal_sketch =
          MakeScorerSketch(options, j, kSketchHeavyCapacity);
    } else {
      counter.marginal = FrequencyCounter(support, memory_);
    }
    if (target_sketched || marginal_sketched) {
      // The joint domain contains a sketched side, so it is counted
      // through a sketch too (keyed (target_code << 32) | code).
      counter.joint_sketch = MakeScorerSketch(options, kJointSaltBit | j,
                                              kSketchJointHeavyCapacity);
      ++sketch_candidates_;
    } else {
      counter.joint = PairCounter(target_col_.support(), support,
                                  dense_pair_limit_, memory_);
    }
    counters_.push_back(std::move(counter));
  }
  intervals_.resize(columns_.size());
}

void MiScorer::BeginRound(const std::vector<uint32_t>& order, uint64_t begin,
                          uint64_t end, uint64_t m) {
  // Decode the target's slice once per round; every candidate's joint
  // update this round reads the same span.
  const ValueCode* target_codes;
  {
    StageTimer timer(profiler_, Stage::kGather);
    target_codes = target_view_.Gather(order, begin, end, target_slice_);
  }
  if (target_sketch_ != nullptr) {
    {
      StageTimer timer(profiler_, Stage::kCount);
      target_sketch_->AddCodes(target_codes, end - begin);
    }
    StageTimer timer(profiler_, Stage::kIntervalUpdate);
    target_interval_ =
        MakeSketchEntropyInterval(target_sketch_->Summarize(),
                                  target_col_.support(), n_, m, p_iter_);
  } else {
    {
      StageTimer timer(profiler_, Stage::kCount);
      target_counter_.AddCodes(target_codes, end - begin);
    }
    StageTimer timer(profiler_, Stage::kIntervalUpdate);
    target_interval_ =
        MakeEntropyInterval(target_counter_.SampleEntropy(),
                            target_col_.support(), n_, m, p_iter_);
  }
}

MiInterval MiScorer::UpdateMi(size_t c, const std::vector<uint32_t>& order,
                              uint64_t begin, uint64_t end, uint64_t m,
                              EntropyInterval* marginal_out) {
  CandidateCounters& counter = counters_[c];
  const ColumnView& view = views_[c];
  CodeScratchArena::Lease lease(scratch_);
  const ValueCode* codes;
  {
    StageTimer timer(profiler_, Stage::kGather);
    codes = view.Gather(order, begin, end, lease.buffer());
  }
  const uint64_t count = end - begin;
  EntropyInterval marginal_interval;
  if (counter.marginal_sketch != nullptr) {
    {
      StageTimer timer(profiler_, Stage::kCount);
      counter.marginal_sketch->AddCodes(codes, count);
    }
    StageTimer timer(profiler_, Stage::kIntervalUpdate);
    marginal_interval =
        MakeSketchEntropyInterval(counter.marginal_sketch->Summarize(),
                                  view.support(), n_, m, p_iter_);
  } else {
    {
      StageTimer timer(profiler_, Stage::kCount);
      counter.marginal.AddCodes(codes, count);
    }
    StageTimer timer(profiler_, Stage::kIntervalUpdate);
    marginal_interval = MakeEntropyInterval(
        counter.marginal.SampleEntropy(), view.support(), n_, m, p_iter_);
  }
  const uint64_t u_bar = static_cast<uint64_t>(target_col_.support()) *
                         static_cast<uint64_t>(view.support());
  EntropyInterval joint_interval;
  if (counter.joint_sketch != nullptr) {
    {
      StageTimer timer(profiler_, Stage::kCount);
      counter.joint_sketch->AddPairs(target_slice_.data(), codes, count);
    }
    StageTimer timer(profiler_, Stage::kIntervalUpdate);
    joint_interval = MakeSketchEntropyInterval(
        counter.joint_sketch->Summarize(), u_bar, n_, m, p_iter_);
  } else {
    {
      StageTimer timer(profiler_, Stage::kCount);
      counter.joint.AddCodes(target_slice_.data(), codes, count);
    }
    StageTimer timer(profiler_, Stage::kIntervalUpdate);
    joint_interval = MakeEntropyInterval(counter.joint.SampleJointEntropy(),
                                         u_bar, n_, m, p_iter_);
  }
  if (marginal_out != nullptr) *marginal_out = marginal_interval;
  StageTimer timer(profiler_, Stage::kIntervalUpdate);
  return MakeMiInterval(target_interval_, marginal_interval, joint_interval);
}

void MiScorer::PrepareSharding(size_t num_shards) {
  for (size_t c = 0; c < counters_.size(); ++c) {
    if (!CandidateShardable(c)) continue;
    CandidateCounters& counter = counters_[c];
    const uint32_t support = views_[c].support();
    counter.marginal_deltas.reserve(num_shards);
    counter.joint_deltas.reserve(num_shards);
    while (counter.marginal_deltas.size() < num_shards) {
      counter.marginal_deltas.emplace_back(support, memory_);
      counter.joint_deltas.emplace_back(target_col_.support(), support,
                                        dense_pair_limit_, memory_);
    }
  }
}

void MiScorer::UpdateCandidateShard(size_t c, size_t shard,
                                    const ShardSlicePartition& partition) {
  CandidateCounters& counter = counters_[c];
  const std::vector<uint32_t>& rows = partition.local_rows(shard);
  const std::vector<uint32_t>& pos = partition.slice_pos(shard);
  CodeScratchArena::Lease lease(scratch_);
  const ValueCode* codes;
  {
    StageTimer timer(profiler_, Stage::kGather);
    codes =
        views_[c].GatherShard(shard, rows.data(), rows.size(), lease.buffer());
  }
  StageTimer timer(profiler_, Stage::kCount);
  counter.marginal_deltas[shard].AddCodes(codes, rows.size());
  PairCounter& joint = counter.joint_deltas[shard];
  for (size_t i = 0; i < rows.size(); ++i) {
    joint.Add(target_slice_[pos[i]], codes[i]);
  }
}

void MiScorer::FinalizeCandidate(size_t c,
                                 const ShardSlicePartition& partition,
                                 uint64_t m) {
  // Same reduction as EntropyScorer::FinalizeCandidate: exact integer
  // merges in ascending shard order, then an empty-slice update that
  // evaluates the merged counts through the serial composition code
  // (virtual dispatch routes NmiScorer through its NMI normalization).
  CandidateCounters& counter = counters_[c];
  {
    StageTimer timer(profiler_, Stage::kShardMerge);
    MergeShardDeltas(partition, counter.marginal_deltas, counter.marginal);
    MergeShardDeltas(partition, counter.joint_deltas, counter.joint);
  }
  UpdateCandidate(c, kEmptySlice, 0, 0, m);
}

void MiScorer::UpdateCandidate(size_t c, const std::vector<uint32_t>& order,
                               uint64_t begin, uint64_t end, uint64_t m) {
  const MiInterval mi = UpdateMi(c, order, begin, end, m, nullptr);
  intervals_[c] = {mi.lower, mi.upper, mi.slack};
}

bool MiScorer::TopKShouldStop(const std::pmr::vector<size_t>& active,
                              double kth_upper, uint64_t /*m*/,
                              double epsilon) const {
  if (kth_upper <= 0.0) return true;
  double slack_max = 0.0;
  for (size_t idx : active) {
    if (intervals_[idx].upper >= kth_upper) {
      slack_max = std::max(slack_max, intervals_[idx].slack);
    }
  }
  // Stopping rule (Algorithm 3).
  return (kth_upper - slack_max) / kth_upper >= 1.0 - epsilon;
}

void NmiScorer::UpdateCandidate(size_t c, const std::vector<uint32_t>& order,
                                uint64_t begin, uint64_t end, uint64_t m) {
  EntropyInterval marginal_interval;
  const MiInterval mi = UpdateMi(c, order, begin, end, m, &marginal_interval);
  StageTimer timer(profiler_, Stage::kIntervalUpdate);
  intervals_[c] = ComposeNmi(mi, target_interval(), marginal_interval);
}

bool NmiScorer::TopKShouldStop(const std::pmr::vector<size_t>& active,
                               double kth_upper, uint64_t /*m*/,
                               double epsilon) const {
  if (kth_upper <= 0.0) return true;
  // Generalized relative-width stopping rule: every member of the
  // current top-k set must satisfy upper - lower <= eps * upper.
  for (size_t idx : active) {
    const ScoreInterval& interval = intervals_[idx];
    if (interval.upper >= kth_upper &&
        interval.upper - interval.lower > epsilon * interval.upper) {
      return false;
    }
  }
  return true;
}

}  // namespace swope
