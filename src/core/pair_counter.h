// PairCounter: incremental joint-value counts for a column pair, the
// mutual-information analogue of FrequencyCounter.
//
// Holds integer counts of (code_a, code_b) pairs only; the sample joint
// entropy H_S(a, b) is derived on demand by one scan of the counts in
// ascending pair-key order, exactly as FrequencyCounter derives H_S(a).
// Storage is adaptive: tiny domains use a dense u_a*u_b array
// immediately; larger domains start with the open-addressing FlatHashMap
// (an MI query builds one counter per candidate, and most candidates are
// pruned after a few thousand samples, so eagerly zeroing h dense arrays
// would dominate the query) and migrate to the dense layout once enough
// distinct pairs accumulate to make it worthwhile -- provided the domain
// fits under `dense_limit`.

#ifndef SWOPE_CORE_PAIR_COUNTER_H_
#define SWOPE_CORE_PAIR_COUNTER_H_

#include <cassert>
#include <cstdint>
#include <memory_resource>
#include <vector>

#include "src/common/flat_hash_map.h"
#include "src/table/packed_codes.h"

namespace swope {

/// Incremental joint counter over code pairs from two attributes.
class PairCounter {
 public:
  /// Domains up to this many cells go dense at construction.
  static constexpr uint64_t kImmediateDenseCells = 4096;

  /// `support_a`, `support_b`: supports of the two attributes.
  /// `dense_limit`: maximum u_a*u_b (in cells) the dense layout may use.
  /// Both layouts allocate from `memory` (default: the global heap) --
  /// including the dense array a later migration builds and the sparse
  /// layout's entropy scratch -- so an arena-backed counter never
  /// touches the heap.
  PairCounter(uint32_t support_a, uint32_t support_b,
              uint64_t dense_limit = 1ULL << 20,
              std::pmr::memory_resource* memory = nullptr);

  uint64_t sample_count() const { return sample_count_; }
  /// Number of distinct pairs observed so far.
  uint64_t distinct_pairs() const { return distinct_pairs_; }
  /// True when currently using the dense layout (may flip from false to
  /// true over the counter's lifetime, never back).
  bool is_dense() const { return is_dense_; }

  /// Absorbs one sampled pair.
  void Add(ValueCode a, ValueCode b) {
    assert(b < support_b_);
    if (is_dense_) {
      if (dense_[Key(a, b)]++ == 0) ++distinct_pairs_;
      ++sample_count_;
    } else {
      AddToKey(Key(a, b), 1);
    }
  }

  /// Absorbs `count` pre-decoded pairs (a[i], b[i]). Callers gather both
  /// columns' slices through ColumnView first.
  void AddCodes(const ValueCode* a, const ValueCode* b, uint64_t count) {
    for (uint64_t i = 0; i < count; ++i) Add(a[i], b[i]);
  }

  /// Sample joint entropy H_S(a, b) in bits (0 when no samples): the
  /// nonzero counts summed in ascending key order by EntropyFromCounts
  /// (the sparse layout sorts its keys into scratch first), so equal
  /// counts give the bitwise-same entropy whatever the layout, insertion
  /// order or shard partition. Not safe to call concurrently.
  double SampleJointEntropy() const;

  /// Adds `other`'s counts into this counter. `other` must have been
  /// built over the same key space (same supports); its layout (dense or
  /// sparse) is irrelevant. Merging is exact integer addition, so
  /// whole-slice counting and any shard-partitioned count-then-merge
  /// reach identical counts and entropy (shard_merge_property_test).
  void Merge(const PairCounter& other);

  /// Forgets all counts, keeping the domain and (for a migrated counter)
  /// the dense layout.
  void Reset();

  /// Count of a specific pair (for tests).
  uint64_t count(ValueCode a, ValueCode b) const;

 private:
  uint64_t Key(ValueCode a, ValueCode b) const {
    return static_cast<uint64_t>(a) * support_b_ + b;
  }
  void AddToKey(uint64_t key, uint64_t add);
  void MigrateToDense();

  uint32_t support_b_;
  uint64_t cells_;
  uint64_t dense_limit_;
  bool is_dense_;
  std::pmr::memory_resource* memory_;
  std::pmr::vector<uint64_t> dense_;
  FlatHashMap<uint64_t, uint64_t> sparse_;
  // Sparse-layout entropy scratch: the keys, sorted, then overwritten by
  // their counts. Kept across calls so steady-state rounds reuse it.
  mutable std::pmr::vector<uint64_t> sorted_;
  uint64_t sample_count_ = 0;
  uint64_t distinct_pairs_ = 0;
};

}  // namespace swope

#endif  // SWOPE_CORE_PAIR_COUNTER_H_
