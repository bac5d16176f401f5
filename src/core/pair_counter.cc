#include "src/core/pair_counter.h"

#include <algorithm>

#include "src/common/math.h"

namespace swope {

PairCounter::PairCounter(uint32_t support_a, uint32_t support_b,
                         uint64_t dense_limit,
                         std::pmr::memory_resource* memory)
    : support_b_(support_b),
      cells_(static_cast<uint64_t>(support_a) * support_b),
      dense_limit_(dense_limit),
      is_dense_(cells_ <= dense_limit && cells_ <= kImmediateDenseCells),
      memory_(memory != nullptr ? memory : std::pmr::get_default_resource()),
      dense_(memory_),
      sparse_(is_dense_ ? 0 : 64, memory_),
      sorted_(memory_) {
  if (is_dense_) dense_.assign(cells_, 0);
}

void PairCounter::AddToKey(uint64_t key, uint64_t add) {
  uint64_t& slot = is_dense_ ? dense_[key] : sparse_[key];
  if (slot == 0) ++distinct_pairs_;
  slot += add;
  sample_count_ += add;
  // Migrate once the hash holds enough distinct pairs that the dense
  // array's O(1)-no-probing updates pay for its allocation. 1/8 of the
  // domain is the break-even load observed in the micro benches.
  if (!is_dense_ && cells_ <= dense_limit_ && distinct_pairs_ * 8 >= cells_) {
    MigrateToDense();
  }
}

void PairCounter::Merge(const PairCounter& other) {
  assert(other.support_b_ == support_b_ && other.cells_ == cells_);
  if (other.is_dense_) {
    for (uint64_t key = 0; key < other.cells_; ++key) {
      if (other.dense_[key] != 0) AddToKey(key, other.dense_[key]);
    }
  } else {
    other.sparse_.ForEach(
        [&](uint64_t key, uint64_t add) { AddToKey(key, add); });
  }
}

void PairCounter::Reset() {
  if (is_dense_) {
    std::fill(dense_.begin(), dense_.end(), 0);
  } else {
    sparse_.Clear();
  }
  sample_count_ = 0;
  distinct_pairs_ = 0;
}

void PairCounter::MigrateToDense() {
  dense_.assign(cells_, 0);
  sparse_.ForEach(
      [&](uint64_t key, uint64_t count) { dense_[key] = count; });
  // Shrink the hash to its floor on the same resource (an arena reclaims
  // the old slots only at rewind; that is the bump-allocator bargain).
  sparse_ = FlatHashMap<uint64_t, uint64_t>(0, memory_);
  is_dense_ = true;
}

double PairCounter::SampleJointEntropy() const {
  if (is_dense_) {
    return EntropyFromCounts(dense_.data(), dense_.size(), sample_count_);
  }
  // Same nonzero counts, same ascending key order as the dense scan.
  sorted_.clear();
  sparse_.ForEach([&](uint64_t key, uint64_t) { sorted_.push_back(key); });
  std::sort(sorted_.begin(), sorted_.end());
  for (uint64_t& entry : sorted_) entry = *sparse_.Find(entry);
  return EntropyFromCounts(sorted_.data(), sorted_.size(), sample_count_);
}

uint64_t PairCounter::count(ValueCode a, ValueCode b) const {
  if (is_dense_) return dense_[Key(a, b)];
  const uint64_t* found = sparse_.Find(Key(a, b));
  return found != nullptr ? *found : 0;
}

}  // namespace swope
