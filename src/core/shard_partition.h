// ShardSlicePartition: routes a permutation slice to row shards.
//
// Each sampling round absorbs the slice order[begin..end) of the row
// permutation. Under sharded storage (src/table/sharded_codes.h) a
// (candidate x shard) task only touches one shard's packed words, so the
// slice is partitioned once per round -- shared by every candidate --
// into per-shard shard-local row lists. Alongside each local row the
// partition keeps the row's position within the slice, which is how the
// MI joint counters line candidate codes up with the round's gathered
// target codes (scorers.cc). Buffers come from the query's memory
// resource (the engine's pooled arena) and are reused across rounds, so
// steady-state partitioning never touches the heap.
//
// Partitioning only reorders which task counts which row; the reduction
// merges integer counts in fixed shard order (marginal and joint
// counters alike), and entropies are pure functions of the counts, so
// answers are bitwise invariant to the shard count (docs/SHARDING.md).

#ifndef SWOPE_CORE_SHARD_PARTITION_H_
#define SWOPE_CORE_SHARD_PARTITION_H_

#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <vector>

namespace swope {

/// One round's slice, partitioned by row shard. Build() then read
/// local_rows(s) / slice_pos(s) per shard.
class ShardSlicePartition {
 public:
  /// Every buffer allocates from `memory`.
  explicit ShardSlicePartition(
      std::pmr::memory_resource* memory = std::pmr::get_default_resource())
      : shards_(memory) {}

  /// Partitions order[begin..end): global row order[begin + i] lands in
  /// shard order[begin + i] / shard_size as local row
  /// order[begin + i] % shard_size with slice position i.
  void Build(const std::vector<uint32_t>& order, uint64_t begin,
             uint64_t end, uint64_t shard_size, size_t num_shards);

  size_t num_shards() const { return shards_.size(); }
  /// Rows routed to the fullest shard (the whole slice when it lies in
  /// one shard).
  uint64_t MaxShardRows() const { return max_rows_; }
  /// Shard-local row indices of the slice rows routed to shard `s`
  /// (feed to ColumnView::GatherShard).
  const std::pmr::vector<uint32_t>& local_rows(size_t s) const {
    return shards_[s].local_rows;
  }
  /// Slice positions (i in [0, end - begin)) aligned with local_rows(s).
  const std::pmr::vector<uint32_t>& slice_pos(size_t s) const {
    return shards_[s].slice_pos;
  }

 private:
  struct Shard {
    explicit Shard(std::pmr::memory_resource* memory)
        : local_rows(memory), slice_pos(memory) {}
    std::pmr::vector<uint32_t> local_rows;
    std::pmr::vector<uint32_t> slice_pos;
    uint64_t rows = 0;  // Build's counting pass
  };
  std::pmr::vector<Shard> shards_;
  uint64_t max_rows_ = 0;
};

}  // namespace swope

#endif  // SWOPE_CORE_SHARD_PARTITION_H_
