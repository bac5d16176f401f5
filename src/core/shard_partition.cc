#include "src/core/shard_partition.h"

#include <algorithm>
#include <cstddef>

namespace swope {

void ShardSlicePartition::Build(const std::vector<uint32_t>& order,
                                uint64_t begin, uint64_t end,
                                uint64_t shard_size, size_t num_shards) {
  if (shards_.size() > num_shards) {
    shards_.erase(shards_.begin() + static_cast<std::ptrdiff_t>(num_shards),
                  shards_.end());
  }
  while (shards_.size() < num_shards) {
    shards_.emplace_back(shards_.get_allocator().resource());
  }
  for (Shard& shard : shards_) {
    shard.local_rows.clear();
    shard.slice_pos.clear();
  }
  // Count first and reserve exactly: the buffers live in the query's
  // arena, where every regrowth would strand the old buffer until the
  // query ends.
  for (uint64_t i = begin; i < end; ++i) {
    ++shards_[order[i] / shard_size].rows;
  }
  max_rows_ = 0;
  for (Shard& shard : shards_) {
    shard.local_rows.reserve(shard.rows);
    shard.slice_pos.reserve(shard.rows);
    max_rows_ = std::max(max_rows_, shard.rows);
    shard.rows = 0;
  }
  for (uint64_t i = begin; i < end; ++i) {
    const uint32_t row = order[i];
    Shard& shard = shards_[row / shard_size];
    shard.local_rows.push_back(static_cast<uint32_t>(row % shard_size));
    shard.slice_pos.push_back(static_cast<uint32_t>(i - begin));
  }
}

}  // namespace swope
