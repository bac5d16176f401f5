#include "src/core/shard_partition.h"

namespace swope {

void ShardSlicePartition::Build(const std::vector<uint32_t>& order,
                                uint64_t begin, uint64_t end,
                                uint64_t shard_size, size_t num_shards) {
  shards_.resize(num_shards);
  for (Shard& shard : shards_) {
    shard.local_rows.clear();
    shard.slice_pos.clear();
  }
  for (uint64_t i = begin; i < end; ++i) {
    const uint32_t row = order[i];
    Shard& shard = shards_[row / shard_size];
    shard.local_rows.push_back(static_cast<uint32_t>(row % shard_size));
    shard.slice_pos.push_back(static_cast<uint32_t>(i - begin));
  }
}

}  // namespace swope
