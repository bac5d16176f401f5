// Property test for the shard reduction behind docs/SHARDING.md:
// counting a sample shard-by-shard into per-shard delta counters and
// merging them in ascending shard order -- FrequencyCounter and
// PairCounter alike -- must reach exactly the state of whole-slice
// counting, entropies bitwise included. Covers every code width
// including 0 (support 1), ragged last shards, empty shards, both
// PairCounter layouts, and arbitrary insertion orders.

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/frequency_counter.h"
#include "src/core/pair_counter.h"
#include "src/core/shard_partition.h"
#include "src/table/packed_codes.h"

namespace swope {
namespace {

// Supports 1, 2, 5, 33, 257 exercise packed widths 0, 1, 3, 6, and 9.
constexpr uint32_t kSupports[] = {1, 2, 5, 33, 257};

std::vector<ValueCode> RandomCodes(std::mt19937_64& rng, uint64_t n,
                                   uint32_t support) {
  std::uniform_int_distribution<uint32_t> dist(0, support - 1);
  std::vector<ValueCode> codes(n);
  for (ValueCode& code : codes) code = dist(rng);
  return codes;
}

// Assigns each sample to one of `num_shards` shards uniformly; with few
// samples and many shards this routinely leaves shards empty, which is
// exactly the case the reductions must tolerate.
std::vector<size_t> RandomShardOf(std::mt19937_64& rng, uint64_t n,
                                  size_t num_shards) {
  std::uniform_int_distribution<size_t> dist(0, num_shards - 1);
  std::vector<size_t> shard_of(n);
  for (size_t& s : shard_of) s = dist(rng);
  return shard_of;
}

void ExpectSameState(const FrequencyCounter& whole,
                     const FrequencyCounter& merged) {
  EXPECT_EQ(whole.sample_count(), merged.sample_count());
  EXPECT_EQ(whole.distinct_seen(), merged.distinct_seen());
  EXPECT_EQ(whole.counts(), merged.counts());
  // Entropy is a pure function of the counts (ascending scan), so equal
  // counts force bitwise-equal entropy.
  EXPECT_EQ(whole.SampleEntropy(), merged.SampleEntropy());
}

// FrequencyCounter: any partition of the sample, counted per shard and
// merged in ascending shard order, equals whole-slice counting exactly
// -- including the bitwise sample entropy.
TEST(ShardMergeProperty, FrequencyCounterMergeEqualsWholeColumn) {
  std::mt19937_64 rng(4201);
  for (uint32_t support : kSupports) {
    for (int trial = 0; trial < 20; ++trial) {
      const uint64_t n = rng() % 2000;  // includes the empty sample
      const size_t num_shards = 1 + rng() % 8;
      SCOPED_TRACE(testing::Message() << "support=" << support << " n=" << n
                                      << " shards=" << num_shards);
      const std::vector<ValueCode> codes = RandomCodes(rng, n, support);
      const std::vector<size_t> shard_of = RandomShardOf(rng, n, num_shards);

      FrequencyCounter whole(support);
      whole.AddCodes(codes.data(), codes.size());

      std::vector<FrequencyCounter> deltas(num_shards,
                                           FrequencyCounter(support));
      for (uint64_t i = 0; i < n; ++i) deltas[shard_of[i]].Add(codes[i]);
      FrequencyCounter merged(support);
      for (size_t s = 0; s < num_shards; ++s) merged.Merge(deltas[s]);

      ExpectSameState(whole, merged);
    }
  }
}

// Reset + reuse across rounds (the driver's delta-counter lifecycle):
// a reset delta behaves like a fresh one.
TEST(ShardMergeProperty, FrequencyCounterResetReuseAcrossRounds) {
  std::mt19937_64 rng(77);
  FrequencyCounter delta(33);
  FrequencyCounter merged(33);
  FrequencyCounter whole(33);
  for (int round = 0; round < 5; ++round) {
    const std::vector<ValueCode> codes = RandomCodes(rng, 500, 33);
    delta.Reset();
    delta.AddCodes(codes.data(), codes.size());
    merged.Merge(delta);
    whole.AddCodes(codes.data(), codes.size());
    ExpectSameState(whole, merged);
  }
}

// PairCounter::Merge reaches exactly the integer state of whole-column
// counting -- pair counts, sample count, distinct pairs -- for every
// layout combination (dense/dense, sparse/sparse, sparse merged into
// dense, and migrate-during-merge). The joint entropy is a pure function
// of the counts, so it matches bitwise.
TEST(ShardMergeProperty, PairCounterMergeEqualsWholeColumnIntegerState) {
  struct Geometry {
    uint32_t support_a;
    uint32_t support_b;
    uint64_t dense_limit;
  };
  // 1x1 is the width-0 x width-0 corner; 16x16 is immediately dense;
  // 80x80 starts sparse and may migrate; 300x300 with a tiny limit is
  // pinned sparse forever.
  const Geometry kGeometries[] = {
      {1, 1, 1ULL << 20},
      {3, 7, 1ULL << 20},
      {16, 16, 1ULL << 20},
      {80, 80, 1ULL << 20},
      {300, 300, 16},
  };
  std::mt19937_64 rng(4202);
  for (const Geometry& g : kGeometries) {
    for (int trial = 0; trial < 10; ++trial) {
      const uint64_t n = rng() % 3000;
      const size_t num_shards = 1 + rng() % 8;
      SCOPED_TRACE(testing::Message()
                   << "support=" << g.support_a << "x" << g.support_b
                   << " n=" << n << " shards=" << num_shards);
      const std::vector<ValueCode> a = RandomCodes(rng, n, g.support_a);
      const std::vector<ValueCode> b = RandomCodes(rng, n, g.support_b);
      const std::vector<size_t> shard_of = RandomShardOf(rng, n, num_shards);

      PairCounter whole(g.support_a, g.support_b, g.dense_limit);
      whole.AddCodes(a.data(), b.data(), n);

      std::vector<PairCounter> deltas;
      for (size_t s = 0; s < num_shards; ++s) {
        deltas.emplace_back(g.support_a, g.support_b, g.dense_limit);
      }
      for (uint64_t i = 0; i < n; ++i) deltas[shard_of[i]].Add(a[i], b[i]);
      PairCounter merged(g.support_a, g.support_b, g.dense_limit);
      for (size_t s = 0; s < num_shards; ++s) merged.Merge(deltas[s]);

      EXPECT_EQ(whole.sample_count(), merged.sample_count());
      EXPECT_EQ(whole.distinct_pairs(), merged.distinct_pairs());
      for (uint32_t ca = 0; ca < g.support_a; ++ca) {
        for (uint32_t cb = 0; cb < g.support_b; ++cb) {
          ASSERT_EQ(whole.count(ca, cb), merged.count(ca, cb))
              << "pair (" << ca << ", " << cb << ")";
        }
      }
      EXPECT_EQ(whole.SampleJointEntropy(), merged.SampleJointEntropy());
    }
  }
}

// The production MI reduction: a shard task counts its rows into
// (candidate, shard)-private deltas, pairing each candidate code with
// the round's gathered target code through the partition's slice
// positions; the reducer merges the deltas in ascending shard order.
// The merged joint entropy equals whole-slice counting bitwise for any
// shard size (ragged last shard included), any layout (immediately
// dense, sparse-then-migrating, pinned sparse), any merge order, and
// any order of inserting the slice.
TEST(ShardMergeProperty, PairCounterShardPartitionAndOrderInvariant) {
  struct Geometry {
    uint32_t support_t;
    uint32_t support_a;
    uint64_t dense_limit;
  };
  const Geometry kGeometries[] = {
      {16, 80, 1ULL << 20},  // 1280 cells: dense from the start
      {80, 300, 1ULL << 20},  // 24000 cells: sparse, may migrate
      {80, 300, 16},          // pinned sparse
  };
  std::mt19937_64 rng(4203);
  const uint32_t kRows = 20000;
  for (const Geometry& g : kGeometries) {
    for (const uint64_t shard_size : {20000ULL, 5000ULL, 2861ULL, 97ULL}) {
      const size_t num_shards =
          static_cast<size_t>((kRows + shard_size - 1) / shard_size);
      SCOPED_TRACE(testing::Message()
                   << "support=" << g.support_t << "x" << g.support_a
                   << " limit=" << g.dense_limit
                   << " shard_size=" << shard_size);
      const std::vector<ValueCode> target =
          RandomCodes(rng, kRows, g.support_t);
      const std::vector<ValueCode> cand = RandomCodes(rng, kRows, g.support_a);

      // A sampled prefix of a random row permutation, as in the driver.
      std::vector<uint32_t> order(kRows);
      for (uint32_t i = 0; i < kRows; ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(), rng);
      const uint64_t begin = 1000;
      const uint64_t end = 13000;

      // Whole-slice reference: the serial round's gathered slices.
      std::vector<ValueCode> target_slice;
      std::vector<ValueCode> cand_slice;
      for (uint64_t i = begin; i < end; ++i) {
        target_slice.push_back(target[order[i]]);
        cand_slice.push_back(cand[order[i]]);
      }
      PairCounter whole(g.support_t, g.support_a, g.dense_limit);
      whole.AddCodes(target_slice.data(), cand_slice.data(),
                     cand_slice.size());

      // Shard tasks: per-shard deltas, target codes via slice_pos.
      ShardSlicePartition partition;
      partition.Build(order, begin, end, shard_size, num_shards);
      std::vector<PairCounter> deltas;
      for (size_t s = 0; s < num_shards; ++s) {
        deltas.emplace_back(g.support_t, g.support_a, g.dense_limit);
        const std::vector<uint32_t>& rows = partition.local_rows(s);
        const std::vector<uint32_t>& pos = partition.slice_pos(s);
        for (size_t i = 0; i < rows.size(); ++i) {
          deltas[s].Add(target_slice[pos[i]], cand[s * shard_size + rows[i]]);
        }
      }
      PairCounter ascending(g.support_t, g.support_a, g.dense_limit);
      for (size_t s = 0; s < num_shards; ++s) ascending.Merge(deltas[s]);
      PairCounter descending(g.support_t, g.support_a, g.dense_limit);
      for (size_t s = num_shards; s-- > 0;) descending.Merge(deltas[s]);

      // The same slice inserted in a shuffled order.
      std::vector<size_t> perm(target_slice.size());
      for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
      std::shuffle(perm.begin(), perm.end(), rng);
      PairCounter shuffled(g.support_t, g.support_a, g.dense_limit);
      for (size_t i : perm) shuffled.Add(target_slice[i], cand_slice[i]);

      for (const PairCounter* other : {&ascending, &descending, &shuffled}) {
        EXPECT_EQ(whole.sample_count(), other->sample_count());
        EXPECT_EQ(whole.distinct_pairs(), other->distinct_pairs());
        EXPECT_EQ(whole.SampleJointEntropy(), other->SampleJointEntropy());
      }
    }
  }
}

// Merging an empty counter is a no-op, and merging into an empty counter
// copies the source's state exactly.
TEST(ShardMergeProperty, EmptyShardsAreNeutral) {
  std::mt19937_64 rng(4204);
  const std::vector<ValueCode> codes = RandomCodes(rng, 300, 5);

  FrequencyCounter whole(5);
  whole.AddCodes(codes.data(), codes.size());
  FrequencyCounter merged(5);
  FrequencyCounter empty(5);
  merged.Merge(empty);
  merged.Merge(whole);
  merged.Merge(empty);
  ExpectSameState(whole, merged);

  PairCounter pair_whole(5, 5);
  pair_whole.AddCodes(codes.data(), codes.data(), codes.size());
  PairCounter pair_merged(5, 5);
  PairCounter pair_empty(5, 5);
  pair_merged.Merge(pair_empty);
  pair_merged.Merge(pair_whole);
  pair_merged.Merge(pair_empty);
  EXPECT_EQ(pair_whole.sample_count(), pair_merged.sample_count());
  EXPECT_EQ(pair_whole.distinct_pairs(), pair_merged.distinct_pairs());
  for (uint32_t ca = 0; ca < 5; ++ca) {
    for (uint32_t cb = 0; cb < 5; ++cb) {
      EXPECT_EQ(pair_whole.count(ca, cb), pair_merged.count(ca, cb));
    }
  }  EXPECT_EQ(pair_whole.SampleJointEntropy(), pair_merged.SampleJointEntropy());
}

}  // namespace
}  // namespace swope
