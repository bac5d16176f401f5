#include "src/core/pair_counter.h"

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/entropy.h"
#include "src/core/frequency_counter.h"
#include "src/datagen/generator.h"
#include "src/table/column_view.h"
#include "src/table/shuffle.h"

namespace swope {
namespace {

TEST(PairCounterTest, SelectsDenseForSmallProduct) {
  PairCounter small(10, 10, 1000);
  EXPECT_TRUE(small.is_dense());
  PairCounter big(100, 100, 1000);
  EXPECT_FALSE(big.is_dense());
}

TEST(PairCounterTest, MigratesSparseToDenseUnderLoad) {
  // 128*128 = 16384 cells > kImmediateDenseCells, so the counter starts
  // sparse; filling an eighth of the domain triggers migration midway,
  // and all statistics must survive it. A never-migrating counter fed
  // the same stream is the reference; the joint entropy must match it
  // bitwise at every checkpoint, before and after the migration.
  PairCounter counter(128, 128, /*dense_limit=*/1 << 20);
  PairCounter reference(128, 128, /*dense_limit=*/1);
  ASSERT_FALSE(counter.is_dense());
  Rng rng(5);
  bool checked_sparse = false;
  for (int i = 1; i <= 8000; ++i) {
    const auto a = static_cast<ValueCode>(rng.UniformU64(128));
    const auto b = static_cast<ValueCode>(rng.UniformU64(128));
    counter.Add(a, b);
    reference.Add(a, b);
    if (i % 250 == 0) {
      checked_sparse |= !counter.is_dense();
      ASSERT_EQ(counter.SampleJointEntropy(), reference.SampleJointEntropy())
          << "after " << i << " samples, dense=" << counter.is_dense();
    }
  }
  EXPECT_TRUE(checked_sparse);
  EXPECT_TRUE(counter.is_dense());
  ASSERT_FALSE(reference.is_dense());
  EXPECT_EQ(counter.sample_count(), 8000u);
  EXPECT_EQ(counter.distinct_pairs(), reference.distinct_pairs());
  for (uint32_t a = 0; a < 128; a += 13) {
    for (uint32_t b = 0; b < 128; b += 11) {
      EXPECT_EQ(counter.count(a, b), reference.count(a, b));
    }
  }
}

TEST(PairCounterTest, CountsPairs) {
  PairCounter counter(3, 3);
  counter.Add(0, 1);
  counter.Add(0, 1);
  counter.Add(2, 2);
  EXPECT_EQ(counter.sample_count(), 3u);
  EXPECT_EQ(counter.distinct_pairs(), 2u);
  EXPECT_EQ(counter.count(0, 1), 2u);
  EXPECT_EQ(counter.count(2, 2), 1u);
  EXPECT_EQ(counter.count(1, 1), 0u);
}

TEST(PairCounterTest, JointEntropyUniformPairs) {
  PairCounter counter(2, 2);
  counter.Add(0, 0);
  counter.Add(0, 1);
  counter.Add(1, 0);
  counter.Add(1, 1);
  EXPECT_NEAR(counter.SampleJointEntropy(), 2.0, 1e-12);
}

TEST(PairCounterTest, EmptyEntropyIsZero) {
  PairCounter counter(4, 4);
  EXPECT_EQ(counter.SampleJointEntropy(), 0.0);
}

TEST(PairCounterTest, DenseAndSparseAgree) {
  auto a = GenerateColumn(ColumnSpec::Uniform("a", 6), 3000, 1);
  auto b = GenerateColumn(ColumnSpec::Zipf("b", 9, 1.0), 3000, 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  PairCounter dense(6, 9, /*dense_limit=*/1000);
  PairCounter sparse(6, 9, /*dense_limit=*/1);
  ASSERT_TRUE(dense.is_dense());
  ASSERT_FALSE(sparse.is_dense());

  for (uint64_t r = 0; r < 3000; ++r) {
    dense.Add(a->code(r), b->code(r));
    sparse.Add(a->code(r), b->code(r));
  }
  EXPECT_EQ(dense.sample_count(), sparse.sample_count());
  EXPECT_EQ(dense.distinct_pairs(), sparse.distinct_pairs());
  // Both layouts scan the same nonzero counts in the same key order.
  EXPECT_EQ(dense.SampleJointEntropy(), sparse.SampleJointEntropy());
  for (uint32_t i = 0; i < 6; ++i) {
    for (uint32_t j = 0; j < 9; ++j) {
      EXPECT_EQ(dense.count(i, j), sparse.count(i, j));
    }
  }
}

// A constant target (u_t = 1) makes every pair key equal the candidate
// code, so H(t, a) must equal H(a) bitwise, in either layout.
TEST(PairCounterTest, ConstantTargetJointEqualsMarginalBitwise) {
  for (const uint32_t support : {9u, 5000u}) {
    for (const uint64_t dense_limit : {uint64_t{1} << 20, uint64_t{1}}) {
      SCOPED_TRACE(testing::Message()
                   << "support=" << support << " limit=" << dense_limit);
      auto a = GenerateColumn(ColumnSpec::Zipf("a", support, 1.1), 6000, 11);
      ASSERT_TRUE(a.ok());
      FrequencyCounter marginal(support);
      PairCounter joint(1, support, dense_limit);
      for (uint64_t r = 0; r < 6000; ++r) {
        marginal.Add(a->code(r));
        joint.Add(0, a->code(r));
      }
      EXPECT_EQ(joint.distinct_pairs(), marginal.distinct_seen());
      EXPECT_EQ(joint.SampleJointEntropy(), marginal.SampleEntropy());
    }
  }
}

TEST(PairCounterTest, FullScanMatchesExactJointEntropy) {
  auto a = GenerateColumn(ColumnSpec::Uniform("a", 5), 8000, 3);
  auto b = GenerateColumn(ColumnSpec::Geometric("b", 7, 0.4), 8000, 4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto order = ShuffledRowOrder(8000, 5);

  std::vector<ValueCode> sa;
  std::vector<ValueCode> sb;
  PairCounter counter(5, 7);
  counter.AddCodes(ColumnView(*a).Gather(order, 0, 8000, sa),
                   ColumnView(*b).Gather(order, 0, 8000, sb), 8000);
  auto exact = ExactJointEntropy(*a, *b);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(counter.SampleJointEntropy(), *exact, 1e-9);
}

TEST(PairCounterTest, AddCodesInBatchesMatchesOneShot) {
  auto a = GenerateColumn(ColumnSpec::Uniform("a", 4), 2000, 6);
  auto b = GenerateColumn(ColumnSpec::Uniform("b", 4), 2000, 7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto order = ShuffledRowOrder(2000, 8);
  const ColumnView view_a(*a);
  const ColumnView view_b(*b);
  std::vector<ValueCode> sa;
  std::vector<ValueCode> sb;

  PairCounter batched(4, 4);
  batched.AddCodes(view_a.Gather(order, 0, 500, sa),
                   view_b.Gather(order, 0, 500, sb), 500);
  batched.AddCodes(view_a.Gather(order, 500, 1300, sa),
                   view_b.Gather(order, 500, 1300, sb), 800);
  batched.AddCodes(view_a.Gather(order, 1300, 2000, sa),
                   view_b.Gather(order, 1300, 2000, sb), 700);

  PairCounter oneshot(4, 4);
  oneshot.AddCodes(view_a.Gather(order, 0, 2000, sa),
                   view_b.Gather(order, 0, 2000, sb), 2000);

  EXPECT_EQ(batched.SampleJointEntropy(), oneshot.SampleJointEntropy());
  EXPECT_EQ(batched.distinct_pairs(), oneshot.distinct_pairs());
}

}  // namespace
}  // namespace swope
