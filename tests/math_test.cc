#include "src/common/math.h"

#include <cmath>

#include <gtest/gtest.h>

namespace swope {
namespace {

TEST(MathTest, XLog2XConventionAtZero) {
  EXPECT_EQ(XLog2X(0.0), 0.0);
  EXPECT_EQ(XLog2X(-1.0), 0.0);
}

TEST(MathTest, XLog2XKnownValues) {
  EXPECT_DOUBLE_EQ(XLog2X(1.0), 0.0);
  EXPECT_DOUBLE_EQ(XLog2X(2.0), 2.0);
  EXPECT_DOUBLE_EQ(XLog2X(4.0), 8.0);
  EXPECT_NEAR(XLog2X(0.5), -0.5, 1e-12);
}

TEST(MathTest, SafeLog2) {
  EXPECT_DOUBLE_EQ(SafeLog2(8.0), 3.0);
  EXPECT_EQ(SafeLog2(0.0), 0.0);
  EXPECT_EQ(SafeLog2(-2.0), 0.0);
}

TEST(MathTest, EntropyFromCountsUniform) {
  // Four equally frequent values -> 2 bits.
  EXPECT_NEAR(EntropyFromCounts({5, 5, 5, 5}, 20), 2.0, 1e-12);
}

TEST(MathTest, EntropyFromCountsDegenerate) {
  EXPECT_EQ(EntropyFromCounts({10, 0, 0}, 10), 0.0);
  EXPECT_EQ(EntropyFromCounts({}, 0), 0.0);
}

TEST(MathTest, EntropyFromCountsBiasedCoin) {
  // p = 1/4: H = 0.25*2 + 0.75*log2(4/3).
  const double expected = 0.25 * 2.0 + 0.75 * std::log2(4.0 / 3.0);
  EXPECT_NEAR(EntropyFromCounts({1, 3}, 4), expected, 1e-12);
}

TEST(MathTest, EntropyFromXLog2XSumMatchesCounts) {
  const std::vector<uint64_t> counts = {7, 2, 9, 1, 11};
  uint64_t total = 0;
  double sum = 0.0;
  for (uint64_t c : counts) {
    total += c;
    sum += XLog2X(static_cast<double>(c));
  }
  EXPECT_NEAR(EntropyFromXLog2XSum(sum, total),
              EntropyFromCounts(counts, total), 1e-12);
}

TEST(MathTest, EntropyFromXLog2XSumClampsNegativeNoise) {
  // sum slightly above total*log2(total) would give a tiny negative H.
  const double sum = 8.0 * std::log2(8.0) + 1e-9;
  EXPECT_EQ(EntropyFromXLog2XSum(sum, 8), 0.0);
}

TEST(MathTest, EntropyOfPmfNormalizes) {
  // Unnormalized uniform weights still give log2(n).
  EXPECT_NEAR(EntropyOfPmf({2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0}), 3.0,
              1e-12);
}

TEST(MathTest, EntropyOfPmfIgnoresNonPositive) {
  EXPECT_NEAR(EntropyOfPmf({0.5, 0.5, 0.0, -1.0}), 1.0, 1e-12);
  EXPECT_EQ(EntropyOfPmf({0.0, 0.0}), 0.0);
  EXPECT_EQ(EntropyOfPmf({}), 0.0);
}

TEST(MathTest, BinaryEntropyEndpointsAndPeak) {
  EXPECT_EQ(BinaryEntropy(0.0), 0.0);
  EXPECT_EQ(BinaryEntropy(1.0), 0.0);
  EXPECT_NEAR(BinaryEntropy(0.5), 1.0, 1e-12);
  EXPECT_EQ(BinaryEntropy(-0.5), 0.0);  // clamped
  EXPECT_EQ(BinaryEntropy(1.5), 0.0);   // clamped
}

TEST(MathTest, BinaryEntropySymmetry) {
  for (double p : {0.1, 0.25, 0.4}) {
    EXPECT_NEAR(BinaryEntropy(p), BinaryEntropy(1.0 - p), 1e-12);
  }
}

TEST(MathTest, Clamp) {
  EXPECT_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
}

TEST(MathTest, NearlyEqual) {
  EXPECT_TRUE(NearlyEqual(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(NearlyEqual(1.0, 1.1));
  EXPECT_TRUE(NearlyEqual(1.0, 1.05, 0.1));
}

}  // namespace
}  // namespace swope
