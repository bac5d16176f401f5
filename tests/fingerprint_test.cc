#include "src/table/fingerprint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/datagen/generator.h"
#include "src/table/binary_io.h"
#include "tests/test_util.h"

namespace swope {
namespace {

using test::MakeEntropyTable;

TEST(FingerprintTest, DeterministicAcrossCopies) {
  const Table a = MakeEntropyTable({3.0, 4.0}, 500, 7);
  const Table b = MakeEntropyTable({3.0, 4.0}, 500, 7);
  EXPECT_EQ(TableFingerprint(a), TableFingerprint(b));
  // Repeated calls on the same object agree too.
  EXPECT_EQ(TableFingerprint(a), TableFingerprint(a));
}

TEST(FingerprintTest, SensitiveToData) {
  const Table base = MakeEntropyTable({3.0, 4.0}, 500, 7);
  // Different generation seed => different codes => different print.
  EXPECT_NE(TableFingerprint(base),
            TableFingerprint(MakeEntropyTable({3.0, 4.0}, 500, 8)));
  // Different row count.
  EXPECT_NE(TableFingerprint(base),
            TableFingerprint(MakeEntropyTable({3.0, 4.0}, 501, 7)));
  // Different column count.
  EXPECT_NE(TableFingerprint(base),
            TableFingerprint(MakeEntropyTable({3.0, 4.0, 2.0}, 500, 7)));
}

TEST(FingerprintTest, SensitiveToColumnName) {
  TableSpec spec;
  spec.num_rows = 200;
  spec.seed = 11;
  spec.columns.push_back(ColumnSpec::EntropyTargeted("alpha", 16, 3.0));
  auto a = GenerateTable(spec);
  ASSERT_TRUE(a.ok());
  spec.columns[0] = ColumnSpec::EntropyTargeted("beta", 16, 3.0);
  auto b = GenerateTable(spec);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(TableFingerprint(*a), TableFingerprint(*b));
}

TEST(FingerprintTest, SensitiveToRowOrder) {
  const Table base = MakeEntropyTable({3.0, 4.0}, 500, 7);
  std::vector<uint32_t> perm(500);
  for (uint32_t r = 0; r < 500; ++r) perm[r] = 499 - r;
  auto permuted = base.PermuteRows(perm);
  ASSERT_TRUE(permuted.ok());
  EXPECT_NE(TableFingerprint(base), TableFingerprint(*permuted));
}

// Columns of supports 5, 64 and 300 (widths 3, 6 and 9 bits), so shard
// payloads rarely end on a word boundary.
Table MixedWidthTable(uint64_t rows) {
  TableSpec spec;
  spec.num_rows = rows;
  spec.seed = 23;
  spec.columns.push_back(ColumnSpec::EntropyTargeted("a", 5, 1.5));
  spec.columns.push_back(ColumnSpec::EntropyTargeted("b", 64, 4.0));
  spec.columns.push_back(ColumnSpec::EntropyTargeted("c", 300, 6.0));
  auto table = GenerateTable(spec);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return *std::move(table);
}

TEST(FingerprintTest, OwnedAndMappedLoadsPrintAlike) {
  const Table original = MixedWidthTable(5000);
  const std::string path = testing::TempDir() + "/swope_fingerprint.swpb";
  ASSERT_TRUE(WriteBinaryTableFile(original, path).ok());
  auto owned = ReadBinaryTableFile(path);
  auto mapped = ReadBinaryTableFileMapped(path);
  ASSERT_TRUE(owned.ok()) << owned.status().ToString();
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_GT(mapped->MappedBytes(), 0u);  // really borrowed
  EXPECT_EQ(TableFingerprint(*owned), TableFingerprint(original));
  EXPECT_EQ(TableFingerprint(*mapped), TableFingerprint(original));
  std::remove(path.c_str());
}

TEST(FingerprintTest, ReshardingKeepsPrint) {
  const Table whole = MixedWidthTable(1000);
  ASSERT_EQ(whole.num_shards(), 1u);
  for (uint64_t shard_size : {uint64_t{7}, uint64_t{64}}) {
    const Table sharded = whole.Resharded(shard_size);
    EXPECT_GT(sharded.num_shards(), 1u);
    EXPECT_EQ(TableFingerprint(sharded), TableFingerprint(whole))
        << "shard_size=" << shard_size;
  }
}

TEST(FingerprintTest, BorrowedTailBitsAreIgnored) {
  // 10 codes at width 5 fill 50 bits of one word; the other 14 bits are
  // not values and may hold anything in a borrowed payload.
  std::vector<ValueCode> codes = {1, 30, 7, 0, 19, 3, 3, 25, 11, 8};
  auto reference = Column::Make("x", 31, codes);
  ASSERT_TRUE(reference.ok());
  const uint64_t expected =
      TableFingerprint(Table::Make({*reference}).value());

  const PackedCodes packed = reference->sharded().Flatten();
  ASSERT_EQ(packed.num_data_words(), 1u);
  for (uint64_t garbage : {0ULL, ~0ULL << 50, 0xA5A5ULL << 50}) {
    // Payload word plus the read-guard word borrowed storage requires.
    auto words = std::make_shared<std::vector<uint64_t>>(
        std::vector<uint64_t>{packed.data_words()[0] | garbage, ~0ULL});
    auto borrowed = ShardedCodes::BorrowWords(codes.size(), packed.width(),
                                              words->data(), 1024);
    ASSERT_TRUE(borrowed.ok()) << borrowed.status().ToString();
    auto column = Column::FromShardedBacked("x", 31, *std::move(borrowed),
                                            {}, words);
    ASSERT_TRUE(column.ok()) << column.status().ToString();
    EXPECT_EQ(column->codes(), codes);
    EXPECT_EQ(TableFingerprint(Table::Make({*column}).value()), expected)
        << std::hex << garbage;
  }
}

TEST(FingerprintTest, EmptyTableHasStablePrint) {
  const Table empty;
  EXPECT_EQ(TableFingerprint(empty), TableFingerprint(Table()));
}

}  // namespace
}  // namespace swope
