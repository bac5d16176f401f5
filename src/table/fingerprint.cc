#include "src/table/fingerprint.h"

#include <cstddef>
#include <string>
#include <string_view>

namespace swope {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

// SplitMix64 finalizer: breaks up the linearity of plain FNV so similar
// tables (e.g. one code incremented) diverge in every output bit.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Hasher {
 public:
  void Add(uint64_t value) {
    state_ = (state_ ^ Mix(value)) * kFnvPrime;
  }

  void Add(std::string_view text) {
    Add(static_cast<uint64_t>(text.size()));
    for (unsigned char c : text) state_ = (state_ ^ c) * kFnvPrime;
  }

  uint64_t Finish() const { return Mix(state_); }

 private:
  uint64_t state_ = kFnvOffset;
};

// Feeds a column's values to the hasher as one bit stream: the shards'
// packed payloads concatenated at the column width, re-aligned across
// shard boundaries, with the bits after the last value masked off. The
// width is canonical for the support, so the stream is a function of the
// logical values alone -- not of the shard geometry, the storage mode,
// or whatever a borrowed payload holds past its last value.
class BitStream {
 public:
  explicit BitStream(Hasher& hasher) : hasher_(hasher) {}

  /// Appends the low `bits` bits of `word` (1 <= bits <= 64).
  void Append(uint64_t word, uint32_t bits) {
    if (bits < 64) word &= (uint64_t{1} << bits) - 1;
    pending_ |= word << filled_;
    if (filled_ + bits < 64) {
      filled_ += bits;
      return;
    }
    hasher_.Add(pending_);
    const uint32_t spilled = 64 - filled_;  // bits of `word` consumed
    pending_ = spilled < 64 ? word >> spilled : 0;
    filled_ = filled_ + bits - 64;
  }

  /// Appends a shard payload of `bits` bits.
  void AppendPayload(const uint64_t* words, uint64_t bits) {
    const uint64_t full = bits / 64;
    if (filled_ == 0) {
      for (uint64_t w = 0; w < full; ++w) hasher_.Add(words[w]);
    } else {
      for (uint64_t w = 0; w < full; ++w) Append(words[w], 64);
    }
    if (bits % 64 != 0) Append(words[full], static_cast<uint32_t>(bits % 64));
  }

  /// Hashes the final partial word, if any; call once, at the end.
  void Flush() {
    if (filled_ > 0) hasher_.Add(pending_);
  }

 private:
  Hasher& hasher_;
  uint64_t pending_ = 0;
  uint32_t filled_ = 0;  // valid low bits of pending_, always < 64
};

}  // namespace

uint64_t TableFingerprint(const Table& table) {
  Hasher hasher;
  hasher.Add(table.num_rows());
  hasher.Add(static_cast<uint64_t>(table.num_columns()));
  for (const Column& column : table.columns()) {
    hasher.Add(column.name());
    hasher.Add(static_cast<uint64_t>(column.support()));
    const ShardedCodes& codes = column.sharded();
    BitStream stream(hasher);
    for (size_t s = 0; s < codes.num_shards(); ++s) {
      const PackedCodes& shard = codes.shard(s);
      stream.AppendPayload(shard.data_words(), shard.size() * shard.width());
    }
    stream.Flush();
    hasher.Add(static_cast<uint64_t>(column.labels().size()));
    for (const std::string& label : column.labels()) hasher.Add(label);
  }
  return hasher.Finish();
}

}  // namespace swope
