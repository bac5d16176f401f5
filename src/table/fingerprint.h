// Content fingerprint of a Table.
//
// The engine's caches (src/engine/) key entries by table *content*, not
// registry name, so reloading identical data under a new name still hits,
// and replacing a dataset in place can never serve stale answers. The
// fingerprint covers everything that can influence a query answer: shape,
// column names, supports, codes, and label dictionaries.

#ifndef SWOPE_TABLE_FINGERPRINT_H_
#define SWOPE_TABLE_FINGERPRINT_H_

#include <cstdint>

#include "src/table/table.h"

namespace swope {

/// 64-bit content hash of `table` (FNV-1a over a canonical serialization,
/// strengthened with a SplitMix64 finalizer per field). Codes are hashed
/// straight from the packed payload words -- no decode -- as one bit
/// stream per column, re-aligned across shard boundaries and masked past
/// the last value; since the width is canonical for the support, the
/// print depends on the logical values only, not on shard geometry or
/// owned vs mapped storage. Deterministic across runs and platforms of
/// equal endianness assumptions: all values are mixed as integers, never
/// as raw memory. Two tables with equal fingerprints are, for all
/// practical purposes, the same dataset; any difference in rows, row
/// order, names, supports, or labels changes the fingerprint with
/// overwhelming probability.
uint64_t TableFingerprint(const Table& table);

}  // namespace swope

#endif  // SWOPE_TABLE_FINGERPRINT_H_
