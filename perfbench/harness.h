// Pieces of the serving benchmark that carry no timing of their own and
// are unit-tested on their own (harness_test.cc): the workload table and
// seeded request streams, the percentile rule, a reader for the serve
// protocol's JSON replies, the Definition 5/6 answer checker and the
// in-memory span log the traced run writes.

#ifndef SWOPE_PERFBENCH_HARNESS_H_
#define SWOPE_PERFBENCH_HARNESS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/engine/query_spec.h"
#include "src/table/table.h"
#include "src/obs/profiler.h"

namespace perfbench {

// ---------------------------------------------------------------------
// Random numbers. The benchmark owns its generator so that a change to
// the library's RNG never changes the request stream it is measured on.

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  /// SplitMix64 step.
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform integer in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound);

 private:
  uint64_t state_;
};

// ---------------------------------------------------------------------
// Percentiles.

/// A nearest-rank percentile together with the samples behind it.
struct Percentile {
  double value = 0.0;
  /// Samples the percentile was taken over.
  size_t samples = 0;
  /// Samples strictly above the chosen rank.
  size_t beyond = 0;
};

/// Tail percentiles are reported only with at least this many samples
/// beyond them (so p95 needs at least 200 samples).
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile q in (0, 1] of `values` (any order).
Percentile NearestRank(std::vector<double> values, double q);

/// Median (mean of the two middle values for an even count); 0 if empty.
double Median(std::vector<double> values);

/// True when `p` has enough samples beyond it to be reported.
inline bool TailSupported(const Percentile& p) {
  return p.beyond >= kMinSamplesBeyond;
}

// ---------------------------------------------------------------------
// Workloads.

struct WorkloadSpec {
  std::string name;
  /// Rows of the registered table (the preset is always cdc with the
  /// paper's support <= 1000 filter).
  uint64_t rows = 0;
  bool mmap = false;
  /// Closed-loop client threads.
  uint32_t clients = 1;
  /// Target columns of MI / NMI requests.
  std::vector<std::string> targets;
  /// Shares of the request mix; the remainder after repeats splits
  /// between the kinds by these weights.
  double entropy_topk = 0.0;
  double entropy_filter = 0.0;
  double mi_topk = 0.0;
  double mi_filter = 0.0;
  double nmi_topk = 0.0;
  double nmi_filter = 0.0;
  /// Share of requests that repeat one of the client's recent requests
  /// byte for byte (result-cache hits unless an ingest intervened).
  double repeat_share = 0.0;
  /// Share of fresh requests that use a never-seen seed (permutation
  /// build) instead of one from the pool.
  double fresh_seed_share = 0.0;
  /// Client 0 ingests a batch of this many rows every ingest_interval_ms;
  /// 0 disables ingest.
  uint32_t ingest_batch_rows = 0;
  double ingest_interval_ms = 0.0;
};

/// The three workloads, in the order BENCHMARK.json lists them.
const std::vector<WorkloadSpec>& AllWorkloads();

/// Looks a workload up by name; null when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Seed of the generated table contents. Fixed, so that the workload
/// seed changes only the request stream, never the data.
inline constexpr uint64_t kDataSeed = 2021;

/// The paper's preprocessing: columns with a larger support are dropped.
inline constexpr uint32_t kMaxSupport = 1000;

/// The first `rows` rows of the workloads' table: the cdc preset from
/// kDataSeed with the support filter applied. Rows are a prefix of one
/// generator stream, so a longer table continues a shorter one.
swope::Result<swope::Table> MakeWorkloadTable(uint64_t rows);

/// Rows [begin, end) of `table` as ingest rows: one label per column, in
/// column order (the inverse of what QueryEngine::Ingest parses).
std::vector<std::vector<std::string>> RowsAsCells(const swope::Table& table,
                                                  uint64_t begin,
                                                  uint64_t end);

/// Row-permutation seeds a run draws from (permutations are built in the
/// warm-up and then shared through the engine's permutation cache).
inline constexpr size_t kSeedPoolSize = 4;
std::array<uint64_t, kSeedPoolSize> SeedPool(uint64_t seed);

// ---------------------------------------------------------------------
// Requests.

struct Request {
  /// The serve protocol line sent to HandleRequestLine.
  std::string line;
  swope::QueryKind kind = swope::QueryKind::kEntropyTopK;
  size_t k = 0;
  double eta = 0.0;
  double epsilon = 0.1;
  /// Target column name (MI / NMI kinds), empty otherwise.
  std::string target;
  uint64_t seed = 0;
  /// Repeats an earlier request of the same client exactly.
  bool repeat = false;
};

/// Dataset name every request line addresses.
inline constexpr const char* kDatasetName = "bench";

/// The request stream of one client. Deterministic in (workload, seed,
/// client); clients draw from disjoint streams. Each request parameter
/// (kind, k, eta, epsilon, target, seed choice, repeat choice) follows its
/// own additive low-discrepancy sequence from a seeded random start, so
/// every stream holds the workload's mix in its stated proportions
/// within a few requests while the seed still changes every request.
class RequestStream {
 public:
  RequestStream(const WorkloadSpec& spec, uint64_t seed, uint32_t client);
  Request Next();

 private:
  enum Dim { kRepeat, kKind, kTopK, kEta, kEpsilon, kTarget, kSeed, kFresh,
             kNumDims };

  /// The next value in [0, 1) of dimension `dim`'s sequence.
  double Draw(Dim dim);

  Request Fresh();

  const WorkloadSpec* spec_;
  std::array<uint64_t, kSeedPoolSize> pool_;
  Rng rng_;
  std::array<double, kNumDims> position_{};
  /// Recent fresh requests, the candidates for exact repeats.
  std::vector<Request> recent_;
  size_t recent_next_ = 0;
};

/// Renders a request line; appends " profile=1" when `profile`.
std::string WithProfile(const std::string& line);

// ---------------------------------------------------------------------
// Replies.

struct Item {
  size_t index = 0;
  double estimate = 0.0;
  double lower = 0.0;
  double upper = 0.0;
};

struct Reply {
  bool ok = false;
  bool cache_hit = false;
  std::string error;
  std::vector<Item> items;
  uint64_t final_sample_size = 0;
  uint64_t iterations = 0;
  uint64_t cells_scanned = 0;
  bool exhausted = false;
  /// Present when the request carried profile=1 and the query executed.
  bool has_profile = false;
  std::array<double, swope::kNumStages> stage_ms{};
  double wall_ms = 0.0;
  uint64_t allocs = 0;
};

/// Parses one query reply line. Returns false when the line is not a
/// well-formed reply (which the benchmark counts as a failure).
bool ParseReply(const std::string& json, Reply* reply);

/// Reads gauge `name` from the serve protocol's `metrics` reply (its
/// snapshot.gauges object). Returns false when the reply does not parse
/// or has no such gauge.
bool MetricsGauge(const std::string& json, const std::string& name,
                  double* value);

// ---------------------------------------------------------------------
// Checking.

/// Checks an ok reply to `request` against exact scores of the table the
/// query ran on (`exact[j]` is column j's exact entropy, or its exact MI
/// with the target for MI kinds). Top-k replies must satisfy Definition 5,
/// filter replies Definition 6; NMI replies are not checked (the NMI
/// stopping rule is heuristic). `target` is the target's column index
/// for MI kinds and ignored otherwise.
bool AnswerSatisfies(const Request& request, const Reply& reply,
                     const std::vector<double>& exact, size_t target);

/// FNV-1a over a request line and its answer (indices and the bit
/// patterns of each estimate and interval).
uint64_t DigestAnswer(uint64_t digest, const std::string& line,
                      const Reply& reply);

/// Every attempted operation ends either ok or failed.
struct Tally {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  void Add(bool success) {
    ++attempted;
    ++(success ? ok : failed);
  }
};

// ---------------------------------------------------------------------
// Spans.

struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  /// Index of the parent span in the log, or -1 for a root.
  int64_t parent = -1;
  /// Request the span belongs to (0 for work outside a request).
  uint64_t request = 0;
};

/// Thread-safe in-memory span log, written out when the run ends.
class SpanLog {
 public:
  /// Appends a span and returns its index.
  int64_t Add(Span span);
  std::vector<Span> Snapshot() const;
  /// Writes one JSON object per span and line, in log order: name,
  /// start_ms, end_ms, parent (a line index, or -1) and request.
  void WriteJsonLines(std::ostream& out) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Per span name: total self time (duration minus the durations of its
/// direct children) and the number of spans.
struct SelfTime {
  double ms = 0.0;
  uint64_t count = 0;
};
std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // SWOPE_PERFBENCH_HARNESS_H_
