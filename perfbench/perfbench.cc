// perfbench: the repository's serving benchmark.
//
//   perfbench --workload <entropy_2m|mi_500k|serve_mix> --seed N
//             --seconds S --trace 0|1 [--data-dir DIR]
//
// Drives an in-process QueryEngine (default EngineConfig) through the
// serve protocol's HandleRequestLine, exactly what `swope_cli serve` runs
// per line, from closed-loop client threads. Every answer is checked
// against Exact scores (Definition 5 / 6). The human-readable report
// comes first; the last line of stdout is one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// README.md beside this file lists every metric and workload.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/harness.h"
#include "src/baselines/exact.h"
#include "src/engine/query_engine.h"
#include "src/engine/serve.h"
#include "src/table/append.h"
#include "src/table/binary_io.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Rows = std::vector<std::vector<std::string>>;

/// Setup repeats at least kSetupReps times and until registrations have
/// taken kSetupSeconds, so short setups get more samples behind their
/// median.
constexpr size_t kSetupReps = 7;
constexpr double kSetupSeconds = 2.0;
constexpr size_t kWarmupPerSeed = 1;
constexpr size_t kProbeRequests = 6;
constexpr uint64_t kPostRunIngests = 3;
constexpr uint64_t kPostRunIngestRows = 100;

const Clock::time_point g_epoch = Clock::now();

double NowMs() {
  return std::chrono::duration<double, std::milli>(Clock::now() - g_epoch)
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

// ---------------------------------------------------------------------
// Arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir = ".bench_build/perfbench-data";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Die("missing value for " + key);
    }
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--data-dir") {
      args.data_dir = value;
    } else {
      Die("unknown argument " + key);
    }
  }
  if (FindWorkload(args.workload) == nullptr) {
    Die("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0.0)) Die("--seconds must be positive");
  return args;
}

// ---------------------------------------------------------------------
// Process statistics

// Resets the kernel's peak-RSS mark to the current RSS (Linux 4.0+).
void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

struct Faults {
  long minor = 0;
  long major = 0;
};

Faults ReadFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {usage.ru_minflt, usage.ru_majflt};
}

// ---------------------------------------------------------------------
// Data

/// serve_mix ingest batches generated per dataset: enough for a
/// 60-second run at its cadence.
constexpr size_t kIngestBatches = 62;
/// Bump when the generated files change shape.
constexpr int kDataFormat = 2;

struct Dataset {
  std::string path;
  /// Ingest rows in ingest order, one comma-separated row per line.
  std::string rows_path;
  /// Exact scores for every table version (see GroundTruth).
  std::string truth_path;
  uint64_t file_bytes = 0;
};

/// Reads ingest batches from a rows file one at a time, so that no batch
/// is held in memory before it is sent.
class BatchReader {
 public:
  BatchReader(const std::string& path, size_t rows_per_batch)
      : in_(path), rows_per_batch_(rows_per_batch) {}

  /// Reads the next batch; false when no full batch is left.
  bool Next(Rows* batch) {
    batch->clear();
    std::string line;
    while (batch->size() < rows_per_batch_ && std::getline(in_, line)) {
      std::vector<std::string> cells;
      size_t begin = 0;
      for (size_t comma; (comma = line.find(',', begin)) != std::string::npos;
           begin = comma + 1) {
        cells.push_back(line.substr(begin, comma - begin));
      }
      cells.push_back(line.substr(begin));
      batch->push_back(std::move(cells));
    }
    return rows_per_batch_ > 0 && batch->size() == rows_per_batch_;
  }

 private:
  std::ifstream in_;
  size_t rows_per_batch_;
};

// ---------------------------------------------------------------------
// Ground truth: Exact scores per table version (version v = the table
// after the first v ingest batches) and question (all columns' entropy,
// or one target's MI).

class GroundTruth {
 public:
  static constexpr size_t kEntropy = static_cast<size_t>(-1);

  struct Entry {
    /// scores[j]: column j's exact entropy, or its exact MI with the
    /// target (0 for the target itself).
    std::vector<double> scores;
    /// Cells Exact scanned for the answer.
    uint64_t cells = 0;
  };

  /// The questions a workload asks: entropy, then each target's MI.
  static std::vector<size_t> Questions(const WorkloadSpec& spec,
                                       const swope::Table& table) {
    std::vector<size_t> questions = {kEntropy};
    for (const std::string& target : spec.targets) {
      auto index = table.ColumnIndex(target);
      if (!index.ok()) Die("unknown target " + target);
      questions.push_back(*index);
    }
    return questions;
  }

  static Entry Exact(const swope::Table& table, size_t question) {
    const size_t h = table.num_columns();
    auto answer = question == kEntropy
                      ? swope::ExactTopKEntropy(table, h)
                      : swope::ExactTopKMi(table, question, h - 1);
    if (!answer.ok()) Die("exact: " + answer.status().ToString());
    Entry entry;
    entry.scores.assign(h, 0.0);
    for (const swope::AttributeScore& item : answer->items) {
      entry.scores[item.index] = item.estimate;
    }
    entry.cells = answer->stats.cells_scanned;
    return entry;
  }

  /// Computes every question on versions 0 .. versions-1 of the
  /// dataset's table.
  static GroundTruth Compute(const WorkloadSpec& spec, const Dataset& data,
                             size_t versions) {
    GroundTruth truth;
    auto loaded = swope::ReadBinaryTableFile(data.path);
    if (!loaded.ok()) Die("reload: " + loaded.status().ToString());
    swope::Table table = *std::move(loaded);
    const std::vector<size_t> questions = Questions(spec, table);
    BatchReader batches(data.rows_path, spec.ingest_batch_rows);
    Rows batch;
    for (uint32_t version = 0; version < versions; ++version) {
      if (version > 0) {
        if (!batches.Next(&batch)) Die("too few ingest rows");
        auto next = swope::AppendRowsToTable(table, batch);
        if (!next.ok()) Die("append: " + next.status().ToString());
        table = *std::move(next);
      }
      for (size_t question : questions) {
        truth.entries_[{version, question}] = Exact(table, question);
      }
    }
    return truth;
  }

  /// One line per entry: version, question (-1 for entropy), cells,
  /// score count and the scores as hex floats, so they read back exact.
  void Save(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) Die("cannot write " + path);
    for (const auto& [key, entry] : entries_) {
      std::fprintf(out, "%u %lld %llu %zu", key.first,
                   key.second == kEntropy ? -1LL
                                          : static_cast<long long>(key.second),
                   static_cast<unsigned long long>(entry.cells),
                   entry.scores.size());
      for (double score : entry.scores) std::fprintf(out, " %a", score);
      std::fprintf(out, "\n");
    }
    if (std::fclose(out) != 0) Die("cannot write " + path);
  }

  static GroundTruth Load(const std::string& path) {
    GroundTruth truth;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      const char* p = line.c_str();
      char* end = nullptr;
      const auto version = static_cast<uint32_t>(std::strtoul(p, &end, 10));
      const long long question = std::strtoll(end, &end, 10);
      Entry entry;
      entry.cells = std::strtoull(end, &end, 10);
      entry.scores.resize(std::strtoull(end, &end, 10));
      for (double& score : entry.scores) score = std::strtod(end, &end);
      if (end == p || *end != '\0') Die("malformed ground truth " + path);
      truth.entries_[{version, question < 0 ? kEntropy
                                            : static_cast<size_t>(question)}] =
          std::move(entry);
    }
    if (truth.entries_.empty()) Die("no ground truth in " + path);
    return truth;
  }

  const Entry* Find(uint32_t version, size_t question) const {
    auto it = entries_.find({version, question});
    return it == entries_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::pair<uint32_t, size_t>, Entry> entries_;
};

// Writes the table file, the ingest rows that follow it in the same
// generator stream, and the ground truth for every table version.
void Generate(const WorkloadSpec& spec, const Dataset& data) {
  auto made = MakeWorkloadTable(spec.rows);
  if (!made.ok()) Die("datagen: " + made.status().ToString());
  const swope::Table& table = *made;
  if (!swope::WriteBinaryTableFile(table, data.path).ok()) {
    Die("cannot write " + data.path);
  }
  std::ofstream rows_out(data.rows_path);
  const size_t batches = spec.ingest_batch_rows > 0 ? kIngestBatches : 0;
  if (batches > 0) {
    const uint64_t extra = batches * spec.ingest_batch_rows;
    auto longer = MakeWorkloadTable(spec.rows + extra);
    if (!longer.ok()) Die("datagen: " + longer.status().ToString());
    if (longer->ColumnNames() != table.ColumnNames()) {
      Die("datagen: the longer table has other columns");
    }
    for (const std::vector<std::string>& row :
         RowsAsCells(*longer, spec.rows, spec.rows + extra)) {
      for (size_t c = 0; c < row.size(); ++c) {
        rows_out << (c == 0 ? "" : ",") << row[c];
      }
      rows_out << "\n";
    }
  }
  rows_out.close();
  if (!rows_out) Die("cannot write " + data.rows_path);
  GroundTruth::Compute(spec, data, batches + 1).Save(data.truth_path);
}

// Returns the workload's dataset, generating it on first use. The
// generator and the ground truth run in a child process, so that their
// heap never counts towards the benchmark's peak RSS; later runs in the
// same checkout reuse the files (they depend on no argument but the
// workload).
Dataset MakeDataset(const WorkloadSpec& spec, const Args& args) {
  std::filesystem::create_directories(args.data_dir);
  const std::string base = args.data_dir + "/" + spec.name;
  Dataset data;
  data.path = base + ".swpb";
  data.rows_path = base + ".rows";
  data.truth_path = base + ".truth";
  const std::string marker_path = base + ".ok";
  const std::string key = "cdc rows=" + std::to_string(spec.rows) +
                          " seed=" + std::to_string(kDataSeed) +
                          " batches=" + std::to_string(kIngestBatches) +
                          " format=" + std::to_string(kDataFormat);
  std::string found;
  std::getline(std::ifstream(marker_path), found);
  if (found != key || !std::filesystem::exists(data.path) ||
      !std::filesystem::exists(data.truth_path)) {
    std::filesystem::remove(marker_path);
    std::fflush(stdout);
    const pid_t child = fork();
    if (child < 0) Die("fork failed");
    if (child == 0) {
      Generate(spec, data);
      std::fflush(nullptr);
      _exit(0);
    }
    int status = 0;
    if (waitpid(child, &status, 0) != child || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      Die("data generation failed");
    }
    std::ofstream(marker_path) << key << "\n";
  }
  data.file_bytes = std::filesystem::file_size(data.path);
  return data;
}

// ---------------------------------------------------------------------
// Checking: every answer is checked as it arrives, and only counts are
// kept, so the harness's memory does not grow with the request count.

/// One answered request.
struct Answer {
  Reply reply;
  bool parsed = false;
  /// The table versions the query could have seen.
  uint32_t version_lo = 0;
  uint32_t version_hi = 0;
  double latency_ms = 0.0;
};

struct CheckResult {
  Tally queries;
  uint64_t not_ok = 0;
  uint64_t violations = 0;
  /// The first few failures, for the report.
  std::vector<std::string> notes;

  void Merge(const CheckResult& other) {
    queries.attempted += other.queries.attempted;
    queries.ok += other.queries.ok;
    queries.failed += other.queries.failed;
    not_ok += other.not_ok;
    violations += other.violations;
    for (const std::string& note : other.notes) Note(note);
  }

  void Note(const std::string& note) {
    if (notes.size() < 5) notes.push_back(note);
  }
};

bool IsNmi(swope::QueryKind kind) {
  return kind == swope::QueryKind::kNmiTopK ||
         kind == swope::QueryKind::kNmiFilter;
}

class Checker {
 public:
  Checker(const GroundTruth& truth, std::vector<std::string> names)
      : truth_(truth), names_(std::move(names)) {}

  /// The ground-truth question a request asks.
  size_t Question(const Request& request) const {
    if (!swope::NeedsTarget(request.kind)) return GroundTruth::kEntropy;
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == request.target) return i;
    }
    Die("unknown target " + request.target);
  }

  void Check(const Request& request, const Answer& answer,
             CheckResult* out) const {
    if (!answer.parsed || !answer.reply.ok) {
      out->queries.Add(false);
      ++out->not_ok;
      out->Note("not ok: " + request.line + " -> " + answer.reply.error);
      return;
    }
    if (IsNmi(request.kind)) {
      out->queries.Add(true);
      return;
    }
    const size_t question = Question(request);
    const size_t target = question == GroundTruth::kEntropy ? 0 : question;
    bool satisfied = false;
    for (uint32_t v = answer.version_lo; v <= answer.version_hi && !satisfied;
         ++v) {
      const GroundTruth::Entry* exact = truth_.Find(v, question);
      if (exact == nullptr) Die("missing ground truth");
      satisfied =
          AnswerSatisfies(request, answer.reply, exact->scores, target);
    }
    out->queries.Add(satisfied);
    if (!satisfied) {
      ++out->violations;
      out->Note("violation: " + request.line + " (versions " +
                std::to_string(answer.version_lo) + ".." +
                std::to_string(answer.version_hi) + ")");
    }
  }

 private:
  const GroundTruth& truth_;
  std::vector<std::string> names_;
};

// ---------------------------------------------------------------------
// Serving

/// Untraced timed requests of one query kind (and target, for MI kinds).
struct KindStats {
  std::vector<double> latency_ms;
  uint64_t hits = 0;
  uint64_t exhausted = 0;
  double cells = 0.0;
};
using KindKey = std::pair<int, std::string>;

struct PhaseResult {
  double wall_s = 0.0;
  std::vector<double> latency_ms;
  std::vector<double> ingest_ms;
  uint64_t ingest_failed = 0;
};

/// Shared state of the ingesting client and the query clients.
struct IngestState {
  std::atomic<uint32_t> started{0};
  std::atomic<uint32_t> done{0};
};

// Sends one request line and parses the reply. With `spans`, records the
// request span and, from the reply's stage breakdown, its children.
Answer Send(swope::QueryEngine& engine, const Request& request,
            bool profile, IngestState& ingest, SpanLog* spans = nullptr,
            uint64_t request_id = 0) {
  Answer answer;
  const std::string line = profile ? WithProfile(request.line) : request.line;
  answer.version_lo = ingest.done.load();
  bool quit = false;
  const double start = NowMs();
  const std::string reply = swope::HandleRequestLine(engine, line, &quit);
  const double end = NowMs();
  answer.version_hi = ingest.started.load();
  answer.latency_ms = end - start;
  answer.parsed = ParseReply(reply, &answer.reply);
  if (spans != nullptr) {
    const int64_t root =
        spans->Add({"serve.request", start, end, -1, request_id});
    if (answer.reply.has_profile) {
      const double query_start = end - answer.reply.wall_ms;
      const int64_t query =
          spans->Add({"core.query", query_start, end, root, request_id});
      // The breakdown gives each stage's total, not when it ran, so the
      // stage spans are laid end to end in taxonomy order from the
      // query's start: their durations are measured, their positions
      // inside the query are not.
      static const char* const kStageSpan[swope::kNumStages] = {
          "table.gather",  "core.count",      "core.merge",
          "core.merge",    "core.interval",   "core.sched_wait",
          "core.finalize"};
      double at = query_start;
      for (size_t s = 0; s < swope::kNumStages; ++s) {
        const double ms = answer.reply.stage_ms[s];
        if (ms <= 0.0) continue;
        spans->Add({kStageSpan[s], at, at + ms, query, request_id});
        at += ms;
      }
    }
  }
  return answer;
}

class Server {
 public:
  Server(const WorkloadSpec& spec, const Args& args, const Dataset& data,
         swope::QueryEngine& engine, const Checker& checker, SpanLog& spans)
      : spec_(spec), args_(args), engine_(engine), checker_(checker),
        spans_(spans), batches_(data.rows_path, spec.ingest_batch_rows),
        checks_(spec.clients), kinds_(spec.clients),
        traced_cells_(spec.clients, 0.0) {
    for (uint32_t c = 0; c < spec.clients; ++c) {
      streams_.emplace_back(spec, args.seed, c);
    }
  }

  /// Serial warm-up: kWarmupPerSeed requests per pool seed, so every
  /// shared permutation is built before timing starts.
  void WarmUp() {
    for (const Request& request : WarmupRequests(spec_, args_.seed)) {
      checker_.Check(request, Send(engine_, request, false, ingest_),
                     &checks_[0]);
    }
  }

  static std::vector<Request> WarmupRequests(const WorkloadSpec& spec,
                                             uint64_t seed) {
    RequestStream stream(spec, seed, 1000);
    const auto pool = SeedPool(seed);
    std::vector<Request> requests;
    for (size_t i = 0; i < kWarmupPerSeed * kSeedPoolSize; ++i) {
      Request request = stream.Next();
      request.seed = pool[i % kSeedPoolSize];
      request.line = request.line.substr(0, request.line.rfind(" seed=")) +
                     " seed=" + std::to_string(request.seed);
      requests.push_back(std::move(request));
    }
    return requests;
  }

  /// Runs every client closed-loop for `seconds`, checking each answer
  /// as it arrives.
  PhaseResult RunPhase(double seconds, bool traced) {
    PhaseResult result;
    std::vector<std::vector<double>> latencies(spec_.clients);
    std::vector<double> ingests;
    uint64_t ingest_failed = 0;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> clients;
    for (uint32_t c = 0; c < spec_.clients; ++c) {
      clients.emplace_back([&, c] {
        const bool ingester = c == 0 && spec_.ingest_batch_rows > 0;
        const auto interval = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(
                spec_.ingest_interval_ms));
        Clock::time_point next_ingest = start + interval;
        Rows batch;
        while (Clock::now() < deadline) {
          if (ingester && Clock::now() >= next_ingest &&
              ingest_.started.load() < kIngestBatches &&
              batches_.Next(&batch)) {
            next_ingest += interval;
            const double ms = Ingest(batch, traced);
            if (ms < 0) {
              ++ingest_failed;
            } else {
              ingests.push_back(ms);
            }
            continue;
          }
          const Request request = streams_[c].Next();
          const uint64_t id = next_request_id_.fetch_add(1) + 1;
          const Answer answer = Send(engine_, request, traced, ingest_,
                                     traced ? &spans_ : nullptr, id);
          latencies[c].push_back(answer.latency_ms);
          checker_.Check(request, answer, &checks_[c]);
          if (traced) {
            if (answer.reply.has_profile) {
              traced_cells_[c] +=
                  static_cast<double>(answer.reply.cells_scanned);
            }
            continue;
          }
          KindStats& kind = kinds_[c][{static_cast<int>(request.kind),
                                       request.target}];
          kind.latency_ms.push_back(answer.latency_ms);
          kind.hits += answer.reply.cache_hit ? 1 : 0;
          kind.exhausted += answer.reply.exhausted ? 1 : 0;
          kind.cells += static_cast<double>(answer.reply.cells_scanned);
        }
      });
    }
    for (std::thread& client : clients) client.join();
    result.wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    for (const std::vector<double>& client : latencies) {
      result.latency_ms.insert(result.latency_ms.end(), client.begin(),
                               client.end());
    }
    result.ingest_ms = std::move(ingests);
    result.ingest_failed = ingest_failed;
    return result;
  }

  /// Ingests one batch; returns its wall time in ms, or -1 on failure.
  double Ingest(const Rows& batch, bool traced) {
    ingest_.started.fetch_add(1);
    const double start = NowMs();
    const swope::Status status = engine_.Ingest(kDatasetName, batch);
    const double end = NowMs();
    ingest_.done.fetch_add(1);
    if (traced) spans_.Add({"table.ingest", start, end, -1, 0});
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: ingest failed: %s\n",
                   status.ToString().c_str());
      return -1.0;
    }
    return end - start;
  }

  /// Every check so far: warm-up and timed phases.
  CheckResult Checks() const {
    CheckResult all;
    for (const CheckResult& check : checks_) all.Merge(check);
    return all;
  }

  std::map<KindKey, KindStats> Kinds() const {
    std::map<KindKey, KindStats> all;
    for (const auto& client : kinds_) {
      for (const auto& [key, stats] : client) {
        KindStats& merged = all[key];
        merged.latency_ms.insert(merged.latency_ms.end(),
                                 stats.latency_ms.begin(),
                                 stats.latency_ms.end());
        merged.hits += stats.hits;
        merged.exhausted += stats.exhausted;
        merged.cells += stats.cells;
      }
    }
    return all;
  }

  /// Cells scanned by the traced phase's executed queries.
  double TracedCells() const {
    double cells = 0.0;
    for (double client : traced_cells_) cells += client;
    return cells;
  }

 private:
  const WorkloadSpec& spec_;
  const Args& args_;
  swope::QueryEngine& engine_;
  const Checker& checker_;
  SpanLog& spans_;
  /// Read by client 0 only.
  BatchReader batches_;
  std::vector<RequestStream> streams_;
  /// Per client, so that clients never share a counter.
  std::vector<CheckResult> checks_;
  std::vector<std::map<KindKey, KindStats>> kinds_;
  std::vector<double> traced_cells_;
  IngestState ingest_;
  std::atomic<uint64_t> next_request_id_{0};
};

// Registers the dataset into a fresh default engine; returns the
// registration wall time in seconds.
std::unique_ptr<swope::QueryEngine> Register(const WorkloadSpec& spec,
                                             const Dataset& data,
                                             SpanLog& spans,
                                             double* seconds) {
  auto engine = std::make_unique<swope::QueryEngine>(swope::EngineConfig{});
  const double start = NowMs();
  const swope::Status status = engine->RegisterDatasetFile(
      kDatasetName, data.path, kMaxSupport, /*sketch_epsilon=*/0.0,
      /*sketch_threshold=*/kMaxSupport, spec.mmap);
  const double end = NowMs();
  if (!status.ok()) Die("register: " + status.ToString());
  spans.Add({"registry.register", start, end, -1, 0});
  *seconds = (end - start) / 1e3;
  return engine;
}

// ---------------------------------------------------------------------
// Deterministic probe: on a fresh engine, the warm-up then the first
// kProbeRequests requests of the clients' streams (round robin),
// serially, with profile=1. Its counters depend only on (workload, seed).

struct Probe {
  uint64_t executed = 0;
  uint64_t cells = 0;
  uint64_t rounds = 0;
  uint64_t final_m = 0;
  uint64_t exhausted = 0;
  uint64_t allocs = 0;
  uint64_t exact_cells = 0;
  uint64_t over_exact = 0;
  uint64_t digest = 0xCBF29CE484222325ULL;
  /// Checks of every probe answer, warm-up included.
  CheckResult check;

  bool SameCounters(const Probe& o) const {
    return executed == o.executed && cells == o.cells &&
           rounds == o.rounds && final_m == o.final_m &&
           exhausted == o.exhausted && allocs == o.allocs &&
           digest == o.digest;
  }
};

std::vector<Request> ProbeRequests(const WorkloadSpec& spec, uint64_t seed) {
  std::vector<RequestStream> streams;
  for (uint32_t c = 0; c < spec.clients; ++c) {
    streams.emplace_back(spec, seed, c);
  }
  std::vector<Request> requests;
  for (size_t i = 0; i < kProbeRequests; ++i) {
    requests.push_back(streams[i % streams.size()].Next());
  }
  return requests;
}

// Runs the probe; compares every executed query's cells with the cells
// Exact scans for the same question.
Probe RunProbe(const WorkloadSpec& spec, const Args& args,
               const Dataset& data, const Checker& checker,
               const GroundTruth& truth) {
  // The probe's registrations stay out of the run's span log.
  SpanLog probe_spans;
  double seconds = 0.0;
  auto engine = Register(spec, data, probe_spans, &seconds);
  Probe probe;
  IngestState no_ingest;
  for (const Request& request : Server::WarmupRequests(spec, args.seed)) {
    checker.Check(request, Send(*engine, request, false, no_ingest),
                  &probe.check);
  }
  for (const Request& request : ProbeRequests(spec, args.seed)) {
    const Answer answer = Send(*engine, request, true, no_ingest);
    checker.Check(request, answer, &probe.check);
    const Reply& reply = answer.reply;
    probe.digest = DigestAnswer(probe.digest, request.line, reply);
    if (!reply.ok || reply.cache_hit) continue;
    ++probe.executed;
    probe.cells += reply.cells_scanned;
    probe.rounds += reply.iterations;
    probe.final_m += reply.final_sample_size;
    probe.exhausted += reply.exhausted ? 1 : 0;
    probe.allocs += reply.allocs;
    const GroundTruth::Entry* exact =
        truth.Find(0, checker.Question(request));
    if (exact == nullptr) Die("missing ground truth");
    probe.exact_cells += exact->cells;
    if (reply.cells_scanned > exact->cells) ++probe.over_exact;
  }
  return probe;
}

// Traced runs: times Exact on the unchanged table for every question
// (the baselines.exact spans). Each answer must equal the ground truth
// loaded from the data directory; returns false otherwise.
bool TimeExactBaselines(const WorkloadSpec& spec, const Dataset& data,
                        const GroundTruth& truth, SpanLog& spans,
                        std::vector<double>* exact_ms) {
  auto table = swope::ReadBinaryTableFile(data.path);
  if (!table.ok()) Die("reload: " + table.status().ToString());
  bool same = true;
  for (size_t question : GroundTruth::Questions(spec, *table)) {
    const double start = NowMs();
    const GroundTruth::Entry entry = GroundTruth::Exact(*table, question);
    const double end = NowMs();
    spans.Add({"baselines.exact", start, end, -1, 0});
    exact_ms->push_back(end - start);
    const GroundTruth::Entry* saved = truth.Find(0, question);
    same = same && saved != nullptr && saved->scores == entry.scores &&
           saved->cells == entry.cells;
  }
  return same;
}

// ---------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string FormatValue(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void PrintMetrics(const std::string& title, const std::vector<Metric>& all) {
  std::printf("\n## %s\n\n| metric | value | unit |\n|---|---:|---|\n",
              title.c_str());
  for (const Metric& m : all) {
    std::printf("| %s | %.6g | %s |\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Untraced timed requests per query kind (and target, for MI kinds).
void PrintKindTable(const std::map<KindKey, KindStats>& kinds) {
  std::printf("\n## requests by kind (untraced timed phase)\n\n"
              "| kind | target | n | p50 ms | cache hits | exhausted | "
              "cells/query |\n|---|---|---:|---:|---:|---:|---:|\n");
  for (const auto& [key, stats] : kinds) {
    const auto kind = static_cast<swope::QueryKind>(key.first);
    const size_t n = stats.latency_ms.size();
    std::printf("| %s | %s | %zu | %.3f | %llu | %llu | %.0f |\n",
                std::string(swope::QueryKindToString(kind)).c_str(),
                key.second.empty() ? "-" : key.second.c_str(), n,
                Median(stats.latency_ms),
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.exhausted),
                stats.cells / static_cast<double>(n));
  }
}

double ArenaMib(swope::QueryEngine& engine) {
  bool quit = false;
  const std::string metrics =
      swope::HandleRequestLine(engine, "metrics", &quit);
  double bytes = 0.0;
  if (!MetricsGauge(metrics, "swope_query_arena_bytes", &bytes)) {
    Die("metrics reply has no swope_query_arena_bytes gauge");
  }
  return bytes / (1024.0 * 1024.0);
}

struct Setup {
  std::unique_ptr<swope::QueryEngine> engine;
  std::vector<double> setup_s;
  /// Traced runs: the table layer alone (load and validate, no
  /// fingerprint or registration).
  std::vector<double> load_s;
};

// Registers the dataset repeatedly, each time into a fresh engine, and
// keeps the last engine for serving.
Setup RunSetup(const WorkloadSpec& spec, const Args& args,
               const Dataset& data, SpanLog& spans) {
  Setup setup;
  double total_s = 0.0;
  while (setup.setup_s.size() < kSetupReps || total_s < kSetupSeconds) {
    setup.engine.reset();
    if (args.trace) {
      const double start = NowMs();
      auto table = spec.mmap ? swope::ReadBinaryTableFileMapped(data.path)
                             : swope::ReadBinaryTableFile(data.path);
      const double end = NowMs();
      if (!table.ok()) Die("load: " + table.status().ToString());
      spans.Add({"table.load", start, end, -1, 0});
      setup.load_s.push_back((end - start) / 1e3);
    }
    double seconds = 0.0;
    setup.engine = Register(spec, data, spans, &seconds);
    setup.setup_s.push_back(seconds);
    total_s += seconds;
  }
  return setup;
}

// Prints the configuration that actually runs and returns the column
// names of the registered table.
std::vector<std::string> PrintRunRecord(const WorkloadSpec& spec,
                                        const Args& args,
                                        const Dataset& data,
                                        swope::QueryEngine& engine) {
  const swope::EngineConfig& config = engine.config();
  std::printf("# perfbench %s\n\n", spec.name.c_str());
  std::printf("seed=%llu seconds=%g trace=%d\n",
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("host: cores=%u build=%s compiler=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              __VERSION__);
  std::printf(
      "engine: num_threads=%zu intra_query_threads=%zu pool_mode=%s "
      "shard_size=%llu max_in_flight=%zu max_in_flight_tasks=%zu "
      "max_admission_waiters=%zu memory_budget_bytes=%llu result_cache=%zu "
      "permutation_cache=%zu query_memory_pool=%zu\n",
      config.num_threads, config.intra_query_threads,
      swope::PoolModeName(config.pool_mode),
      static_cast<unsigned long long>(config.shard_size),
      config.max_in_flight, config.max_in_flight_tasks,
      config.max_admission_waiters,
      static_cast<unsigned long long>(config.memory_budget_bytes),
      config.result_cache_capacity, config.permutation_cache_capacity,
      config.query_memory_pool_size);
  std::printf("load: closed loop, %u client thread(s)%s\n", spec.clients,
              spec.ingest_batch_rows > 0
                  ? ", client 0 also ingests 100-row batches"
                  : "");
  auto dataset = engine.registry().Get(kDatasetName);
  if (!dataset.ok()) Die("registered dataset missing");
  const swope::Table& table = (*dataset)->table;
  std::printf(
      "dataset: preset=cdc rows=%llu columns=%zu shards=%zu shard_size=%llu "
      "file_bytes=%llu resident_bytes=%llu mapped_bytes=%llu storage=%s\n",
      static_cast<unsigned long long>(table.num_rows()), table.num_columns(),
      table.num_shards(), static_cast<unsigned long long>(table.shard_size()),
      static_cast<unsigned long long>(data.file_bytes),
      static_cast<unsigned long long>((*dataset)->memory_bytes),
      static_cast<unsigned long long>((*dataset)->mapped_bytes),
      spec.mmap ? "mmap" : "owned");
  return table.ColumnNames();
}

/// What a run measured besides the checks.
struct Measured {
  std::vector<double> load_s;
  swope::DatasetRegistry::Stats registry;
  PhaseResult plain;
  PhaseResult traced;
  std::vector<double> ingest_ms;
  swope::EngineCounters before;
  swope::EngineCounters after;
  Faults faults_before;
  Faults faults_after;
  double arena_mib = 0.0;
  /// Cells scanned by the traced phase's executed queries.
  double traced_cells = 0.0;
  /// Traced runs: wall time of each Exact baseline.
  std::vector<double> exact_ms;
};

// Prints the traced run's self-time table and returns the per-layer
// metrics, in BENCHMARK.json order.
std::vector<Metric> LayerMetrics(const Measured& m, const SpanLog& spans,
                                 const Probe& probe, bool probe_repeats) {
  const std::vector<Span> all = spans.Snapshot();
  const std::map<std::string, SelfTime> self = SelfTimes(all);
  auto ms_of = [&self](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.ms;
  };
  auto count_of = [&self](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const double requests = count_of("serve.request");
  const double executed = count_of("core.query");
  double request_total = 0.0;
  for (const Span& span : all) {
    if (span.name == "serve.request") {
      request_total += span.end_ms - span.start_ms;
    }
  }

  // The request tree: serve.request > core.query > stage spans. Self
  // time of serve.request is engine overhead (parse, resolve, caches,
  // encoding); self time of core.query is what no stage timer covers.
  const char* const kLayers[] = {"serve.request", "table.gather",
                                 "core.count",    "core.merge",
                                 "core.interval", "core.sched_wait",
                                 "core.finalize", "core.query"};
  std::printf("\n## self time per layer (traced phase: %g requests, %g "
              "executed)\n\n| layer | self ms | per request ms | share |\n"
              "|---|---:|---:|---:|\n",
              requests, executed);
  double layer_sum = 0.0;
  for (const char* layer : kLayers) {
    const double ms = ms_of(layer);
    std::printf("| %s | %.3f | %.4f | %.1f%% |\n", layer, ms,
                Ratio(ms, requests), 100.0 * Ratio(ms, request_total));
    if (std::string(layer) != "core.query") layer_sum += ms;
  }
  const double gap = request_total - layer_sum;
  std::printf("| request total | %.3f | %.4f | 100%% |\n", request_total,
              Ratio(request_total, requests));
  std::printf("\nlayer-sum gap (request total minus the layers' self "
              "times, i.e. core.query self): %.3f ms = %.2f%% of the "
              "request total\n",
              gap, 100.0 * Ratio(gap, request_total));
  std::printf("\n## other spans\n\n| span | count | mean ms |\n"
              "|---|---:|---:|\n");
  for (const char* name : {"registry.register", "table.load",
                           "table.ingest", "baselines.exact"}) {
    std::printf("| %s | %.0f | %.3f |\n", name, count_of(name),
                Ratio(ms_of(name), count_of(name)));
  }
  const double traced_p50 = NearestRank(m.traced.latency_ms, 0.50).value;
  const double plain_p50 = NearestRank(m.plain.latency_ms, 0.50).value;
  const double overhead_pct = 100.0 * (Ratio(traced_p50, plain_p50) - 1.0);
  std::printf("\ntracing overhead: traced p50 %.4f ms vs untraced p50 "
              "%.4f ms = %+.2f%%\n",
              traced_p50, plain_p50, overhead_pct);
  std::printf("probe: executed=%llu digest=%016llx repeat=%s\n",
              static_cast<unsigned long long>(probe.executed),
              static_cast<unsigned long long>(probe.digest),
              probe_repeats ? "identical" : "DIFFERENT");

  const double per_query = executed > 0 ? executed : 1.0;
  const double gather_ms = ms_of("table.gather");
  const double count_ms = ms_of("core.count");
  const swope::EngineCounters& b = m.before;
  const swope::EngineCounters& a = m.after;
  const double timed_requests =
      static_cast<double>(a.queries_started - b.queries_started);
  const double executed_all =
      static_cast<double>(a.result_cache_misses - b.result_cache_misses);
  const double probe_n =
      probe.executed > 0 ? static_cast<double>(probe.executed) : 1.0;
  auto per_probe = [probe_n](uint64_t total) {
    return static_cast<double>(total) / probe_n;
  };
  constexpr double kMib = 1024.0 * 1024.0;
  return {
      {"table.gather_ms", gather_ms / per_query, "ms"},
      {"table.gather_ns_per_cell", 1e6 * Ratio(gather_ms, m.traced_cells),
       "ns"},
      {"table.load_s", Median(m.load_s), "s"},
      {"table.resident_mib",
       static_cast<double>(m.registry.resident_bytes) / kMib, "MiB"},
      {"table.mapped_mib", static_cast<double>(m.registry.mapped_bytes) / kMib,
       "MiB"},
      {"table.ingest_ms", Median(m.ingest_ms), "ms"},
      {"core.count_ms", count_ms / per_query, "ms"},
      {"core.count_ns_per_cell", 1e6 * Ratio(count_ms, m.traced_cells), "ns"},
      {"core.interval_ms", ms_of("core.interval") / per_query, "ms"},
      {"core.sched_wait_ms", ms_of("core.sched_wait") / per_query, "ms"},
      {"core.finalize_ms", ms_of("core.finalize") / per_query, "ms"},
      {"core.unattributed_ms", ms_of("core.query") / per_query, "ms"},
      {"core.cells_per_query", per_probe(probe.cells), "cells"},
      {"core.rounds_per_query", per_probe(probe.rounds), "rounds"},
      {"core.final_m_mean", per_probe(probe.final_m), "rows"},
      {"core.exhausted_share", per_probe(probe.exhausted), "ratio"},
      {"core.allocs_per_query", per_probe(probe.allocs), "count"},
      {"core.cells_vs_exact",
       Ratio(static_cast<double>(probe.cells),
             static_cast<double>(probe.exact_cells)),
       "ratio"},
      {"baselines.exact_ms", Median(m.exact_ms), "ms"},
      {"engine.overhead_ms", Ratio(ms_of("serve.request"), requests), "ms"},
      {"engine.result_cache_hit_ratio",
       Ratio(static_cast<double>(a.result_cache_hits - b.result_cache_hits),
             timed_requests),
       "ratio"},
      {"engine.perm_miss_ratio",
       Ratio(static_cast<double>(a.permutation_cache_misses -
                                 b.permutation_cache_misses),
             executed_all),
       "ratio"},
      {"engine.admission_wait_ratio",
       Ratio(static_cast<double>(a.admission_waits - b.admission_waits),
             executed_all),
       "ratio"},
      {"engine.rejected", static_cast<double>(a.rejected - b.rejected),
       "count"},
      {"engine.arena_mib", m.arena_mib, "MiB"},
      {"common.executor_utilization", a.executor_utilization, "ratio"},
      {"common.intra_utilization", a.intra_utilization, "ratio"},
      {"common.pool_steals", static_cast<double>(a.pool_steals - b.pool_steals),
       "count"},
      {"fs.minor_faults",
       static_cast<double>(m.faults_after.minor - m.faults_before.minor),
       "count"},
      {"fs.major_faults",
       static_cast<double>(m.faults_after.major - m.faults_before.major),
       "count"},
      {"obs.trace_overhead_pct", overhead_pct, "%"},
      {"obs.layer_gap_pct", 100.0 * Ratio(gap, request_total), "%"},
  };
}

// The result line: the last line of stdout.
void PrintResult(bool correct, const Tally& total,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(total.attempted);
  json += ", \"failed\": " + std::to_string(total.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatValue(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  const Dataset data = MakeDataset(spec, args);
  const GroundTruth truth = GroundTruth::Load(data.truth_path);

  // ---- setup ----
  SpanLog spans;
  ResetPeakRss();
  Setup setup = RunSetup(spec, args, data, spans);
  swope::QueryEngine& engine = *setup.engine;
  const Checker checker(truth, PrintRunRecord(spec, args, data, engine));
  Measured m;
  m.load_s = setup.load_s;
  m.registry = engine.registry().GetStats();

  // ---- warm-up and timed phases ----
  Server server(spec, args, data, engine, checker, spans);
  server.WarmUp();
  m.before = engine.GetCounters();
  m.faults_before = ReadFaults();
  if (args.trace) {
    m.plain = server.RunPhase(args.seconds / 2, false);
    m.traced = server.RunPhase(args.seconds / 2, true);
  } else {
    m.plain = server.RunPhase(args.seconds, false);
  }
  m.faults_after = ReadFaults();
  m.after = engine.GetCounters();
  const double rss_peak_mib = PeakRssMib();
  m.arena_mib = ArenaMib(engine);
  m.traced_cells = server.TracedCells();
  CheckResult check = server.Checks();

  // Traced runs of the workloads without ingest traffic measure the
  // ingest layer once the timed phases are over.
  m.ingest_ms = m.plain.ingest_ms;
  m.ingest_ms.insert(m.ingest_ms.end(), m.traced.ingest_ms.begin(),
                     m.traced.ingest_ms.end());
  uint64_t ingest_failed = m.plain.ingest_failed + m.traced.ingest_failed;
  if (args.trace && spec.ingest_batch_rows == 0) {
    auto current = engine.registry().Get(kDatasetName);
    if (!current.ok()) Die("registered dataset missing");
    for (uint64_t b = 0; b < kPostRunIngests; ++b) {
      const double ms = server.Ingest(
          RowsAsCells((*current)->table, b * kPostRunIngestRows,
                      (b + 1) * kPostRunIngestRows),
          true);
      if (ms < 0) {
        ++ingest_failed;
      } else {
        m.ingest_ms.push_back(ms);
      }
    }
  }
  const std::map<KindKey, KindStats> kinds = server.Kinds();
  setup.engine.reset();

  // ---- probe and Exact baselines (traced runs) ----
  Probe probe;
  bool probe_repeats = true;
  bool exact_repeats = true;
  if (args.trace) {
    probe = RunProbe(spec, args, data, checker, truth);
    const Probe again = RunProbe(spec, args, data, checker, truth);
    probe_repeats = probe.SameCounters(again);
    check.Merge(probe.check);
    check.Merge(again.check);
    exact_repeats =
        TimeExactBaselines(spec, data, truth, spans, &m.exact_ms);
  }

  // ---- report ----
  // Every request sent (warm-up, timed, probe) and every ingest.
  Tally total = check.queries;
  for (size_t i = 0; i < m.ingest_ms.size(); ++i) total.Add(true);
  for (uint64_t i = 0; i < ingest_failed; ++i) total.Add(false);
  const bool correct = total.failed == 0 && probe_repeats &&
                       probe.over_exact == 0 && exact_repeats;

  for (const std::string& note : check.notes) {
    std::printf("%s\n", note.c_str());
  }
  if (!exact_repeats) {
    std::printf("Exact baselines differ from the saved ground truth\n");
  }
  const Percentile p50 = NearestRank(m.plain.latency_ms, 0.50);
  const Percentile p95 = NearestRank(m.plain.latency_ms, 0.95);
  PrintKindTable(kinds);
  std::printf("\nrequests: timed=%zu wall_s=%.3f p95_beyond=%zu%s\n",
              m.plain.latency_ms.size(), m.plain.wall_s, p95.beyond,
              TailSupported(p95) ? "" : " (fewer than 10 beyond: p95 "
                                        "unsupported)");
  std::printf("checks: attempted=%llu ok=%llu failed=%llu (queries "
              "checked=%llu not_ok=%llu violations=%llu; ingests failed=%llu)"
              "\nerror_rate=%.6g (%llu failed of %llu attempted)\n",
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.ok),
              static_cast<unsigned long long>(total.failed),
              static_cast<unsigned long long>(check.queries.attempted),
              static_cast<unsigned long long>(check.not_ok),
              static_cast<unsigned long long>(check.violations),
              static_cast<unsigned long long>(ingest_failed),
              Ratio(static_cast<double>(total.failed),
                    static_cast<double>(total.attempted)),
              static_cast<unsigned long long>(total.failed),
              static_cast<unsigned long long>(total.attempted));
  std::printf("samples: setup_s=%zu latency=%zu ingest=%zu\nsetup_s runs:",
              setup.setup_s.size(), p50.samples, m.ingest_ms.size());
  for (double seconds : setup.setup_s) std::printf(" %.4f", seconds);
  std::printf("\n");
  if (!m.ingest_ms.empty()) {
    std::printf("ingest_p50_ms=%.6g (n=%zu)\n", Median(m.ingest_ms),
                m.ingest_ms.size());
  }

  const std::vector<Metric> e2e = {
      {"setup_s", Median(setup.setup_s), "s"},
      {"latency_p50_ms", p50.value, "ms"},
      {"latency_p95_ms", p95.value, "ms"},
      {"qps", static_cast<double>(m.plain.latency_ms.size()) / m.plain.wall_s,
       "req/s"},
      {"rss_peak_mib", rss_peak_mib, "MiB"},
  };
  PrintMetrics("end-to-end", e2e);
  if (!args.trace) {
    PrintResult(correct, total, e2e);
    return 0;
  }
  const std::vector<Metric> layers =
      LayerMetrics(m, spans, probe, probe_repeats);
  const std::string spans_path =
      args.data_dir + "/" + spec.name + ".spans.jsonl";
  std::ofstream spans_out(spans_path);
  spans.WriteJsonLines(spans_out);
  spans_out.close();
  if (!spans_out) Die("cannot write " + spans_path);
  std::printf("\nspans: %zu written to %s\n", spans.Snapshot().size(),
              spans_path.c_str());
  PrintMetrics("per-layer", layers);
  PrintResult(correct, total, layers);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
