#include "perfbench/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <utility>

#include "src/core/query_result.h"
#include "src/datagen/dataset_presets.h"
#include "src/eval/accuracy.h"
#include "src/table/column_view.h"

namespace perfbench {

// ---------------------------------------------------------------------
// Rng

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t Rng::Below(uint64_t bound) { return Next() % bound; }

// ---------------------------------------------------------------------
// Percentiles

Percentile NearestRank(std::vector<double> values, double q) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      std::min(values.size() - 1,
               static_cast<size_t>(std::max(1.0, rank)) - 1);
  p.value = values[index];
  p.beyond = values.size() - 1 - index;
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

// ---------------------------------------------------------------------
// Workloads

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> workloads = [] {
    std::vector<WorkloadSpec> all;

    // One latency-bound client; the random-row gather over a table far
    // larger than any per-core cache dominates. The only mmap workload.
    WorkloadSpec entropy;
    entropy.name = "entropy_2m";
    entropy.rows = 2000000;
    entropy.mmap = true;
    entropy.clients = 1;
    entropy.entropy_topk = 0.5;
    entropy.entropy_filter = 0.5;
    all.push_back(entropy);

    // Four clients saturate the cores with PairCounter-bound MI queries.
    WorkloadSpec mi;
    mi.name = "mi_500k";
    mi.rows = 500000;
    mi.clients = 4;
    // Supports 8 .. 146: the low ones count pairs in PairCounter's dense
    // layout, the high ones start in its hashed layout.
    mi.targets = {"cdc_a37", "cdc_a18", "cdc_a89", "cdc_a53",
                  "cdc_a77", "cdc_a74", "cdc_a88", "cdc_a0"};
    mi.mi_topk = 0.45;
    mi.mi_filter = 0.45;
    mi.nmi_topk = 0.05;
    mi.nmi_filter = 0.05;
    all.push_back(mi);

    // Cheap queries on a cache-resident table, so engine overhead and
    // both caches show; ingests invalidate the caches beside the reads.
    WorkloadSpec mix;
    mix.name = "serve_mix";
    mix.rows = 200000;
    mix.clients = 4;
    mix.targets = {"cdc_a37", "cdc_a77"};
    mix.entropy_topk = 0.5;
    mix.entropy_filter = 0.48;
    mix.mi_topk = 0.01;
    mix.mi_filter = 0.01;
    mix.repeat_share = 0.2;
    mix.fresh_seed_share = 0.05;
    mix.ingest_batch_rows = 100;
    mix.ingest_interval_ms = 1000.0;
    all.push_back(mix);
    return all;
  }();
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

swope::Result<swope::Table> MakeWorkloadTable(uint64_t rows) {
  SWOPE_ASSIGN_OR_RETURN(
      swope::Table table,
      swope::MakePresetTable(swope::DatasetPreset::kCdc, rows, kDataSeed));
  return table.DropHighSupportColumns(kMaxSupport);
}

std::vector<std::vector<std::string>> RowsAsCells(const swope::Table& table,
                                                  uint64_t begin,
                                                  uint64_t end) {
  std::vector<std::vector<std::string>> rows(end - begin);
  std::vector<swope::ValueCode> scratch;
  for (const swope::Column& column : table.columns()) {
    const swope::ValueCode* codes =
        swope::ColumnView(column).Decode(begin, end, scratch);
    for (uint64_t r = 0; r < end - begin; ++r) {
      rows[r].push_back(column.LabelOf(codes[r]));
    }
  }
  return rows;
}

std::array<uint64_t, kSeedPoolSize> SeedPool(uint64_t seed) {
  Rng rng(seed ^ 0x5EEDF00DULL);
  std::array<uint64_t, kSeedPoolSize> pool{};
  for (uint64_t& s : pool) s = rng.Next() % 1000000007ULL;
  return pool;
}

// ---------------------------------------------------------------------
// Requests

namespace {

constexpr size_t kRecentRequests = 32;
constexpr size_t kTopKChoices[] = {1, 4, 10};

// Renders `value` with a fixed number of decimals and returns the value
// the engine will parse back, so the checker uses the same double.
double Render(double value, int decimals, std::string* out) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  *out += buffer;
  return std::strtod(buffer, nullptr);
}

}  // namespace

RequestStream::RequestStream(const WorkloadSpec& spec, uint64_t seed,
                             uint32_t client)
    : spec_(&spec),
      pool_(SeedPool(seed)),
      rng_(seed * 0x100000001B3ULL + 0x9E37ULL * (client + 1)) {
  for (double& position : position_) position = rng_.Uniform();
}

double RequestStream::Draw(Dim dim) {
  // Fractional parts of sqrt(p) for the first primes: pairwise
  // incommensurate steps, so the dimensions do not move in lockstep.
  static constexpr double kStep[kNumDims] = {
      0.41421356237309515, 0.73205080756887719, 0.23606797749978981,
      0.64575131106459072, 0.31662479035539981, 0.60555127546398912,
      0.12310562561766059, 0.35889894354067355};
  double& position = position_[dim];
  position += kStep[dim];
  position -= std::floor(position);
  return position;
}

Request RequestStream::Next() {
  if (!recent_.empty() && Draw(kRepeat) < spec_->repeat_share) {
    Request repeat = recent_[rng_.Below(recent_.size())];
    repeat.repeat = true;
    return repeat;
  }
  Request request = Fresh();
  if (recent_.size() < kRecentRequests) {
    recent_.push_back(request);
  } else {
    recent_[recent_next_] = request;
    recent_next_ = (recent_next_ + 1) % kRecentRequests;
  }
  return request;
}

Request RequestStream::Fresh() {
  using swope::QueryKind;
  const WorkloadSpec& s = *spec_;
  const double weights[] = {s.entropy_topk, s.entropy_filter, s.mi_topk,
                            s.mi_filter,    s.nmi_topk,       s.nmi_filter};
  const QueryKind kinds[] = {QueryKind::kEntropyTopK, QueryKind::kEntropyFilter,
                             QueryKind::kMiTopK,      QueryKind::kMiFilter,
                             QueryKind::kNmiTopK,     QueryKind::kNmiFilter};
  double total = 0.0;
  for (double w : weights) total += w;
  double pick = Draw(kKind) * total;
  size_t choice = 0;
  while (choice + 1 < std::size(weights) && pick >= weights[choice]) {
    pick -= weights[choice];
    ++choice;
  }

  Request request;
  request.kind = kinds[choice];
  request.line = "query dataset=";
  request.line += kDatasetName;
  request.line += " kind=";
  request.line += swope::QueryKindToString(request.kind);
  if (swope::NeedsTarget(request.kind)) {
    request.target = s.targets[static_cast<size_t>(
        Draw(kTarget) * static_cast<double>(s.targets.size()))];
    request.line += " target=" + request.target;
  }
  if (swope::IsTopKKind(request.kind)) {
    request.k = kTopKChoices[static_cast<size_t>(
        Draw(kTopK) * static_cast<double>(std::size(kTopKChoices)))];
    request.line += " k=" + std::to_string(request.k);
  } else {
    request.line += " eta=";
    const double u = Draw(kEta);
    double eta = 0.0;
    switch (request.kind) {
      case QueryKind::kEntropyFilter:
        // Spread over the columns' entropies (about 0.1 to 6.7 bits).
        eta = 1.0 + 6.0 * u;
        break;
      case QueryKind::kMiFilter:
        // Log-uniform over [0.05, 1.5] bits, where the targets' top MI
        // scores sit.
        eta = 0.05 * std::pow(30.0, u);
        break;
      default:
        eta = 0.05 + 0.45 * u;
        break;
    }
    request.eta = Render(eta, 6, &request.line);
  }
  // Every fresh request gets its own epsilon, so canonical keys never
  // collide and only exact repeats hit the result cache.
  request.line += " epsilon=";
  request.epsilon = Render(0.08 + 0.04 * Draw(kEpsilon), 9, &request.line);
  request.seed = Draw(kFresh) < s.fresh_seed_share
                     ? 1000000007ULL + rng_.Next() % 1000000007ULL
                     : pool_[static_cast<size_t>(
                           Draw(kSeed) * static_cast<double>(kSeedPoolSize))];
  request.line += " seed=" + std::to_string(request.seed);
  return request;
}

std::string WithProfile(const std::string& line) {
  return line + " profile=1";
}

// ---------------------------------------------------------------------
// Replies: a small JSON reader for the serve protocol's reply lines.

namespace {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  const Json* Get(const char* key) const {
    for (const auto& [name, value] : object) {
      if (name == key) return &value;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  bool ParseDocument(Json* out) {
    if (!Parse(out, 0)) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  static constexpr int kMaxDepth = 16;

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char e = text_[pos_++];
      switch (e) {
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u':
          // Control characters only in this protocol; keep them opaque.
          if (pos_ + 4 > text_.size()) return false;
          pos_ += 4;
          out->push_back('?');
          break;
        default: out->push_back(e); break;
      }
    }
    return false;
  }

  bool Parse(Json* out, int depth) {
    if (depth > kMaxDepth) return false;
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->type = Json::Type::kObject;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipSpace();
        std::string key;
        if (!ParseString(&key)) return false;
        SkipSpace();
        if (pos_ >= text_.size() || text_[pos_] != ':') return false;
        ++pos_;
        Json value;
        if (!Parse(&value, depth + 1)) return false;
        out->object.emplace_back(std::move(key), std::move(value));
        SkipSpace();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out->type = Json::Type::kArray;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        Json value;
        if (!Parse(&value, depth + 1)) return false;
        out->array.push_back(std::move(value));
        SkipSpace();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return ParseString(&out->text);
    }
    if (Literal("true")) {
      out->type = Json::Type::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->type = Json::Type::kBool;
      return true;
    }
    if (Literal("null")) return true;
    // Numbers, including the inf/nan spellings %.17g can produce.
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) return false;
    pos_ += static_cast<size_t>(end - begin);
    out->type = Json::Type::kNumber;
    out->number = value;
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

double NumberOr(const Json* value, double fallback) {
  return value != nullptr && value->type == Json::Type::kNumber
             ? value->number
             : fallback;
}

bool BoolOr(const Json* value, bool fallback) {
  return value != nullptr && value->type == Json::Type::kBool
             ? value->boolean
             : fallback;
}

int StageIndex(const std::string& name) {
  for (size_t s = 0; s < swope::kNumStages; ++s) {
    if (name == swope::StageName(static_cast<swope::Stage>(s))) {
      return static_cast<int>(s);
    }
  }
  return -1;
}

}  // namespace

bool ParseReply(const std::string& json, Reply* reply) {
  *reply = Reply();
  Json root;
  if (!JsonReader(json).ParseDocument(&root) ||
      root.type != Json::Type::kObject) {
    return false;
  }
  reply->ok = BoolOr(root.Get("ok"), false);
  if (!reply->ok) {
    const Json* error = root.Get("error");
    const Json* code = root.Get("code");
    if (code != nullptr) reply->error = code->text + ": ";
    if (error != nullptr) reply->error += error->text;
    return true;
  }
  reply->cache_hit = BoolOr(root.Get("cache_hit"), false);
  const Json* items = root.Get("items");
  const Json* stats = root.Get("stats");
  if (items == nullptr || items->type != Json::Type::kArray ||
      stats == nullptr || stats->type != Json::Type::kObject) {
    return false;
  }
  for (const Json& entry : items->array) {
    const Json* index = entry.Get("index");
    if (index == nullptr || index->type != Json::Type::kNumber ||
        index->number < 0) {
      return false;
    }
    Item item;
    item.index = static_cast<size_t>(index->number);
    item.estimate = NumberOr(entry.Get("estimate"), 0.0);
    item.lower = NumberOr(entry.Get("lower"), 0.0);
    item.upper = NumberOr(entry.Get("upper"), 0.0);
    reply->items.push_back(item);
  }
  reply->final_sample_size =
      static_cast<uint64_t>(NumberOr(stats->Get("final_sample_size"), 0));
  reply->iterations =
      static_cast<uint64_t>(NumberOr(stats->Get("iterations"), 0));
  reply->cells_scanned =
      static_cast<uint64_t>(NumberOr(stats->Get("cells_scanned"), 0));
  reply->exhausted = BoolOr(stats->Get("exhausted_dataset"), false);
  if (const Json* profile = root.Get("profile");
      profile != nullptr && profile->type == Json::Type::kObject) {
    reply->has_profile = true;
    if (const Json* stages = profile->Get("stages");
        stages != nullptr && stages->type == Json::Type::kArray) {
      for (const Json& stage : stages->array) {
        const Json* name = stage.Get("stage");
        if (name == nullptr) continue;
        const int index = StageIndex(name->text);
        if (index >= 0) {
          reply->stage_ms[static_cast<size_t>(index)] =
              NumberOr(stage.Get("ms"), 0.0);
        }
      }
    }
    reply->wall_ms = NumberOr(profile->Get("wall_ms"), 0.0);
    reply->allocs =
        static_cast<uint64_t>(NumberOr(profile->Get("allocs"), 0.0));
  }
  return true;
}

bool MetricsGauge(const std::string& json, const std::string& name,
                  double* value) {
  Json root;
  if (!JsonReader(json).ParseDocument(&root)) return false;
  const Json* snapshot = root.Get("snapshot");
  const Json* gauges =
      snapshot != nullptr ? snapshot->Get("gauges") : nullptr;
  const Json* gauge = gauges != nullptr ? gauges->Get(name.c_str()) : nullptr;
  if (gauge == nullptr || gauge->type != Json::Type::kNumber) return false;
  *value = gauge->number;
  return true;
}

// ---------------------------------------------------------------------
// Checking

bool AnswerSatisfies(const Request& request, const Reply& reply,
                     const std::vector<double>& exact, size_t target) {
  using swope::QueryKind;
  if (!reply.ok) return false;
  if (request.kind == QueryKind::kNmiTopK ||
      request.kind == QueryKind::kNmiFilter) {
    return true;
  }
  const bool mi = swope::NeedsTarget(request.kind);
  std::vector<size_t> eligible;
  for (size_t j = 0; j < exact.size(); ++j) {
    if (!mi || j != target) eligible.push_back(j);
  }
  // Every item names a distinct eligible column.
  std::set<size_t> seen;
  for (const Item& item : reply.items) {
    if (item.index >= exact.size() || (mi && item.index == target) ||
        !seen.insert(item.index).second) {
      return false;
    }
  }
  std::pmr::vector<swope::AttributeScore> scores;
  for (const Item& item : reply.items) {
    swope::AttributeScore score;
    score.index = item.index;
    score.estimate = item.estimate;
    score.lower = item.lower;
    score.upper = item.upper;
    scores.push_back(std::move(score));
  }
  if (swope::IsTopKKind(request.kind)) {
    const size_t k = std::min(request.k, eligible.size());
    if (scores.size() != k) return false;
    return swope::SatisfiesApproxTopK(scores, exact, eligible, k,
                                      request.epsilon);
  }
  swope::FilterResult result;
  result.items = std::move(scores);
  std::sort(result.items.begin(), result.items.end(),
            [](const swope::AttributeScore& a,
               const swope::AttributeScore& b) { return a.index < b.index; });
  return swope::SatisfiesApproxFilter(result, exact, eligible, request.eta,
                                      request.epsilon);
}

uint64_t DigestAnswer(uint64_t digest, const std::string& line,
                      const Reply& reply) {
  auto mix = [&digest](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      digest ^= bytes[i];
      digest *= 0x100000001B3ULL;
    }
  };
  mix(line.data(), line.size());
  const uint8_t ok = reply.ok ? 1 : 0;
  mix(&ok, 1);
  for (const Item& item : reply.items) {
    const uint64_t index = item.index;
    mix(&index, sizeof(index));
    mix(&item.estimate, sizeof(item.estimate));
    mix(&item.lower, sizeof(item.lower));
    mix(&item.upper, sizeof(item.upper));
  }
  return digest;
}

// ---------------------------------------------------------------------
// Spans

int64_t SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanLog::WriteJsonLines(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  char buffer[256];
  for (const Span& span : spans_) {
    std::snprintf(buffer, sizeof(buffer),
                  "{\"name\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f,"
                  "\"parent\":%lld,\"request\":%llu}\n",
                  span.name.c_str(), span.start_ms, span.end_ms,
                  static_cast<long long>(span.parent),
                  static_cast<unsigned long long>(span.request));
    out << buffer;
  }
}

std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans) {
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0 &&
        static_cast<size_t>(span.parent) < spans.size()) {
      child_ms[static_cast<size_t>(span.parent)] +=
          span.end_ms - span.start_ms;
    }
  }
  std::map<std::string, SelfTime> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    SelfTime& entry = self[spans[i].name];
    entry.ms += spans[i].end_ms - spans[i].start_ms - child_ms[i];
    ++entry.count;
  }
  return self;
}

}  // namespace perfbench
