// Tests of the benchmark harness: the percentile rule, the operation
// tally, the answer checker (including a planted wrong answer), the
// reply reader, the span log and the request streams. Runs against a
// small generated table through the same serve protocol the benchmark
// drives.
//
//   python3 perfbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/baselines/exact.h"
#include "src/engine/query_engine.h"
#include "src/engine/serve.h"

namespace perfbench {
namespace {

int g_failures = 0;

#define EXPECT(condition)                                             \
  do {                                                                \
    if (!(condition)) {                                               \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #condition); \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

std::vector<double> Iota(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // any order
  return values;
}

void TestPercentileRule() {
  // p95 of 200 samples has exactly 10 beyond it; of 199, only 9.
  const Percentile p95_200 = NearestRank(Iota(200), 0.95);
  EXPECT(p95_200.value == 190.0);
  EXPECT(p95_200.beyond == 10);
  EXPECT(p95_200.samples == 200);
  EXPECT(TailSupported(p95_200));
  const Percentile p95_199 = NearestRank(Iota(199), 0.95);
  EXPECT(p95_199.beyond == 9);
  EXPECT(!TailSupported(p95_199));
  EXPECT(NearestRank(Iota(10), 0.5).value == 5.0);
  EXPECT(NearestRank(Iota(1), 0.95).value == 1.0);
  EXPECT(NearestRank({}, 0.5).samples == 0);
  EXPECT(Median(Iota(10)) == 5.5);
  EXPECT(Median(Iota(9)) == 5.0);
}

void TestTally() {
  Tally tally;
  const bool outcomes[] = {true, false, true, true, false};
  for (bool ok : outcomes) tally.Add(ok);
  EXPECT(tally.attempted == 5);
  EXPECT(tally.ok == 3);
  EXPECT(tally.failed == 2);
  EXPECT(tally.attempted == tally.ok + tally.failed);
}

void TestStreams() {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    RequestStream a(spec, 1, 0);
    RequestStream again(spec, 1, 0);
    RequestStream b(spec, 2, 0);
    RequestStream other_client(spec, 1, 1);
    size_t differ = 0;
    size_t differ_client = 0;
    size_t repeats = 0;
    std::set<std::string> fresh;
    std::vector<size_t> kinds(6, 0);
    const size_t n = 2000;
    for (size_t i = 0; i < n; ++i) {
      const Request ra = a.Next();
      EXPECT(ra.line == again.Next().line);
      differ += ra.line != b.Next().line ? 1 : 0;
      differ_client += ra.line != other_client.Next().line ? 1 : 0;
      if (ra.repeat) {
        ++repeats;
      } else {
        // Fresh requests never repeat a canonical key.
        EXPECT(fresh.insert(ra.line).second);
        ++kinds[static_cast<size_t>(ra.kind)];
      }
    }
    // Changing the seed or the client changes the stream...
    EXPECT(differ > n * 9 / 10);
    EXPECT(differ_client > n * 9 / 10);
    // ...but not the mix: each kind holds its share of fresh requests.
    const double weights[] = {spec.entropy_topk, spec.entropy_filter,
                              spec.mi_topk,      spec.mi_filter,
                              spec.nmi_topk,     spec.nmi_filter};
    double total = 0.0;
    for (double w : weights) total += w;
    const double fresh_n = static_cast<double>(n - repeats);
    for (size_t k = 0; k < 6; ++k) {
      EXPECT(std::fabs(static_cast<double>(kinds[k]) / fresh_n -
                       weights[k] / total) < 0.01);
    }
    EXPECT(std::fabs(static_cast<double>(repeats) / n - spec.repeat_share) <
           0.01);
  }
}

void TestDatasetShapeIgnoresSeed() {
  // The table depends on the row count alone; the seed only reaches the
  // request stream. Longer tables continue shorter ones.
  auto small = MakeWorkloadTable(3000);
  auto longer = MakeWorkloadTable(3500);
  EXPECT(small.ok() && longer.ok());
  if (!small.ok() || !longer.ok()) return;
  EXPECT(small->num_rows() == 3000);
  EXPECT(small->num_columns() == 100);
  EXPECT(small->ColumnNames() == longer->ColumnNames());
  EXPECT(RowsAsCells(*small, 0, 3000) == RowsAsCells(*longer, 0, 3000));
  const auto tail = RowsAsCells(*longer, 3000, 3010);
  EXPECT(tail.size() == 10);
  EXPECT(tail[0].size() == 100);
  for (const WorkloadSpec& spec : AllWorkloads()) {
    for (const std::string& target : spec.targets) {
      EXPECT(small->ColumnIndex(target).ok());
    }
  }
}

std::vector<double> Scores(const swope::Result<swope::TopKResult>& exact,
                           size_t columns) {
  std::vector<double> scores(columns, 0.0);
  for (const swope::AttributeScore& item : exact->items) {
    scores[item.index] = item.estimate;
  }
  return scores;
}

Request MakeRequest(swope::QueryKind kind, const std::string& args,
                    size_t k, double eta, const std::string& target) {
  Request request;
  request.kind = kind;
  request.k = k;
  request.eta = eta;
  request.target = target;
  request.epsilon = 0.1;
  request.line = std::string("query dataset=") + kDatasetName + " kind=" +
                 std::string(swope::QueryKindToString(kind)) + " " + args +
                 " epsilon=0.1 seed=7";
  return request;
}

void TestCheckerAgainstEngine() {
  auto table = MakeWorkloadTable(20000);
  EXPECT(table.ok());
  if (!table.ok()) return;
  const size_t h = table->num_columns();
  auto exact_entropy = swope::ExactTopKEntropy(*table, h);
  const std::vector<double> entropy = Scores(exact_entropy, h);
  const size_t target = *table->ColumnIndex("cdc_a82");
  auto exact_mi = swope::ExactTopKMi(*table, target, h - 1);
  const std::vector<double> mi = Scores(exact_mi, h);

  swope::QueryEngine engine;
  EXPECT(engine.RegisterDataset(kDatasetName, *table).ok());
  const Request requests[] = {
      MakeRequest(swope::QueryKind::kEntropyTopK, "k=4", 4, 0, ""),
      MakeRequest(swope::QueryKind::kEntropyFilter, "eta=3.5", 0, 3.5, ""),
      MakeRequest(swope::QueryKind::kMiTopK, "target=cdc_a82 k=4", 4, 0,
                  "cdc_a82"),
      MakeRequest(swope::QueryKind::kMiFilter, "target=cdc_a82 eta=0.3", 0,
                  0.3, "cdc_a82"),
  };
  Tally tally;
  for (const Request& request : requests) {
    bool quit = false;
    const std::string json = swope::HandleRequestLine(
        engine, WithProfile(request.line), &quit);
    Reply reply;
    EXPECT(ParseReply(json, &reply));
    EXPECT(reply.ok);
    EXPECT(!reply.cache_hit);
    EXPECT(reply.has_profile);
    EXPECT(reply.wall_ms > 0.0);
    EXPECT(reply.cells_scanned > 0);
    EXPECT(reply.iterations > 0);
    const bool is_mi = swope::NeedsTarget(request.kind);
    const std::vector<double>& exact = is_mi ? mi : entropy;
    const bool good = AnswerSatisfies(request, reply, exact, target);
    EXPECT(good);
    tally.Add(good);

    // Planted wrong answers must be flagged.
    Reply wrong = reply;
    if (swope::IsTopKKind(request.kind)) {
      // Swap the best item for the worst eligible column.
      size_t worst = is_mi && target == 0 ? 1 : 0;
      for (size_t j = 0; j < h; ++j) {
        if (is_mi && j == target) continue;
        if (exact[j] < exact[worst]) worst = j;
      }
      wrong.items[0].index = worst;
    } else {
      // Drop the highest-scoring column from the answer.
      size_t best = 0;
      for (size_t j = 0; j < h; ++j) {
        if (is_mi && j == target) continue;
        if (exact[j] > exact[best]) best = j;
      }
      std::vector<Item> kept;
      for (const Item& item : wrong.items) {
        if (item.index != best) kept.push_back(item);
      }
      wrong.items = kept;
    }
    const bool wrong_passes = AnswerSatisfies(request, wrong, exact, target);
    EXPECT(!wrong_passes);
    tally.Add(wrong_passes);
    // An MI answer may never name its own target.
    if (is_mi && !reply.items.empty()) {
      Reply self = reply;
      self.items[0].index = target;
      EXPECT(!AnswerSatisfies(request, self, exact, target));
    }
    // A failed reply never satisfies.
    Reply failed;
    EXPECT(!AnswerSatisfies(request, failed, exact, target));
  }
  // Each planted answer counts as one failed operation.
  EXPECT(tally.attempted == tally.ok + tally.failed);
  EXPECT(tally.ok == std::size(requests));
  EXPECT(tally.failed == std::size(requests));

  // Exact repeat: the same line on a fresh engine gives the same answer
  // digest and counters.
  swope::QueryEngine again;
  EXPECT(again.RegisterDataset(kDatasetName, *table).ok());
  uint64_t digest_a = 0;
  uint64_t digest_b = 0;
  for (const Request& request : requests) {
    bool quit = false;
    Reply a;
    Reply b;
    EXPECT(ParseReply(swope::HandleRequestLine(engine, request.line, &quit),
                      &a));
    EXPECT(ParseReply(swope::HandleRequestLine(again, request.line, &quit),
                      &b));
    EXPECT(a.cache_hit);  // served from the first engine's cache
    EXPECT(a.cells_scanned == b.cells_scanned);
    EXPECT(a.final_sample_size == b.final_sample_size);
    digest_a = DigestAnswer(digest_a, request.line, a);
    digest_b = DigestAnswer(digest_b, request.line, b);
  }
  EXPECT(digest_a == digest_b);

  // Malformed and failed replies.
  Reply reply;
  EXPECT(!ParseReply("{\"ok\":true,", &reply));
  EXPECT(!ParseReply("not json", &reply));
  bool quit = false;
  EXPECT(ParseReply(swope::HandleRequestLine(
                        engine, "query dataset=nope kind=entropy-topk k=1",
                        &quit),
                    &reply));
  EXPECT(!reply.ok);
  EXPECT(!reply.error.empty());
}

void TestSelfTimes() {
  std::vector<Span> spans;
  spans.push_back({"serve.request", 0.0, 10.0, -1, 1});
  spans.push_back({"core.query", 2.0, 10.0, 0, 1});
  spans.push_back({"table.gather", 2.0, 7.0, 1, 1});
  spans.push_back({"core.count", 7.0, 9.5, 1, 1});
  spans.push_back({"serve.request", 20.0, 21.0, -1, 2});
  const auto self = SelfTimes(spans);
  EXPECT(std::fabs(self.at("serve.request").ms - 3.0) < 1e-12);
  EXPECT(self.at("serve.request").count == 2);
  EXPECT(std::fabs(self.at("core.query").ms - 0.5) < 1e-12);
  EXPECT(std::fabs(self.at("table.gather").ms - 5.0) < 1e-12);
  EXPECT(std::fabs(self.at("core.count").ms - 2.5) < 1e-12);
  // Self times add up to the root spans' total.
  double sum = 0.0;
  for (const auto& [name, entry] : self) sum += entry.ms;
  EXPECT(std::fabs(sum - 11.0) < 1e-12);
}

void TestMetricsGauge() {
  // Read from the live engine's metrics reply, whose Prometheus text
  // also names the gauge: only the snapshot's gauges object counts.
  swope::QueryEngine engine;
  bool quit = false;
  const std::string metrics =
      swope::HandleRequestLine(engine, "metrics", &quit);
  double value = -1.0;
  EXPECT(MetricsGauge(metrics, "swope_query_arena_bytes", &value));
  EXPECT(value >= 0.0);
  EXPECT(!MetricsGauge(metrics, "swope_engine_queries_started_total",
                       &value));
  EXPECT(!MetricsGauge(metrics, "missing", &value));
  EXPECT(!MetricsGauge("not json", "swope_query_arena_bytes", &value));
}

void TestSpanJsonLines() {
  SpanLog log;
  const int64_t root = log.Add({"serve.request", 1.5, 4.0, -1, 7});
  log.Add({"core.query", 2.0, 4.0, root, 7});
  std::ostringstream out;
  log.WriteJsonLines(out);
  EXPECT(out.str() ==
         "{\"name\":\"serve.request\",\"start_ms\":1.500000,"
         "\"end_ms\":4.000000,\"parent\":-1,\"request\":7}\n"
         "{\"name\":\"core.query\",\"start_ms\":2.000000,"
         "\"end_ms\":4.000000,\"parent\":0,\"request\":7}\n");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileRule();
  perfbench::TestTally();
  perfbench::TestStreams();
  perfbench::TestDatasetShapeIgnoresSeed();
  perfbench::TestCheckerAgainstEngine();
  perfbench::TestSelfTimes();
  perfbench::TestMetricsGauge();
  perfbench::TestSpanJsonLines();
  if (perfbench::g_failures > 0) {
    std::printf("%d check(s) failed\n", perfbench::g_failures);
    return 1;
  }
  std::printf("all perfbench harness tests passed\n");
  return 0;
}
