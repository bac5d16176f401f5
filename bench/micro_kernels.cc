// google-benchmark microbenchmarks for the kernels on the query hot path:
// counter updates, bound evaluation, sampling, shuffling, CSV parsing.

#include <memory>
#include <sstream>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/common/flat_hash_map.h"
#include "src/common/thread_pool.h"
#include "src/core/bounds.h"
#include "src/core/entropy.h"
#include "src/core/frequency_counter.h"
#include "src/core/pair_counter.h"
#include "src/core/swope_topk_entropy.h"
#include "src/datagen/distributions.h"
#include "src/datagen/generator.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/query_trace.h"
#include "src/table/column_view.h"
#include "src/table/csv_reader.h"
#include "src/table/csv_writer.h"
#include "src/table/shuffle.h"

namespace swope {
namespace {

Column MakeColumn(uint32_t support, uint64_t rows, uint64_t seed) {
  auto column = GenerateColumn(ColumnSpec::Zipf("z", support, 1.0), rows,
                               seed);
  if (!column.ok()) std::abort();
  return std::move(column).value();
}

void BM_FrequencyCounterAdd(benchmark::State& state) {
  const Column column = MakeColumn(64, 1 << 16, 1);
  const std::vector<ValueCode> codes =
      column.codes();  // NOLINT(swope-raw-codes): bench setup decode
  FrequencyCounter counter(64);
  uint64_t i = 0;
  for (auto _ : state) {
    counter.Add(codes[i & 0xffff]);
    ++i;
  }
  benchmark::DoNotOptimize(counter.SampleEntropy());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrequencyCounterAdd);

void BM_PairCounterAddDense(benchmark::State& state) {
  const std::vector<ValueCode> a =
      MakeColumn(64, 1 << 16, 2).codes();  // NOLINT(swope-raw-codes): setup
  const std::vector<ValueCode> b =
      MakeColumn(64, 1 << 16, 3).codes();  // NOLINT(swope-raw-codes): setup
  PairCounter counter(64, 64, /*dense_limit=*/1 << 20);
  uint64_t i = 0;
  for (auto _ : state) {
    counter.Add(a[i & 0xffff], b[i & 0xffff]);
    ++i;
  }
  benchmark::DoNotOptimize(counter.SampleJointEntropy());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PairCounterAddDense);

void BM_PairCounterAddSparse(benchmark::State& state) {
  const std::vector<ValueCode> a =
      MakeColumn(64, 1 << 16, 2).codes();  // NOLINT(swope-raw-codes): setup
  const std::vector<ValueCode> b =
      MakeColumn(64, 1 << 16, 3).codes();  // NOLINT(swope-raw-codes): setup
  PairCounter counter(64, 64, /*dense_limit=*/1);
  uint64_t i = 0;
  for (auto _ : state) {
    counter.Add(a[i & 0xffff], b[i & 0xffff]);
    ++i;
  }
  benchmark::DoNotOptimize(counter.SampleJointEntropy());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PairCounterAddSparse);

// SampleJointEntropy on the two layouts a round evaluates. Arg 0: a
// dense 64x64 counter after 64k samples. Arg 1: a hashed 146x1000
// counter after 16k samples -- a high-support candidate early in the
// doubling schedule, below the 1/8-of-domain migration load -- which
// sorts its keys before the scan.
void BM_PairCounterJointEntropy(benchmark::State& state) {
  const bool sparse = state.range(0) == 1;
  const uint32_t support_a = sparse ? 146 : 64;
  const uint32_t support_b = sparse ? 1000 : 64;
  const uint64_t samples = sparse ? 1 << 14 : 1 << 16;
  const Column column_a = MakeColumn(support_a, samples, 2);
  const Column column_b = MakeColumn(support_b, samples, 3);
  const std::vector<ValueCode> a =
      column_a.codes();  // NOLINT(swope-raw-codes): setup
  const std::vector<ValueCode> b =
      column_b.codes();  // NOLINT(swope-raw-codes): setup
  PairCounter counter(support_a, support_b);
  counter.AddCodes(a.data(), b.data(), samples);
  if (counter.is_dense() == sparse) std::abort();
  for (auto _ : state) {
    benchmark::DoNotOptimize(counter.SampleJointEntropy());
  }
  state.counters["distinct_pairs"] =
      static_cast<double>(counter.distinct_pairs());
}
BENCHMARK(BM_PairCounterJointEntropy)->Arg(0)->Arg(1);

// The acceptance race for the packed storage: batch width-specialized
// gather (ColumnView::Gather) vs a per-row `code(order[i])` loop over the
// same permuted index sequence, at a realistic per-round slice size.
// Arg = support size (width 1, 6, 10 bits).
void BM_GatherDecode(benchmark::State& state) {
  constexpr uint64_t kRows = 1 << 14;
  const Column column =
      MakeColumn(static_cast<uint32_t>(state.range(0)), kRows, 21);
  const std::vector<uint32_t> order = ShuffledRowOrder(kRows, 9);
  const ColumnView view(column);
  std::vector<ValueCode> scratch(kRows);
  for (auto _ : state) {
    const ValueCode* codes = view.Gather(order, 0, kRows, scratch);
    benchmark::DoNotOptimize(codes);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_GatherDecode)->Arg(2)->Arg(64)->Arg(1000);

void BM_GatherDecodePerRow(benchmark::State& state) {
  constexpr uint64_t kRows = 1 << 14;
  const Column column =
      MakeColumn(static_cast<uint32_t>(state.range(0)), kRows, 21);
  const std::vector<uint32_t> order = ShuffledRowOrder(kRows, 9);
  std::vector<ValueCode> scratch(kRows);
  for (auto _ : state) {
    for (uint64_t i = 0; i < kRows; ++i) {
      scratch[i] = column.code(order[i]);  // NOLINT(swope-raw-codes): baseline
    }
    benchmark::DoNotOptimize(scratch.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_GatherDecodePerRow)->Arg(2)->Arg(64)->Arg(1000);

void BM_FlatHashMapIncrement(benchmark::State& state) {
  FlatHashMap<uint64_t, uint64_t> map(1 << 12);
  Rng rng(7);
  std::vector<uint64_t> keys(1 << 14);
  for (auto& key : keys) key = rng.UniformU64(1 << 12);
  uint64_t i = 0;
  for (auto _ : state) {
    ++map[keys[i & 0x3fff]];
    ++i;
  }
  benchmark::DoNotOptimize(map.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatHashMapIncrement);

void BM_ExactEntropy(benchmark::State& state) {
  const Column column = MakeColumn(256, state.range(0), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactEntropy(column));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExactEntropy)->Arg(1 << 14)->Arg(1 << 18);

void BM_BoundEvaluation(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MakeEntropyInterval(3.0, 256, 1 << 20, 1 << 12, 1e-6));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoundEvaluation);

void BM_Shuffle(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ShuffledRowOrder(static_cast<uint32_t>(state.range(0)), 11));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Shuffle)->Arg(1 << 14)->Arg(1 << 18);

void BM_AliasSampling(benchmark::State& state) {
  const auto dist = CategoricalDistribution::Zipf(1000, 1.0);
  Rng rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasSampling);

void BM_CsvParse(benchmark::State& state) {
  // Build a 1000-row, 10-column CSV once; parse it per iteration.
  TableSpec spec;
  spec.num_rows = 1000;
  spec.seed = 17;
  for (int j = 0; j < 10; ++j) {
    spec.columns.push_back(
        ColumnSpec::Uniform("c" + std::to_string(j), 50));
  }
  auto table = GenerateTable(spec);
  if (!table.ok()) std::abort();
  std::ostringstream csv;
  if (!WriteCsv(*table, csv).ok()) std::abort();
  const std::string text = csv.str();
  for (auto _ : state) {
    std::istringstream input(text);
    auto parsed = ReadCsv(input);
    if (!parsed.ok()) std::abort();
    benchmark::DoNotOptimize(parsed->num_rows());
  }
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_CsvParse);

// The unified driver's per-round hot phase: fold a sample slice into one
// FrequencyCounter per candidate and recompute its entropy, fanned across
// a pool — the kernel parallelized by QueryOptions::pool. Arg = threads.
void BM_ParallelCandidateUpdate(benchmark::State& state) {
  constexpr size_t kCandidates = 32;
  constexpr uint64_t kRows = 1 << 16;
  std::vector<Column> columns;
  columns.reserve(kCandidates);
  for (size_t j = 0; j < kCandidates; ++j) {
    columns.push_back(MakeColumn(64, kRows, 100 + j));
  }
  std::vector<uint32_t> order(kRows);
  for (uint32_t i = 0; i < kRows; ++i) order[i] = i;

  const size_t threads = static_cast<size_t>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  std::vector<ColumnView> views;
  views.reserve(kCandidates);
  for (const Column& column : columns) views.emplace_back(column);
  std::vector<FrequencyCounter> counters(kCandidates,
                                         FrequencyCounter(64));
  std::vector<std::vector<ValueCode>> scratches(kCandidates);
  std::vector<double> entropies(kCandidates, 0.0);
  for (auto _ : state) {
    auto update = [&](size_t j) {
      const ValueCode* codes = views[j].Gather(order, 0, kRows, scratches[j]);
      counters[j].AddCodes(codes, kRows);
      entropies[j] = counters[j].SampleEntropy();
    };
    if (pool != nullptr) {
      pool->ParallelFor(0, kCandidates, update);
    } else {
      for (size_t j = 0; j < kCandidates; ++j) update(j);
    }
    benchmark::DoNotOptimize(entropies.data());
  }
  state.SetItemsProcessed(state.iterations() * kCandidates * kRows);
}
BENCHMARK(BM_ParallelCandidateUpdate)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Observability primitives in isolation: the per-update cost ceiling for
// any instrumented hot path.
void BM_CounterIncrement(benchmark::State& state) {
  Counter counter;
  for (auto _ : state) {
    counter.Increment();
  }
  benchmark::DoNotOptimize(counter.Value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterIncrement);

void BM_HistogramObserve(benchmark::State& state) {
  Histogram histogram(DefaultLatencyBucketsMs());
  double value = 0.01;
  for (auto _ : state) {
    histogram.Observe(value);
    value = value < 5000.0 ? value * 1.7 : 0.01;
  }
  benchmark::DoNotOptimize(histogram.TotalCount());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve);

// The tracing-overhead acceptance bench: a full SwopeTopKEntropy query
// with tracing off (Arg 0, QueryOptions::trace null -- the default) vs
// on (Arg 1). Disabled tracing costs one branch per sampling round, so
// the two timings must agree within noise (well under 1%); compare the
// per-iteration times of the two args.
void BM_MetricsOverhead(benchmark::State& state) {
  TableSpec spec;
  spec.num_rows = 1 << 16;
  spec.seed = 29;
  for (int j = 0; j < 16; ++j) {
    spec.columns.push_back(
        ColumnSpec::Zipf("z" + std::to_string(j), 64,
                         1.0 + 0.05 * static_cast<double>(j)));
  }
  auto table = GenerateTable(spec);
  if (!table.ok()) std::abort();

  const bool traced = state.range(0) != 0;
  QueryTrace trace;
  QueryOptions options;
  options.seed = 5;
  options.sequential_sampling = true;
  if (traced) options.trace = &trace;
  for (auto _ : state) {
    trace.Clear();
    auto result = SwopeTopKEntropy(*table, 4, options);
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result->items.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsOverhead)->Arg(0)->Arg(1);

// The profiler contract (docs/OBSERVABILITY.md): attaching a
// StageProfiler must stay within 1% of the unprofiled query. Arg(0) is
// the disabled path (null profiler: one branch per instrumented site,
// no clock reads), Arg(1) the enabled path (two TSC reads per stage
// span). Same workload as BM_MetricsOverhead so the two comparisons
// share a baseline.
void BM_ProfileOverhead(benchmark::State& state) {
  TableSpec spec;
  spec.num_rows = 1 << 16;
  spec.seed = 29;
  for (int j = 0; j < 16; ++j) {
    spec.columns.push_back(
        ColumnSpec::Zipf("z" + std::to_string(j), 64,
                         1.0 + 0.05 * static_cast<double>(j)));
  }
  auto table = GenerateTable(spec);
  if (!table.ok()) std::abort();

  const bool profiled = state.range(0) != 0;
  StageProfiler profiler;
  QueryOptions options;
  options.seed = 5;
  options.sequential_sampling = true;
  if (profiled) options.profiler = &profiler;
  for (auto _ : state) {
    profiler.Clear();
    auto result = SwopeTopKEntropy(*table, 4, options);
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result->items.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileOverhead)->Arg(0)->Arg(1);

}  // namespace
}  // namespace swope

BENCHMARK_MAIN();
