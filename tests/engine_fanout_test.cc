// Lone-query fan-out: the engine runs a query's rounds on its intra-query
// pool only when that query is the only one executing at admission, and
// the replies are byte-identical to a serial engine's either way.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/thread_pool.h"
#include "src/datagen/dataset_presets.h"
#include "src/engine/query_engine.h"
#include "src/engine/serve.h"

namespace swope {
namespace {

std::string Handle(QueryEngine& engine, const std::string& line) {
  bool quit = false;
  return HandleRequestLine(engine, line, &quit);
}

Table CdcTable(uint64_t rows) {
  auto table = MakePresetTable(DatasetPreset::kCdc, rows, /*seed=*/7);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return *std::move(table);
}

// One request per query kind, MI kinds against cdc_a0.
const std::vector<std::string>& AllKindRequests() {
  static const std::vector<std::string> requests = {
      "query dataset=d kind=entropy-topk k=3",
      "query dataset=d kind=entropy-filter eta=2.0",
      "query dataset=d kind=mi-topk target=cdc_a0 k=2",
      "query dataset=d kind=mi-filter target=cdc_a0 eta=0.05",
      "query dataset=d kind=nmi-topk target=cdc_a0 k=2",
      "query dataset=d kind=nmi-filter target=cdc_a0 eta=0.1",
  };
  return requests;
}

TEST(EngineFanOutTest, DefaultIntraThreadsLeaveOneCoreToTheCaller) {
  const size_t cores = std::thread::hardware_concurrency();
  EXPECT_EQ(DefaultIntraQueryThreads(),
            std::min<size_t>(cores > 2 ? cores - 1 : 1,
                             ThreadPool::kMaxChunks / 4));
  EXPECT_EQ(EngineConfig{}.intra_query_threads, DefaultIntraQueryThreads());
}

TEST(EngineFanOutTest, LoneQueryOnDefaultEngineFansOut) {
  QueryEngine engine;
  ASSERT_TRUE(engine.RegisterDataset("d", CdcTable(10000)).ok());
  const uint64_t expected = engine.config().intra_query_threads > 1 ? 1 : 0;
  ASSERT_NE(Handle(engine, AllKindRequests()[0]).find("\"ok\":true"),
            std::string::npos);
  EXPECT_EQ(engine.GetCounters().queries_fanned_out, expected);
  // A cache hit executes nothing, so it fans nothing out.
  Handle(engine, AllKindRequests()[0]);
  EXPECT_EQ(engine.GetCounters().queries_fanned_out, expected);
  EXPECT_NE(Handle(engine, "stats").find("\"queries_fanned_out\":" +
                                         std::to_string(expected)),
            std::string::npos);
}

TEST(EngineFanOutTest, OnlyQueriesAdmittedAloneFanOut) {
  EngineConfig config;
  config.intra_query_threads = 2;
  config.result_cache_capacity = 0;  // every request executes
  config.event_log_capacity = 1 << 14;
  QueryEngine engine(config);
  ASSERT_TRUE(engine.RegisterDataset("d", CdcTable(10000)).ok());

  // A serial query stream: every admission finds the engine idle.
  for (const std::string& line : AllKindRequests()) Handle(engine, line);
  EXPECT_EQ(engine.GetCounters().queries_fanned_out,
            AllKindRequests().size());

  // Concurrent clients until some admission found another query
  // executing. Each admit event records the in-flight count it saw; a
  // query fans out exactly when that count was 1.
  size_t concurrent_admissions = 0;
  for (int attempt = 0; attempt < 20 && concurrent_admissions == 0;
       ++attempt) {
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([&engine, c] {
        for (int i = 0; i < 6; ++i) {
          Handle(engine, AllKindRequests()[(c + i) % 6] +
                             " seed=" + std::to_string(100 * c + i));
        }
      });
    }
    for (std::thread& client : clients) client.join();
    concurrent_admissions = 0;
    for (const EventLog::Event& event : engine.events().Snapshot()) {
      if (event.kind == EventKind::kQueryAdmit &&
          event.detail.find("in_flight=1") == std::string::npos) {
        ++concurrent_admissions;
      }
    }
  }
  ASSERT_GT(concurrent_admissions, 0u) << "no overlapping queries observed";
  const EngineCounters counters = engine.GetCounters();
  size_t admissions = 0;
  for (const EventLog::Event& event : engine.events().Snapshot()) {
    if (event.kind == EventKind::kQueryAdmit) ++admissions;
  }
  EXPECT_EQ(admissions, counters.queries_ok);
  EXPECT_EQ(counters.queries_fanned_out, admissions - concurrent_admissions);
}

TEST(EngineFanOutTest, IntraUtilizationFallsWhileTheEngineIdles) {
  EngineConfig config;
  config.intra_query_threads = 2;
  QueryEngine engine(config);
  ASSERT_TRUE(engine.RegisterDataset("d", CdcTable(10000)).ok());
  ASSERT_NE(Handle(engine, AllKindRequests()[2]).find("\"ok\":true"),
            std::string::npos);
  ASSERT_EQ(engine.GetCounters().queries_fanned_out, 1u);
  const EngineCounters busy = engine.GetCounters();
  ASSERT_GT(busy.intra_run_ms, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const EngineCounters idle = engine.GetCounters();
  // Both workers stay parked: the time they have been parked so far
  // counts as idle without waiting for them to wake.
  EXPECT_EQ(idle.intra_run_ms, busy.intra_run_ms);
  EXPECT_GE(idle.intra_idle_ms - busy.intra_idle_ms, 2 * 150.0);
  EXPECT_LT(idle.intra_utilization, busy.intra_utilization);
}

TEST(EngineFanOutTest, RepliesMatchSerialEngineForAllKinds) {
  // One-shard and multi-shard geometries exercise both round shapes.
  for (uint64_t shard_size : {uint64_t{0}, uint64_t{4096}}) {
    EngineConfig serial_config;
    serial_config.intra_query_threads = 1;
    serial_config.shard_size = shard_size;
    QueryEngine serial(serial_config);
    ASSERT_TRUE(serial.RegisterDataset("d", CdcTable(10000)).ok());
    std::vector<std::string> expected;
    for (const std::string& line : AllKindRequests()) {
      expected.push_back(Handle(serial, line + " seed=3"));
      ASSERT_NE(expected.back().find("\"ok\":true"), std::string::npos)
          << expected.back();
    }

    EngineConfig wide_config;  // fans out even on a 1-2-core host
    wide_config.intra_query_threads = 3;
    wide_config.shard_size = shard_size;
    EngineConfig default_config;
    default_config.shard_size = shard_size;
    for (const EngineConfig& config : {default_config, wide_config}) {
      QueryEngine engine(config);
      ASSERT_TRUE(engine.RegisterDataset("d", CdcTable(10000)).ok());
      for (size_t i = 0; i < AllKindRequests().size(); ++i) {
        const std::string& line = AllKindRequests()[i];
        EXPECT_EQ(Handle(engine, line + " seed=3"), expected[i])
            << line << " shard_size=" << shard_size
            << " intra=" << config.intra_query_threads;
      }
      EXPECT_EQ(engine.GetCounters().queries_fanned_out,
                config.intra_query_threads > 1 ? AllKindRequests().size()
                                               : 0u);
    }
  }
}

TEST(EngineFanOutTest, FannedOutMiOnOneShardTableReservesNoMoreArena) {
  struct ArenaUse {
    size_t reserved = 0;
    size_t used = 0;
  };
  auto arena_use = [](size_t intra_threads) {
    EngineConfig config;
    config.intra_query_threads = intra_threads;
    QueryEngine engine(config);
    EXPECT_TRUE(engine.RegisterDataset("d", CdcTable(10000)).ok());
    QuerySpec spec;
    spec.dataset = "d";
    spec.kind = QueryKind::kMiTopK;
    spec.target = "cdc_a0";
    spec.k = 2;
    auto response = engine.Run(spec);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(engine.GetCounters().queries_fanned_out,
              intra_threads > 1 ? 1u : 0u);
    if (!response.ok()) return ArenaUse{};
    const Arena& arena = response->memory->arena();
    return ArenaUse{arena.BytesReserved(), arena.BytesUsed()};
  };
  const ArenaUse serial = arena_use(1);
  const ArenaUse fanned = arena_use(3);
  EXPECT_GT(serial.used, 0u);
  // No per-shard deltas and no shard partition: the very same arena
  // allocations as the serial run.
  EXPECT_LE(fanned.reserved, serial.reserved);
  EXPECT_EQ(fanned.used, serial.used);
}

}  // namespace
}  // namespace swope
