// Tests for the AzureBench core: queue barrier (Algorithm 2), phase
// collection, and small-scale end-to-end runs of the three benchmarks.
#include <gtest/gtest.h>

#include <vector>

#include "azure_test_util.hpp"
#include "core/barrier.hpp"
#include "core/blob_benchmark.hpp"
#include "core/collector.hpp"
#include "core/cost_model.hpp"
#include "core/queue_benchmark.hpp"
#include "core/table_benchmark.hpp"

namespace {

using azb_test::TestWorld;
using sim::Task;
using sim::TimePoint;

// ---------------------------------------------------------------- barrier ----

TEST(QueueBarrierTest, ReleasesAllWorkersAfterLastArrival) {
  TestWorld w;
  constexpr int kWorkers = 5;
  std::vector<TimePoint> released(kWorkers, -1);
  for (int i = 0; i < kWorkers; ++i) {
    w.sim.spawn([](TestWorld& t, int id, std::vector<TimePoint>& out)
                    -> Task<> {
      azurebench::QueueBarrier barrier(t.account, "sync", kWorkers);
      if (id == 0) co_await barrier.provision();
      co_await t.sim.delay(sim::seconds(1 + id * 2));  // staggered arrivals
      co_await barrier.arrive();
      out[static_cast<size_t>(id)] = t.sim.now();
    }(w, i, released));
  }
  w.sim.run();
  // The last worker arrives at ~9 s; nobody may be released before that,
  // and the 1 s polling cadence bounds the release skew.
  for (int i = 0; i < kWorkers; ++i) {
    EXPECT_GE(released[static_cast<size_t>(i)], sim::seconds(9));
    EXPECT_LT(released[static_cast<size_t>(i)], sim::seconds(12));
  }
}

TEST(QueueBarrierTest, ReusableAcrossEpisodes) {
  // The message-accumulation trick: messages are never deleted, so episode
  // k waits for workers*k messages.
  TestWorld w;
  constexpr int kWorkers = 3;
  constexpr int kEpisodes = 4;
  std::vector<int> crossings(kWorkers, 0);
  for (int i = 0; i < kWorkers; ++i) {
    w.sim.spawn([](TestWorld& t, int id, std::vector<int>& out) -> Task<> {
      azurebench::QueueBarrier barrier(t.account, "sync", kWorkers);
      if (id == 0) co_await barrier.provision();
      co_await t.sim.delay(sim::millis(10 * (id + 1)));
      for (int e = 0; e < kEpisodes; ++e) {
        co_await t.sim.delay(sim::millis(100 * (id + 1)));
        co_await barrier.arrive();
        ++out[static_cast<size_t>(id)];
      }
      EXPECT_EQ(barrier.sync_count(), int{kEpisodes});
    }(w, i, crossings));
  }
  w.sim.run();
  for (int c : crossings) EXPECT_EQ(c, kEpisodes);
  // All barrier messages are still in the queue.
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("sync");
    EXPECT_EQ(co_await q.get_message_count(), kWorkers * kEpisodes);
  });
}

// -------------------------------------------------------------- collector ----

TEST(PhaseCollectorTest, WallIsLongestWorkerPerRepeatSummedAcrossRepeats) {
  azurebench::PhaseCollector c;
  // Repeat 0: worker durations 40 and 60 -> phase time 60 (start skew from
  // the barrier release is excluded by design).
  c.record("upload", 0, 10, 50);
  c.record("upload", 0, 20, 80);
  // Repeat 1: one worker, duration 30.
  c.record("upload", 1, 100, 130);
  EXPECT_EQ(c.wall("upload"), 60 + 30);
  EXPECT_EQ(c.wall("other"), 0);
}

TEST(PhaseReportTest, DerivedMetrics) {
  azurebench::PhaseReport r{"x", 2.0, 200 * 1024 * 1024, 1000};
  EXPECT_DOUBLE_EQ(r.mib_per_sec(), 100.0);
  EXPECT_DOUBLE_EQ(r.ms_per_op(), 2.0);
  azurebench::PhaseReport zero{"y", 0.0, 0, 0};
  EXPECT_DOUBLE_EQ(zero.mib_per_sec(), 0.0);
  EXPECT_DOUBLE_EQ(zero.ms_per_op(), 0.0);
}

// --------------------------------------------------------- blob benchmark ----

azurebench::BlobBenchConfig small_blob_config(int workers) {
  azurebench::BlobBenchConfig cfg;
  cfg.workers = workers;
  cfg.repeats = 2;
  cfg.chunks = 8;
  cfg.chunk_bytes = 1 << 20;
  return cfg;
}

TEST(BlobBenchmarkTest, SmallRunProducesSaneNumbers) {
  const auto result = azurebench::run_blob_benchmark(small_blob_config(4));
  const std::int64_t blob_bytes = 8ll << 20;

  EXPECT_EQ(result.page_upload.bytes, blob_bytes * 2);
  EXPECT_EQ(result.block_upload.bytes, blob_bytes * 2);
  EXPECT_EQ(result.page_full_read.bytes, blob_bytes * 2 * 4);
  EXPECT_EQ(result.block_full_read.bytes, blob_bytes * 2 * 4);
  EXPECT_EQ(result.page_random_read.ops, 4 * 8 * 2);

  for (const auto* phase :
       {&result.page_upload, &result.block_upload, &result.page_random_read,
        &result.block_seq_read, &result.page_full_read,
        &result.block_full_read}) {
    EXPECT_GT(phase->seconds, 0.0) << phase->phase;
    EXPECT_GT(phase->mib_per_sec(), 0.0) << phase->phase;
  }
  EXPECT_GT(result.barrier_seconds, 0.0);
  EXPECT_GT(result.simulated_events, 0u);
}

TEST(BlobBenchmarkTest, PaperShapePageUploadBeatsBlockUpload) {
  const auto result = azurebench::run_blob_benchmark(small_blob_config(8));
  EXPECT_GT(result.page_upload.mib_per_sec(),
            result.block_upload.mib_per_sec());
}

TEST(BlobBenchmarkTest, PaperShapeSequentialBlocksBeatRandomPages) {
  const auto result = azurebench::run_blob_benchmark(small_blob_config(8));
  EXPECT_GT(result.block_seq_read.mib_per_sec(),
            result.page_random_read.mib_per_sec());
}

TEST(BlobBenchmarkTest, DeterministicAcrossRuns) {
  const auto a = azurebench::run_blob_benchmark(small_blob_config(4));
  const auto b = azurebench::run_blob_benchmark(small_blob_config(4));
  EXPECT_EQ(a.page_upload.seconds, b.page_upload.seconds);
  EXPECT_EQ(a.block_seq_read.seconds, b.block_seq_read.seconds);
  EXPECT_EQ(a.simulated_events, b.simulated_events);
}

TEST(BlobBenchmarkTest, DownloadThroughputGrowsWithWorkers) {
  const auto few = azurebench::run_blob_benchmark(small_blob_config(2));
  const auto many = azurebench::run_blob_benchmark(small_blob_config(8));
  EXPECT_GT(many.block_full_read.mib_per_sec(),
            few.block_full_read.mib_per_sec());
}

// -------------------------------------------------------- queue benchmark ----

TEST(QueueBenchmarkTest, SeparateQueuesPaperShapes) {
  azurebench::QueueSeparateConfig cfg;
  cfg.workers = 4;
  cfg.total_messages = 200;
  cfg.message_sizes = {4 << 10, 16 << 10, 32 << 10};
  const auto result = azurebench::run_queue_separate_benchmark(cfg);
  ASSERT_EQ(result.points.size(), 3u);
  for (const auto& p : result.points) {
    EXPECT_GT(p.get.seconds, p.put.seconds) << p.message_size;
    EXPECT_GT(p.put.seconds, p.peek.seconds) << p.message_size;
    EXPECT_EQ(p.put.ops, 200);
  }
  // The 16 KB Get anomaly: slower than the larger 32 KB point.
  EXPECT_GT(result.points[1].get.seconds, result.points[2].get.seconds);
}

TEST(QueueBenchmarkTest, SixtyFourKbPointClampsTo48KbPayload) {
  azurebench::QueueSeparateConfig cfg;
  cfg.workers = 2;
  cfg.total_messages = 20;
  cfg.message_sizes = {64 << 10};
  const auto result = azurebench::run_queue_separate_benchmark(cfg);
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_EQ(result.points[0].put.bytes, 49'152 * 20);
}

TEST(QueueBenchmarkTest, SharedQueueThinkTimeReducesPerOpTime) {
  azurebench::QueueSharedConfig cfg;
  cfg.workers = 64;  // contention needs the paper's ~100-worker scale
  cfg.total_messages = 2'560;
  cfg.messages_per_round = 640;
  cfg.think_seconds = {1, 5};
  const auto result = azurebench::run_queue_shared_benchmark(cfg);
  ASSERT_EQ(result.points.size(), 2u);
  const double get_think1 = result.points[0].get.ms_per_op();
  const double get_think5 = result.points[1].get.ms_per_op();
  EXPECT_GT(get_think1, get_think5 * 1.15);  // contention falls w/ think time
  EXPECT_EQ(result.points[0].put.ops, 2'560 / 64);
}

TEST(QueueBenchmarkTest, DeterministicAcrossRuns) {
  azurebench::QueueSeparateConfig sep;
  sep.workers = 2;
  sep.total_messages = 20;
  sep.message_sizes = {4 << 10};
  const auto sa = azurebench::run_queue_separate_benchmark(sep);
  const auto sb = azurebench::run_queue_separate_benchmark(sep);
  EXPECT_EQ(sa.points[0].get.seconds, sb.points[0].get.seconds);
  EXPECT_GT(sa.simulated_events, 0u);
  EXPECT_EQ(sa.simulated_events, sb.simulated_events);

  azurebench::QueueSharedConfig sh;
  sh.workers = 4;
  sh.total_messages = 40;
  sh.messages_per_round = 40;
  sh.think_seconds = {1};
  const auto ha = azurebench::run_queue_shared_benchmark(sh);
  const auto hb = azurebench::run_queue_shared_benchmark(sh);
  EXPECT_EQ(ha.points[0].get.seconds, hb.points[0].get.seconds);
  EXPECT_GT(ha.simulated_events, 0u);
  EXPECT_EQ(ha.simulated_events, hb.simulated_events);
}

TEST(QueueBenchmarkTest, SharedSlowerThanSeparatePerOp) {
  azurebench::QueueSeparateConfig sep;
  sep.workers = 8;
  sep.total_messages = 400;
  sep.message_sizes = {32 << 10};
  const auto s = azurebench::run_queue_separate_benchmark(sep);

  azurebench::QueueSharedConfig sh;
  sh.workers = 8;
  sh.total_messages = 400;
  sh.messages_per_round = 400;
  sh.think_seconds = {1};
  const auto r = azurebench::run_queue_shared_benchmark(sh);

  // Per-op Get on the shared queue costs more than on dedicated queues.
  EXPECT_GT(r.points[0].get.ms_per_op(), s.points[0].get.ms_per_op());
}

// -------------------------------------------------------- table benchmark ----

azurebench::TableBenchConfig small_table_config(int workers) {
  azurebench::TableBenchConfig cfg;
  cfg.workers = workers;
  cfg.entities = 25;
  cfg.entity_sizes = {4 << 10, 64 << 10};
  return cfg;
}

TEST(TableBenchmarkTest, PaperShapeUpdateSlowestQueryFastest) {
  const auto result = azurebench::run_table_benchmark(small_table_config(4));
  ASSERT_EQ(result.points.size(), 2u);
  for (const auto& p : result.points) {
    EXPECT_GT(p.update.seconds, p.insert.seconds) << p.entity_size;
    EXPECT_GT(p.insert.seconds, p.query.seconds) << p.entity_size;
    EXPECT_GT(p.erase.seconds, p.query.seconds) << p.entity_size;
  }
}

TEST(TableBenchmarkTest, LargeEntitySlowdownGrowsWithWorkers) {
  const auto few = azurebench::run_table_benchmark(small_table_config(2));
  const auto many = azurebench::run_table_benchmark(small_table_config(48));
  // Ratio of 64 KB insert time to 4 KB insert time inflates with workers
  // (the per-server journal saturates) — the Fig. 8 signature.
  const double few_ratio =
      few.points[1].insert.seconds / few.points[0].insert.seconds;
  const double many_ratio =
      many.points[1].insert.seconds / many.points[0].insert.seconds;
  EXPECT_GT(many_ratio, few_ratio * 1.3);
}

TEST(TableBenchmarkTest, DeterministicAcrossRuns) {
  const auto a = azurebench::run_table_benchmark(small_table_config(4));
  const auto b = azurebench::run_table_benchmark(small_table_config(4));
  EXPECT_EQ(a.points[0].insert.seconds, b.points[0].insert.seconds);
  EXPECT_EQ(a.points[1].update.seconds, b.points[1].update.seconds);
  EXPECT_GT(a.simulated_events, 0u);
  EXPECT_EQ(a.simulated_events, b.simulated_events);
}


// ------------------------------------------------------------ cost model ----

TEST(CostModelTest, ComputeBillsStartedHours) {
  azurebench::UsageSample usage;
  usage.instances = 10;
  usage.vm_size = fabric::VmSize::kSmall;
  usage.duration = sim::seconds(3601);  // just over one hour -> 2 billed
  const auto cost = azurebench::estimate_cost(usage);
  EXPECT_DOUBLE_EQ(cost.compute_usd, 2 * 10 * 0.12);
}

TEST(CostModelTest, VmSizePricing) {
  azurebench::PriceSheet2012 prices;
  EXPECT_DOUBLE_EQ(
      azurebench::instance_hour_price(fabric::VmSize::kExtraSmall, prices),
      0.04);
  EXPECT_DOUBLE_EQ(
      azurebench::instance_hour_price(fabric::VmSize::kSmall, prices), 0.12);
  EXPECT_DOUBLE_EQ(
      azurebench::instance_hour_price(fabric::VmSize::kExtraLarge, prices),
      8 * 0.12);
}

TEST(CostModelTest, TransactionsAndStorageProrated) {
  azurebench::UsageSample usage;
  usage.transactions = 1'000'000;
  usage.peak_stored_bytes = 2ll << 30;          // 2 GB
  usage.duration = sim::seconds(15.0 * 24 * 3600);  // half a month
  usage.instances = 0;
  const auto cost = azurebench::estimate_cost(usage);
  EXPECT_DOUBLE_EQ(cost.transactions_usd, 100 * 0.01);
  EXPECT_NEAR(cost.storage_usd, 2 * 0.125 * 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(cost.egress_usd, 0.0);
  EXPECT_NEAR(cost.total(), 1.0 + 0.125, 1e-9);
}

TEST(CostModelTest, BenchmarksReportUsage) {
  const auto r = azurebench::run_blob_benchmark(small_blob_config(4));
  EXPECT_GT(r.storage_transactions, 0);
  EXPECT_GT(r.virtual_seconds, 0.0);
  // Sanity: the experiment issues at least one transaction per chunk op.
  EXPECT_GE(r.storage_transactions,
            r.page_random_read.ops + r.block_seq_read.ops);
}

}  // namespace
