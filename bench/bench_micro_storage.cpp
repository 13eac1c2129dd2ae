// Google-benchmark microbenchmarks of the simulated storage services:
// host-side cost per simulated operation, plus the operation's virtual-time
// latency as a reported counter.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
#include <string>

#include "azure/cloud_storage_account.hpp"
#include "azure/environment.hpp"
#include "fabric/vm_size.hpp"
#include "netsim/nic.hpp"
#include "simcore/simulation.hpp"

namespace {

struct World {
  sim::Simulation sim;
  azure::CloudEnvironment env{sim};
  netsim::Nic nic{sim, fabric::nic_config_of(fabric::VmSize::kExtraLarge)};
  azure::CloudStorageAccount account{env, nic};
};

constexpr int kOpsPerRun = 200;

sim::Task<void> queue_ops(World& w) {
  auto q = w.account.create_cloud_queue_client().get_queue_reference("q");
  co_await q.create();
  for (int i = 0; i < kOpsPerRun; ++i) {
    co_await q.add_message(azure::Payload::synthetic(4096));
    auto msg = co_await q.get_message();
    if (msg) co_await q.delete_message(*msg);
    // Stay under the 500 msg/s target (3 transactions per loop).
    co_await w.sim.delay(sim::millis(10));
  }
}

void BM_QueuePutGetDelete(benchmark::State& state) {
  double virtual_seconds = 0;
  for (auto _ : state) {
    World w;
    w.sim.spawn(queue_ops(w));
    w.sim.run();
    virtual_seconds += sim::to_seconds(w.sim.now());
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerRun * 3);
  state.counters["virt_ms_per_op"] = benchmark::Counter(
      virtual_seconds * 1000.0 /
      static_cast<double>(state.iterations() * kOpsPerRun * 3));
}
BENCHMARK(BM_QueuePutGetDelete);

// Host cost of queue operations against a standing backlog: one world is
// pre-filled to N messages, and each iteration runs kBacklogLoops loops of
// put + peek + get + delete + count, which leave the backlog at N. The cost
// per iteration should not grow with N.
constexpr int kBacklogLoops = 100;

sim::Task<void> fill_queue(World& w, std::int64_t messages) {
  auto q = w.account.create_cloud_queue_client().get_queue_reference("q");
  co_await q.create();
  for (std::int64_t i = 0; i < messages; ++i) {
    co_await q.add_message(azure::Payload::synthetic(4096));
  }
}

sim::Task<void> backlog_loops(World& w, std::int64_t& count) {
  auto q = w.account.create_cloud_queue_client().get_queue_reference("q");
  for (int i = 0; i < kBacklogLoops; ++i) {
    co_await q.add_message(azure::Payload::synthetic(4096));
    (void)co_await q.peek_message();
    auto msg = co_await q.get_message();
    if (msg) co_await q.delete_message(*msg);
    count = co_await q.get_message_count();
  }
}

void BM_QueueBacklog(benchmark::State& state) {
  const std::int64_t backlog = state.range(0);
  World w;
  w.sim.spawn(fill_queue(w, backlog));
  w.sim.run();
  std::int64_t count = -1;
  for (auto _ : state) {
    w.sim.spawn(backlog_loops(w, count));
    w.sim.run();
    benchmark::DoNotOptimize(count);
  }
  if (count != backlog) state.SkipWithError("backlog drifted from N");
  state.SetItemsProcessed(state.iterations() * kBacklogLoops * 5);
}
BENCHMARK(BM_QueueBacklog)
    ->Arg(0)
    ->Arg(1024)
    ->Arg(16384)
    ->Unit(benchmark::kMillisecond);

sim::Task<void> blob_ops(World& w) {
  auto c = w.account.create_cloud_blob_client().get_container_reference("c");
  co_await c.create();
  auto blob = c.get_page_blob_reference("p");
  co_await blob.create(static_cast<std::int64_t>(kOpsPerRun) << 20);
  for (int i = 0; i < kOpsPerRun; ++i) {
    co_await blob.put_page(static_cast<std::int64_t>(i) << 20,
                           azure::Payload::synthetic(1 << 20));
  }
  for (int i = 0; i < kOpsPerRun; ++i) {
    co_await blob.get_page(static_cast<std::int64_t>(i) << 20, 1 << 20);
  }
}

void BM_BlobPagePutGet(benchmark::State& state) {
  double virtual_seconds = 0;
  for (auto _ : state) {
    World w;
    w.sim.spawn(blob_ops(w));
    w.sim.run();
    virtual_seconds += sim::to_seconds(w.sim.now());
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerRun * 2);
  state.counters["virt_ms_per_op"] = benchmark::Counter(
      virtual_seconds * 1000.0 /
      static_cast<double>(state.iterations() * kOpsPerRun * 2));
}
BENCHMARK(BM_BlobPagePutGet);

/// Fills table "t" with `partitions` x `rows` entities of 4 KB, one entity
/// group transaction of 100 rows at a time.
sim::Task<void> fill_table(World& w, int partitions, int rows) {
  auto t = w.account.create_cloud_table_client().get_table_reference("t");
  co_await t.create();
  for (int r = 0; r < rows; r += 100) {
    for (int p = 0; p < partitions; ++p) {
      azure::TableBatch batch;
      for (int k = r; k < r + 100 && k < rows; ++k) {
        azure::TableEntity e;
        e.partition_key = "worker-" + std::to_string(p);
        e.row_key = "row-" + std::to_string(k);
        e.properties["data"] = azure::Payload::synthetic(4096);
        batch.insert(std::move(e));
      }
      co_await t.execute_batch(std::move(batch));
    }
    // Each partition admits 500 entities per second.
    co_await w.sim.delay(sim::millis(200));
  }
}

sim::Task<void> table_ops(World& w) {
  auto t = w.account.create_cloud_table_client().get_table_reference("t");
  for (int i = 0; i < kOpsPerRun; ++i) {
    azure::TableEntity e;
    e.partition_key = "p";
    e.row_key = "r" + std::to_string(i);
    e.properties["data"] = azure::Payload::synthetic(4096);
    co_await t.insert(e);
    (void)co_await t.query("p", e.row_key);
    // Two transactions per loop; stay under the 500 entities/s target.
    co_await w.sim.delay(sim::millis(6));
  }
}

sim::Task<void> table_erase(World& w) {
  auto t = w.account.create_cloud_table_client().get_table_reference("t");
  for (int i = 0; i < kOpsPerRun; ++i) {
    co_await t.erase("p", "r" + std::to_string(i));
    co_await w.sim.delay(sim::millis(3));
  }
}

// Insert + query of 200 rows of one partition, in a store pre-filled with
// range(0) partitions x range(1) rows (96 x 500 is the fig8 @96 store). The
// rows are erased again, untimed, after every iteration.
void BM_TableInsertQuery(benchmark::State& state) {
  World w;
  w.sim.spawn(fill_table(w, static_cast<int>(state.range(0)),
                         static_cast<int>(state.range(1))));
  w.sim.run();
  double virtual_seconds = 0;
  for (auto _ : state) {
    const sim::TimePoint start = w.sim.now();
    w.sim.spawn(table_ops(w));
    w.sim.run();
    state.PauseTiming();
    virtual_seconds += sim::to_seconds(w.sim.now() - start);
    w.sim.spawn(table_erase(w));
    w.sim.run();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerRun * 2);
  state.counters["virt_ms_per_op"] = benchmark::Counter(
      virtual_seconds * 1000.0 /
      static_cast<double>(state.iterations() * kOpsPerRun * 2));
}
BENCHMARK(BM_TableInsertQuery)->Args({0, 0})->Args({96, 500});

}  // namespace

BENCHMARK_MAIN();
