#include "core/table_benchmark.hpp"

#include <string>

#include "azure/cloud_storage_account.hpp"
#include "azure/common/retry.hpp"
#include "core/barrier.hpp"
#include "fabric/deployment.hpp"
#include "simcore/simulation.hpp"

namespace azurebench {
namespace {

constexpr const char* kTable = "AzureBenchTable";

azure::TableEntity make_entity(int worker, int row, std::int64_t size) {
  azure::TableEntity e;
  e.partition_key = "worker-" + std::to_string(worker);
  e.row_key = "row-" + std::to_string(row);
  // The paper uses a single column holding the payload.
  e.properties["data"] = azure::Payload::synthetic(size);
  return e;
}

struct Shared {
  const TableBenchConfig& cfg;
  PhaseCollector collector;
  sim::Duration barrier_time = 0;
  std::int64_t retries = 0;
};

sim::Task<void> worker_body(fabric::RoleContext& ctx, Shared& shared) {
  const TableBenchConfig& cfg = shared.cfg;
  auto& sim = ctx.simulation();
  auto account = ctx.account();
  auto table =
      account.create_cloud_table_client().get_table_reference(kTable);
  QueueBarrier barrier(account, "azurebench-table-sync", cfg.workers);

  auto sync = [&]() -> sim::Task<void> {
    const sim::TimePoint t0 = sim.now();
    co_await barrier.arrive();
    shared.barrier_time += sim.now() - t0;
  };

  co_await barrier.provision();  // idempotent; avoids racing worker 0
  co_await table.create_if_not_exists();
  co_await sync();

  int size_index = 0;
  for (const std::int64_t size : cfg.entity_sizes) {
    const std::string tag = std::to_string(size);

    // Insert phase.
    {
      const sim::TimePoint t0 = sim.now();
      for (int row = 0; row < cfg.entities; ++row) {
        co_await azure::with_retry(
            sim, [&] { return table.insert(make_entity(ctx.id(), row, size)); },
            azure::RetryPolicy::paper(), &shared.retries);
      }
      shared.collector.record("insert-" + tag, size_index, t0, sim.now());
    }
    co_await sync();

    // Query phase.
    {
      const sim::TimePoint t0 = sim.now();
      for (int row = 0; row < cfg.entities; ++row) {
        (void)co_await azure::with_retry(
            sim,
            [&] {
              return table.query("worker-" + std::to_string(ctx.id()),
                                 "row-" + std::to_string(row));
            },
            azure::RetryPolicy::paper(), &shared.retries);
      }
      shared.collector.record("query-" + tag, size_index, t0, sim.now());
    }
    co_await sync();

    // Update phase (unconditional, ETag "*").
    {
      const sim::TimePoint t0 = sim.now();
      for (int row = 0; row < cfg.entities; ++row) {
        co_await azure::with_retry(
            sim,
            [&] { return table.update(make_entity(ctx.id(), row, size), "*"); },
            azure::RetryPolicy::paper(), &shared.retries);
      }
      shared.collector.record("update-" + tag, size_index, t0, sim.now());
    }
    co_await sync();

    // Delete phase.
    {
      const sim::TimePoint t0 = sim.now();
      for (int row = 0; row < cfg.entities; ++row) {
        co_await azure::with_retry(
            sim,
            [&] {
              return table.erase("worker-" + std::to_string(ctx.id()),
                                 "row-" + std::to_string(row));
            },
            azure::RetryPolicy::paper(), &shared.retries);
      }
      shared.collector.record("delete-" + tag, size_index, t0, sim.now());
    }
    co_await sync();
    ++size_index;
  }
}

}  // namespace

TableBenchResult run_table_benchmark(const TableBenchConfig& cfg) {
  sim::Simulation simulation;
  if (cfg.observer != nullptr) simulation.set_observer(cfg.observer);
  azure::CloudEnvironment env(simulation, cfg.cloud);
  fabric::Deployment deployment(env);
  deployment.add_worker_roles(cfg.workers, kWorkerVm);

  Shared shared{cfg, {}, 0, 0};
  deployment.start_workers([&shared](fabric::RoleContext& ctx) {
    return worker_body(ctx, shared);
  });
  simulation.run();

  TableBenchResult result;
  const std::int64_t total_ops =
      static_cast<std::int64_t>(cfg.workers) * cfg.entities;
  for (const std::int64_t size : cfg.entity_sizes) {
    const std::string tag = std::to_string(size);
    const std::int64_t bytes = size * total_ops;
    TableSizePoint point;
    point.entity_size = size;
    point.insert = PhaseReport{
        "insert-" + tag,
        sim::to_seconds(shared.collector.wall("insert-" + tag)), bytes,
        total_ops};
    point.query = PhaseReport{
        "query-" + tag, sim::to_seconds(shared.collector.wall("query-" + tag)),
        bytes, total_ops};
    point.update = PhaseReport{
        "update-" + tag,
        sim::to_seconds(shared.collector.wall("update-" + tag)), bytes,
        total_ops};
    point.erase = PhaseReport{
        "delete-" + tag,
        sim::to_seconds(shared.collector.wall("delete-" + tag)), bytes,
        total_ops};
    result.points.push_back(point);
  }
  result.barrier_seconds = sim::to_seconds(shared.barrier_time);
  result.server_busy_retries = shared.retries;
  result.simulated_events = simulation.events_executed();
  result.storage_transactions = env.storage_cluster().total_requests();
  result.virtual_seconds = sim::to_seconds(simulation.now());
  return result;
}

}  // namespace azurebench
