#include "core/queue_benchmark.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "azure/cloud_storage_account.hpp"
#include "azure/common/limits.hpp"
#include "azure/common/retry.hpp"
#include "core/barrier.hpp"
#include "fabric/deployment.hpp"
#include "simcore/simulation.hpp"

namespace azurebench {
namespace {

/// Relative jitter applied to each shared-queue think pause (uniform in
/// ±fraction). A real application's "certain amount of time before going
/// back to the queue" is never exact; without jitter the deterministic fleet
/// marches in lockstep and contention stops depending on the think time.
constexpr double kThinkJitter = 0.2;

/// The figure workloads reproduce the paper's client behaviour exactly:
/// fixed 1 s sleep on ServerBusy (RetryPolicy::paper()).
template <class MakeOp>
auto paper_retry(sim::Simulation& sim, MakeOp make_op) {
  return azure::with_retry(sim, std::move(make_op),
                           azure::RetryPolicy::paper());
}

std::int64_t usable_payload(std::int64_t nominal) {
  return std::min<std::int64_t>(nominal, azure::limits::kMaxMessagePayloadBytes);
}

// ------------------------------------------- Algorithm 3: separate queues ----

struct SeparateShared {
  const QueueSeparateConfig& cfg;
  PhaseCollector collector;
  sim::Duration barrier_time = 0;
};

sim::Task<void> separate_worker(fabric::RoleContext& ctx,
                                SeparateShared& shared) {
  const QueueSeparateConfig& cfg = shared.cfg;
  auto& sim = ctx.simulation();
  auto account = ctx.account();
  auto queues = account.create_cloud_queue_client();
  auto queue = queues.get_queue_reference("AzureBenchQueue-" +
                                          std::to_string(ctx.id()));
  QueueBarrier barrier(account, "azurebench-queue-sync", cfg.workers);

  auto sync = [&]() -> sim::Task<void> {
    const sim::TimePoint t0 = sim.now();
    co_await barrier.arrive();
    shared.barrier_time += sim.now() - t0;
  };

  co_await barrier.provision();  // idempotent; avoids racing worker 0
  co_await paper_retry(sim, [&] { return queue.create_if_not_exists(); });
  co_await sync();

  const std::int64_t per_worker = cfg.total_messages / cfg.workers;
  int size_index = 0;
  for (const std::int64_t nominal : cfg.message_sizes) {
    const std::int64_t payload = usable_payload(nominal);
    const std::string tag = std::to_string(nominal);

    // PutMessage phase.
    {
      const sim::TimePoint t0 = sim.now();
      for (std::int64_t m = 0; m < per_worker; ++m) {
        co_await paper_retry(sim, [&] {
          return queue.add_message(azure::Payload::synthetic(payload));
        });
      }
      shared.collector.record("put-" + tag, size_index, t0, sim.now());
    }
    co_await sync();

    // PeekMessage phase.
    {
      const sim::TimePoint t0 = sim.now();
      for (std::int64_t m = 0; m < per_worker; ++m) {
        co_await paper_retry(sim, [&] { return queue.peek_message(); });
      }
      shared.collector.record("peek-" + tag, size_index, t0, sim.now());
    }
    co_await sync();

    // GetMessage (+ DeleteMessage) phase.
    {
      const sim::TimePoint t0 = sim.now();
      for (std::int64_t m = 0; m < per_worker; ++m) {
        auto msg = co_await paper_retry(
            sim, [&] { return queue.get_message(sim::seconds(3600)); });
        if (msg.has_value()) {
          co_await paper_retry(sim,
                                     [&] { return queue.delete_message(*msg); });
        }
      }
      shared.collector.record("get-" + tag, size_index, t0, sim.now());
    }
    co_await sync();
    ++size_index;
  }
  co_await paper_retry(sim, [&] { return queue.delete_queue(); });
}

// ---------------------------------------------- Algorithm 4: shared queue ----

struct OpTotals {
  sim::Duration put = 0, peek = 0, get = 0;
  std::int64_t put_ops = 0, peek_ops = 0, get_ops = 0;
};

struct SharedShared {
  const QueueSharedConfig& cfg;
  /// One accumulator per think-time point.
  std::vector<OpTotals> totals;
  sim::Duration barrier_time = 0;
};

sim::Task<void> shared_worker(fabric::RoleContext& ctx, SharedShared& shared) {
  const QueueSharedConfig& cfg = shared.cfg;
  auto& sim = ctx.simulation();
  auto account = ctx.account();
  auto queue = account.create_cloud_queue_client().get_queue_reference(
      "AzureBenchQueue");
  QueueBarrier barrier(account, "azurebench-shared-sync", cfg.workers);
  sim::Random rng(cfg.seed + 77 + static_cast<std::uint64_t>(ctx.id()));
  auto jittered = [&](sim::Duration base) {
    const double f = 1.0 + kThinkJitter * (2.0 * rng.next_double() - 1.0);
    return static_cast<sim::Duration>(static_cast<double>(base) * f);
  };

  co_await barrier.provision();  // idempotent; avoids racing worker 0
  co_await queue.create_if_not_exists();
  co_await barrier.arrive();

  const std::int64_t per_round =
      std::max<std::int64_t>(1, cfg.messages_per_round / cfg.workers);
  const std::int64_t rounds =
      cfg.total_messages / cfg.messages_per_round;

  for (std::size_t point = 0; point < cfg.think_seconds.size(); ++point) {
    const sim::Duration think =
        static_cast<sim::Duration>(cfg.think_seconds[point]) * sim::kSecond;
    OpTotals& totals = shared.totals[point];

    for (std::int64_t round = 0; round < rounds; ++round) {
      for (std::int64_t m = 0; m < per_round; ++m) {
        sim::TimePoint t0 = sim.now();
        co_await paper_retry(sim, [&] {
          return queue.add_message(
              azure::Payload::synthetic(cfg.message_size));
        });
        totals.put += sim.now() - t0;
        ++totals.put_ops;
        co_await sim.delay(jittered(think));

        t0 = sim.now();
        co_await paper_retry(sim, [&] { return queue.peek_message(); });
        totals.peek += sim.now() - t0;
        ++totals.peek_ops;
        co_await sim.delay(jittered(think));

        t0 = sim.now();
        auto msg = co_await paper_retry(
            sim, [&] { return queue.get_message(sim::seconds(3600)); });
        if (msg.has_value()) {
          co_await paper_retry(sim,
                                     [&] { return queue.delete_message(*msg); });
        }
        totals.get += sim.now() - t0;
        ++totals.get_ops;
        co_await sim.delay(jittered(think));
      }
    }
    co_await barrier.arrive();  // align workers between think-time points
  }
}

}  // namespace

QueueSeparateResult run_queue_separate_benchmark(
    const QueueSeparateConfig& cfg) {
  sim::Simulation simulation;
  if (cfg.observer != nullptr) simulation.set_observer(cfg.observer);
  azure::CloudEnvironment env(simulation, cfg.cloud);
  fabric::Deployment deployment(env);
  deployment.add_worker_roles(cfg.workers, kWorkerVm);

  SeparateShared shared{cfg, {}, 0};
  deployment.start_workers([&shared](fabric::RoleContext& ctx) {
    return separate_worker(ctx, shared);
  });
  simulation.run();

  QueueSeparateResult result;
  for (const std::int64_t nominal : cfg.message_sizes) {
    const std::string tag = std::to_string(nominal);
    const std::int64_t payload = usable_payload(nominal);
    const std::int64_t total_bytes = payload * cfg.total_messages;
    QueueSizePoint point;
    point.message_size = nominal;
    point.put = PhaseReport{"put-" + tag,
                            sim::to_seconds(shared.collector.wall("put-" + tag)),
                            total_bytes, cfg.total_messages};
    point.peek =
        PhaseReport{"peek-" + tag,
                    sim::to_seconds(shared.collector.wall("peek-" + tag)),
                    total_bytes, cfg.total_messages};
    point.get = PhaseReport{"get-" + tag,
                            sim::to_seconds(shared.collector.wall("get-" + tag)),
                            total_bytes, cfg.total_messages};
    result.points.push_back(point);
  }
  result.barrier_seconds = sim::to_seconds(shared.barrier_time);
  result.simulated_events = simulation.events_executed();
  result.storage_transactions = env.storage_cluster().total_requests();
  result.virtual_seconds = sim::to_seconds(simulation.now());
  return result;
}

QueueSharedResult run_queue_shared_benchmark(const QueueSharedConfig& cfg) {
  sim::Simulation simulation;
  if (cfg.observer != nullptr) simulation.set_observer(cfg.observer);
  azure::CloudEnvironment env(simulation, cfg.cloud);
  fabric::Deployment deployment(env);
  deployment.add_worker_roles(cfg.workers, kWorkerVm);

  SharedShared shared{cfg, std::vector<OpTotals>(cfg.think_seconds.size()), 0};
  deployment.start_workers([&shared](fabric::RoleContext& ctx) {
    return shared_worker(ctx, shared);
  });
  simulation.run();

  QueueSharedResult result;
  for (std::size_t i = 0; i < cfg.think_seconds.size(); ++i) {
    const OpTotals& totals = shared.totals[i];
    QueueThinkPoint point;
    point.think_seconds = cfg.think_seconds[i];
    // seconds = average per-worker communication time; ops = per-worker op
    // count, so ms_per_op() is the true mean operation latency.
    const auto w = static_cast<std::int64_t>(cfg.workers);
    const double wd = static_cast<double>(cfg.workers);
    point.put = PhaseReport{"put", sim::to_seconds(totals.put) / wd,
                            cfg.message_size * totals.put_ops / w,
                            totals.put_ops / w};
    point.peek = PhaseReport{"peek", sim::to_seconds(totals.peek) / wd,
                             cfg.message_size * totals.peek_ops / w,
                             totals.peek_ops / w};
    point.get = PhaseReport{"get", sim::to_seconds(totals.get) / wd,
                            cfg.message_size * totals.get_ops / w,
                            totals.get_ops / w};
    result.points.push_back(point);
  }
  result.simulated_events = simulation.events_executed();
  return result;
}

}  // namespace azurebench
