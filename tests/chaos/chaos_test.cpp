// Chaos suite: the paper's workloads under seeded fault plans.
//
// Each scenario runs a figure-style workload (fig6/fig7 queue fleets, fig8
// table fleets, the Section III bag-of-tasks framework) with the
// fault-injection layer armed — message drops, duplications, latency
// spikes, and partition-server crash/restart cycles — and asserts the
// paper's fault-tolerance claims as invariants:
//
//  * queue messages are processed at least once; none are ever lost;
//  * idempotent table writes are neither lost nor double-applied;
//  * the bag-of-tasks run completes despite crashing workers, because the
//    visibility timeout re-delivers abandoned tasks;
//  * identical fault seeds reproduce byte-identical runs (fault log, event
//    count, final virtual time); different seeds diverge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "azure_test_util.hpp"
#include "azure/common/errors.hpp"
#include "azure/common/retry.hpp"
#include "fabric/deployment.hpp"
#include "faults/fault_plan.hpp"
#include "framework/bag_of_tasks.hpp"
#include "simcore/random.hpp"
#include "simcore/sync.hpp"
#include "strict_parse.hpp"

/// CLI overrides (see main() at the bottom): `--chaos_seed=N` re-seeds the
/// fig6 fleet scenarios so CI can diversify coverage across runs without a
/// rebuild, and `--chaos_messages=N` scales the per-worker workload (run
/// duration) up or down to fit the wall-clock budget of the machine.
namespace chaos_flags {
std::uint64_t seed = 0xC0A1;
std::int64_t messages = 8;
}  // namespace chaos_flags

namespace {

using azb_test::TestWorld;
using azure::Payload;
using framework::BagOfTasksApp;
using framework::TaskDescriptor;
using sim::Task;

/// The fault-tolerant client policy every chaos scenario uses: quick first
/// retry, capped exponential growth, decorrelated per-worker jitter.
azure::RetryPolicy chaos_retry(int worker_id) {
  azure::RetryPolicy p;
  p.backoff = sim::millis(250);
  p.max_backoff = sim::seconds(2);
  p.jitter_seed = static_cast<std::uint64_t>(worker_id);
  return p;
}

/// A moderately hostile cloud: ~4% of transfers faulted, four server
/// crash/restart cycles over the run.
azure::CloudConfig chaos_cloud(std::uint64_t seed) {
  azure::CloudConfig cfg;
  cfg.faults.seed = seed;
  cfg.faults.drop_probability = 0.015;
  cfg.faults.duplicate_probability = 0.01;
  cfg.faults.latency_spike_probability = 0.02;
  cfg.faults.drop_timeout = sim::millis(300);
  cfg.faults.server_crashes = 4;
  cfg.faults.crash_mean_interval = sim::seconds(4);
  cfg.faults.server_downtime = sim::seconds(1);
  return cfg;
}

// ------------------------------------------------ fig6/fig7 queue chaos ----

struct QueueChaosResult {
  sim::TimePoint final_time = 0;
  std::uint64_t events = 0;
  std::vector<faults::FaultRecord> fault_log;
  std::int64_t redeliveries = 0;
  std::int64_t abandons = 0;
  std::int64_t deletes = 0;
  bool operator==(const QueueChaosResult&) const = default;
};

/// One fig6-style worker: drives its own queue (put batch, then drain),
/// with a seeded coin occasionally "crashing" the consumer between get and
/// delete — the abandoned message must come back via the visibility
/// timeout.
Task<> fig6_chaos_worker(TestWorld& t, int id, int messages,
                         std::int64_t& abandons, std::int64_t& deletes,
                         sim::WaitGroup& wg) {
  const azure::RetryPolicy retry = chaos_retry(id);
  sim::Random rng(0x516u + static_cast<std::uint64_t>(id) * 2654435761u);
  auto q = t.account.create_cloud_queue_client().get_queue_reference(
      "fig6-q-" + std::to_string(id));
  co_await azure::with_retry(
      t.sim, [&] { return q.create_if_not_exists(); }, retry);
  for (int k = 0; k < messages; ++k) {
    co_await azure::with_retry(t.sim, [&] {
      return q.add_message(Payload::bytes("m-" + std::to_string(k)));
    }, retry);
    co_await t.sim.delay(sim::millis(rng.uniform(10, 40)));
  }
  int done = 0;
  while (done < messages) {
    CO_ASSERT_TRUE(t.sim.now() < sim::seconds(900));  // lost-message guard
    auto m = co_await azure::with_retry(
        t.sim, [&] { return q.get_message(sim::seconds(5)); }, retry);
    if (!m.has_value()) {
      co_await t.sim.delay(sim::millis(200));
      continue;
    }
    if (rng.bernoulli(0.15)) {
      ++abandons;  // consumer crash before delete; no ack
      continue;
    }
    co_await azure::with_retry(
        t.sim, [&] { return q.delete_message(*m); }, retry);
    ++done;
    ++deletes;
  }
  wg.done();
}

QueueChaosResult run_queue_chaos(std::uint64_t seed, int workers,
                                 int messages) {
  TestWorld w(chaos_cloud(seed));
  QueueChaosResult r;
  sim::WaitGroup wg(w.sim);
  for (int i = 0; i < workers; ++i) {
    wg.add();
    w.sim.spawn(
        fig6_chaos_worker(w, i, messages, r.abandons, r.deletes, wg));
  }
  w.sim.run();
  r.final_time = w.sim.now();
  r.events = w.sim.events_executed();
  r.fault_log = w.env.fault_plan().log();
  r.redeliveries = w.env.queue_service().redeliveries();
  return r;
}

TEST(ChaosQueueTest, Fig6FleetProcessesEveryMessageAtLeastOnce) {
  const QueueChaosResult r = run_queue_chaos(chaos_flags::seed, /*workers=*/24,
                                             chaos_flags::messages);
  // Completion despite injected failures: every worker deleted its full
  // batch (the drain loop cannot exit otherwise), so no message was lost.
  EXPECT_EQ(r.deletes, 24 * chaos_flags::messages);
  // Every abandoned delivery came back exactly once per abandonment.
  EXPECT_EQ(r.redeliveries, r.abandons);
  EXPECT_GT(r.abandons, 0);
  // The plan actually injected what it promised.
  EXPECT_EQ(std::int64_t{4},
            std::count_if(r.fault_log.begin(), r.fault_log.end(),
                          [](const faults::FaultRecord& f) {
                            return f.kind == faults::FaultKind::kServerCrash;
                          }));
  EXPECT_GT(static_cast<std::int64_t>(r.fault_log.size()), 8);
}

TEST(ChaosQueueTest, IdenticalSeedsReplayByteIdentically) {
  const QueueChaosResult a = run_queue_chaos(0xBEEF, 8, 6);
  const QueueChaosResult b = run_queue_chaos(0xBEEF, 8, 6);
  EXPECT_EQ(a, b);  // final time, events, fault log, counters — everything
}

TEST(ChaosQueueTest, DifferentSeedsInjectDifferentFaults) {
  const QueueChaosResult a = run_queue_chaos(1, 8, 6);
  const QueueChaosResult b = run_queue_chaos(2, 8, 6);
  EXPECT_NE(a.fault_log, b.fault_log);
}

// --------------------------------------------------- fig8 table chaos ----

TEST(ChaosTableTest, IdempotentWritesAreNeitherLostNorDoubleApplied) {
  constexpr int kWorkers = 12;
  constexpr int kRows = 6;
  TestWorld w(chaos_cloud(0x7AB1E));
  std::int64_t conflicts = 0;
  sim::WaitGroup wg(w.sim);
  for (int i = 0; i < kWorkers; ++i) {
    wg.add();
    w.sim.spawn([](TestWorld& t, int id, std::int64_t& conflicts,
                   sim::WaitGroup& wg) -> Task<> {
      const azure::RetryPolicy retry = chaos_retry(id);
      auto tbl =
          t.account.create_cloud_table_client().get_table_reference("chaos");
      co_await azure::with_retry(
          t.sim, [&] { return tbl.create_if_not_exists(); }, retry);
      for (int k = 0; k < kRows; ++k) {
        azure::TableEntity e;
        e.partition_key = "w" + std::to_string(id);
        e.row_key = "r" + std::to_string(k);
        e.properties["v"] = Payload::bytes("v0");
        // Plain insert, retried on timeouts. Because a timeout means the
        // mutation was NOT applied (services commit state only after the
        // round-trip succeeds), the retry can never collide with its own
        // earlier attempt — a ConflictError here would be a double-apply.
        bool conflicted = false;
        try {
          co_await azure::with_retry(
              t.sim, [&] { return tbl.insert(e); }, retry);
        } catch (const azure::ConflictError&) {
          conflicted = true;
        }
        if (conflicted) ++conflicts;
        // Idempotent overwrite to the final version, same retry envelope.
        e.properties["v"] = Payload::bytes("v-final");
        co_await azure::with_retry(
            t.sim, [&] { return tbl.insert_or_replace(e); }, retry);
      }
      wg.done();
    }(w, i, conflicts, wg));
  }
  w.sim.run();
  EXPECT_EQ(conflicts, 0) << "a retried insert double-applied";

  // Read-back pass: every row exists exactly once with the final value.
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto tbl =
        t.account.create_cloud_table_client().get_table_reference("chaos");
    for (int id = 0; id < kWorkers; ++id) {
      for (int k = 0; k < kRows; ++k) {
        auto row = co_await tbl.query("w" + std::to_string(id),
                                      "r" + std::to_string(k));
        CO_ASSERT_EQ(std::get<Payload>(row.properties.at("v")).data(),
                     std::string("v-final"));
      }
    }
  });
  EXPECT_FALSE(w.env.fault_plan().log().empty());
}

// ------------------------------------------------- integrity chaos ----

/// The hostile cloud with bit-flip corruption layered on top: ~3% of
/// transfers arrive damaged, on top of the drops, spikes, and crash/restart
/// cycles (whose torn replica writes the scrubbers must also heal).
azure::CloudConfig chaos_integrity_cloud(std::uint64_t seed) {
  azure::CloudConfig cfg = chaos_cloud(seed);
  cfg.faults.corruption_probability = 0.03;
  return cfg;
}

std::string chaos_body(int worker, int k) {
  std::string s = std::to_string(k) + ":";
  sim::Random rng(static_cast<std::uint64_t>(worker) * 7919u +
                  static_cast<std::uint64_t>(k) + 5);
  for (int i = 0; i < 192; ++i) {
    s += static_cast<char>('!' + rng.uniform(0, 90));
  }
  return s;
}

TEST(ChaosIntegrityTest, NoCorruptPayloadEverReachesAClient) {
  constexpr int kWorkers = 12;
  const int kMessages = chaos_flags::messages;
  TestWorld w(chaos_integrity_cloud(chaos_flags::seed ^ 0x1D7));
  std::int64_t corrupt_observed = 0;
  sim::WaitGroup wg(w.sim);
  for (int i = 0; i < kWorkers; ++i) {
    wg.add();
    w.sim.spawn([](TestWorld& t, int id, int messages,
                   std::int64_t& corrupt_observed,
                   sim::WaitGroup& wg) -> Task<> {
      const azure::RetryPolicy retry = chaos_retry(id);
      auto q = t.account.create_cloud_queue_client().get_queue_reference(
          "int-q-" + std::to_string(id));
      co_await azure::with_retry(
          t.sim, [&] { return q.create_if_not_exists(); }, retry);
      for (int k = 0; k < messages; ++k) {
        co_await azure::with_retry(t.sim, [&] {
          return q.add_message(Payload::bytes(chaos_body(id, k)));
        }, retry);
      }
      int done = 0;
      while (done < messages) {
        CO_ASSERT_TRUE(t.sim.now() < sim::seconds(900));
        auto m = co_await azure::with_retry(
            t.sim, [&] { return q.get_message(sim::seconds(5)); }, retry);
        if (!m.has_value()) {
          co_await t.sim.delay(sim::millis(200));
          continue;
        }
        const int k = std::stoi(m->body.data());
        if (m->body.data() != chaos_body(id, k)) ++corrupt_observed;
        co_await azure::with_retry(
            t.sim, [&] { return q.delete_message(*m); }, retry);
        ++done;
      }
      wg.done();
    }(w, i, kMessages, corrupt_observed, wg));
  }
  w.sim.run();

  // The headline invariant: bits flipped on the wire and crashes tore
  // replica writes, yet no client ever decoded a corrupt payload.
  EXPECT_EQ(corrupt_observed, 0);
  auto& plan = *w.env.storage_cluster().fault_plan();
  EXPECT_GT(plan.count(faults::FaultKind::kBitFlip), 0);
  EXPECT_GT(plan.count(faults::FaultKind::kChecksumMismatch), 0);

  // Force an anti-entropy pass and require full replica convergence.
  auto& cluster = w.env.storage_cluster();
  EXPECT_GT(cluster.replica_store().tracked_objects(), 0);
  w.sim.spawn(cluster.scrub_all());
  w.sim.run();
  EXPECT_EQ(cluster.replica_store().divergent_replicas(), 0);
}

// ---------------------------------------- partition-balancer chaos ----

/// The hostile cloud with the partition-map load balancer running on top of
/// the crash/restart cycles: balancer moves, crash failover reassignments,
/// and fail-backs all mutate the same map while the fleet is in flight.
azure::CloudConfig balancer_chaos_cloud(std::uint64_t seed) {
  azure::CloudConfig cfg = chaos_cloud(seed);
  cfg.cluster.balancer.enabled = true;
  cfg.cluster.balancer.epoch = sim::millis(250);
  cfg.cluster.balancer.offload_threshold = 1.10;
  cfg.cluster.balancer.max_moves_per_epoch = 8;
  cfg.cluster.balancer.move_unavailable = sim::millis(5);
  return cfg;
}

struct BalancerChaosResult {
  sim::TimePoint final_time = 0;
  std::uint64_t events = 0;
  std::vector<faults::FaultRecord> fault_log;
  std::int64_t deletes = 0;
  std::int64_t moves = 0;
  std::int64_t redirects = 0;
  std::uint64_t map_version = 0;
  bool operator==(const BalancerChaosResult&) const = default;
};

BalancerChaosResult run_balancer_chaos(std::uint64_t seed) {
  TestWorld w(balancer_chaos_cloud(seed));
  BalancerChaosResult r;
  std::int64_t abandons = 0;
  sim::WaitGroup wg(w.sim);
  for (int i = 0; i < 16; ++i) {
    wg.add();
    w.sim.spawn(
        fig6_chaos_worker(w, i, /*messages=*/6, abandons, r.deletes, wg));
  }
  w.sim.run();
  r.final_time = w.sim.now();
  r.events = w.sim.events_executed();
  r.fault_log = w.env.fault_plan().log();
  auto& cluster = w.env.storage_cluster();
  r.moves = cluster.partition_moves();
  r.redirects = cluster.stale_map_redirects();
  r.map_version = cluster.partition_map().version();
  return r;
}

TEST(ChaosBalancerTest, FleetCompletesWithBalancingAndCrashesInterleaved) {
  const BalancerChaosResult r = run_balancer_chaos(chaos_flags::seed ^ 0xBA1);
  // Completion despite moves, redirects, and crash/restart cycles: every
  // worker drained its full batch through the default retry policy (which
  // retries the PartitionMovedError redirects).
  EXPECT_EQ(r.deletes, 16 * 6);
  // Crash failover alone guarantees map churn: every crash reassigns the
  // victim's buckets through move_bucket(), bumping the version.
  EXPECT_GT(r.moves, 0);
  EXPECT_GT(r.map_version, std::uint64_t{1});
  EXPECT_EQ(std::int64_t{4},
            std::count_if(r.fault_log.begin(), r.fault_log.end(),
                          [](const faults::FaultRecord& f) {
                            return f.kind == faults::FaultKind::kServerCrash;
                          }));
}

TEST(ChaosBalancerTest, BalancedChaosRunsReplayByteIdentically) {
  const BalancerChaosResult a = run_balancer_chaos(0xD15C);
  const BalancerChaosResult b = run_balancer_chaos(0xD15C);
  EXPECT_EQ(a, b);  // time, events, fault log, moves, map version — all of it
}

// ---------------------------------------------- bag-of-tasks chaos ----

TEST(ChaosBagOfTasksTest, CompletesDespiteCrashingHandlers) {
  constexpr int kTasks = 20;
  TestWorld w(chaos_cloud(0xB06));
  BagOfTasksApp app(w.account);

  azb_test::run(w, [](TestWorld& t) -> Task<> {
    BagOfTasksApp setup(t.account);
    co_await setup.provision();
  });

  w.sim.spawn([](BagOfTasksApp& a) -> Task<> {
    for (int i = 0; i < kTasks; ++i) {
      co_await a.submit("chaos-task-" + std::to_string(i));
    }
    co_await a.wait_for_completion(kTasks);
  }(app));

  // Four workers; every even-numbered task's FIRST execution crashes its
  // handler. The framework must requeue it (fast, via UpdateMessage(0))
  // and another execution must finish it.
  std::map<std::string, int> executions;
  fabric::Deployment dep(w.env);
  dep.add_worker_roles(4);
  dep.start_workers([&](fabric::RoleContext& ctx) -> Task<> {
    co_await app.worker_loop(
        ctx.account(),
        [&](const TaskDescriptor& task) -> Task<> {
          const int nth = ++executions[task.body];
          const int task_id = std::stoi(task.body.substr(11));
          if (task_id % 2 == 0 && nth == 1) {
            throw azure::TimeoutError("simulated handler crash");
          }
          co_await ctx.simulation().delay(sim::millis(30));
        },
        /*max_idle_polls=*/12);
  });
  w.sim.run();

  // Every task ran at least once; every designated-flaky task was retried.
  EXPECT_EQ(static_cast<int>(executions.size()), kTasks);
  std::int64_t expected_failures = 0;
  for (int i = 0; i < kTasks; ++i) {
    const std::string body = "chaos-task-" + std::to_string(i);
    ASSERT_TRUE(executions.count(body)) << body << " never executed";
    if (i % 2 == 0) {
      EXPECT_GE(executions[body], 2) << body << " was not re-delivered";
      ++expected_failures;
    }
  }
  EXPECT_EQ(app.handler_failures(), expected_failures);
}

}  // namespace

/// Custom entry point (the chaos target links gtest, not gtest_main) so the
/// binary accepts the chaos flags once gtest has consumed its --gtest_* ones.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  benchutil::parse_flags(
      argc, argv,
      {{"--chaos_seed", &chaos_flags::seed,
        "re-seed the fault plans of the fleet scenarios (default 0xC0A1)"},
       {"--chaos_messages", &chaos_flags::messages,
        "per-worker message count, i.e. run duration (default 8)", 1,
        1'000'000}});
  return RUN_ALL_TESTS();
}
