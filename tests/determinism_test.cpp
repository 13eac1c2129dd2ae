// Determinism tests for the event kernel under a full storage workload:
// two identical seeded runs must produce byte-identical event sequences —
// same events_executed(), same final virtual time, same per-worker op counts.
//
// This is the invariant the zero-allocation scheduler must hold: the
// (at, seq) total order, not allocation addresses or container internals,
// decides execution order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "azure_test_util.hpp"
#include "azure/common/errors.hpp"
#include "azure/common/retry.hpp"
#include "faults/fault_plan.hpp"
#include "simcore/random.hpp"
#include "simcore/sync.hpp"

namespace {

using azb_test::TestWorld;
using sim::Task;

constexpr int kWorkers = 96;
constexpr int kMessagesPerWorker = 20;

struct OpCounts {
  std::int64_t puts = 0;
  std::int64_t gets = 0;
  std::int64_t deletes = 0;
  std::int64_t retries = 0;
  bool operator==(const OpCounts&) const = default;
};

struct RunResult {
  std::uint64_t events_executed = 0;
  sim::TimePoint final_time = 0;
  std::vector<OpCounts> per_worker;
  bool operator==(const RunResult&) const = default;
};

// One worker drives its own queue: put a batch, then drain it, with seeded
// random think times. ServerBusy throttles are retried after 1 s (the
// paper's client policy), and counted.
Task<> queue_worker(TestWorld& t, int id, std::uint64_t seed, OpCounts& ops,
                    sim::WaitGroup& wg) {
  sim::Random rng(seed * 7919 + static_cast<std::uint64_t>(id));
  auto q = t.account.create_cloud_queue_client().get_queue_reference(
      "det-q-" + std::to_string(id));
  co_await q.create();
  for (int k = 0; k < kMessagesPerWorker; ++k) {
    for (;;) {
      bool throttled = false;
      try {
        co_await q.add_message(azure::Payload::bytes("m-" +
                                                     std::to_string(k)));
        ++ops.puts;
      } catch (const azure::ServerBusyError&) {
        throttled = true;
      }
      if (!throttled) break;
      ++ops.retries;
      co_await t.sim.delay(sim::seconds(1));
    }
    co_await t.sim.delay(sim::millis(rng.uniform(20, 60)));
  }
  while (ops.deletes < kMessagesPerWorker) {
    bool throttled = false;
    std::optional<azure::QueueMessage> msg;
    try {
      msg = co_await q.get_message();
      ++ops.gets;
    } catch (const azure::ServerBusyError&) {
      throttled = true;
    }
    if (throttled) {
      ++ops.retries;
      co_await t.sim.delay(sim::seconds(1));
      continue;
    }
    if (msg) {
      co_await q.delete_message(*msg);
      ++ops.deletes;
    }
    co_await t.sim.delay(sim::millis(rng.uniform(20, 60)));
  }
  wg.done();
}

RunResult run_scenario(std::uint64_t seed) {
  TestWorld w;
  RunResult r;
  r.per_worker.resize(kWorkers);
  sim::WaitGroup wg(w.sim);
  for (int i = 0; i < kWorkers; ++i) {
    wg.add();
    w.sim.spawn(queue_worker(w, i, seed, r.per_worker[static_cast<size_t>(i)],
                             wg));
  }
  w.sim.run();
  r.events_executed = w.sim.events_executed();
  r.final_time = w.sim.now();
  return r;
}

TEST(DeterminismTest, Seeded96WorkerQueueScenarioIsBitIdentical) {
  const RunResult first = run_scenario(42);
  const RunResult second = run_scenario(42);

  EXPECT_EQ(first.events_executed, second.events_executed);
  EXPECT_EQ(first.final_time, second.final_time);
  ASSERT_EQ(first.per_worker.size(), second.per_worker.size());
  for (int i = 0; i < kWorkers; ++i) {
    EXPECT_EQ(first.per_worker[static_cast<size_t>(i)],
              second.per_worker[static_cast<size_t>(i)])
        << "worker " << i << " diverged between identical runs";
  }

  // Sanity: the scenario actually did work.
  const auto& w0 = first.per_worker[0];
  EXPECT_EQ(w0.puts, kMessagesPerWorker);
  EXPECT_EQ(w0.deletes, kMessagesPerWorker);
  EXPECT_GT(first.events_executed, 10'000u);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  const RunResult a = run_scenario(1);
  const RunResult b = run_scenario(2);
  // Think times differ, so the virtual end time should differ too.
  EXPECT_NE(a.final_time, b.final_time);
}

// ------------------------------------------------- chaos determinism ----

// The same invariant must hold with fault injection armed: drops, dups,
// latency spikes and server crashes are all seeded draws, so two runs with
// the same fault seed must replay the exact same fault log and end bit-
// identical — events executed, final time, per-worker counts, and the
// fault records themselves.

struct ChaosRunResult {
  std::uint64_t events_executed = 0;
  sim::TimePoint final_time = 0;
  std::vector<OpCounts> per_worker;
  std::vector<faults::FaultRecord> fault_log;
  bool operator==(const ChaosRunResult&) const = default;
};

// A chaos worker drives its own queue through the fault-tolerant retry
// policy; injected timeouts/resets are absorbed (and counted) by the
// policy, so the only observable effect is timing.
Task<> chaos_worker(TestWorld& t, int id, OpCounts& ops, sim::WaitGroup& wg) {
  constexpr int kOps = 6;
  azure::RetryPolicy retry;
  retry.backoff = sim::millis(250);
  retry.max_backoff = sim::seconds(2);
  retry.jitter_seed = static_cast<std::uint64_t>(id);
  auto q = t.account.create_cloud_queue_client().get_queue_reference(
      "chaos-q-" + std::to_string(id));
  co_await azure::with_retry(
      t.sim, [&] { return q.create_if_not_exists(); }, retry, &ops.retries);
  for (int k = 0; k < kOps; ++k) {
    co_await azure::with_retry(t.sim, [&] {
      return q.add_message(azure::Payload::bytes("c-" + std::to_string(k)));
    }, retry, &ops.retries);
    ++ops.puts;
  }
  while (ops.deletes < kOps) {
    std::optional<azure::QueueMessage> msg =
        co_await azure::with_retry(
            t.sim, [&] { return q.get_message(); }, retry, &ops.retries);
    ++ops.gets;
    if (msg) {
      co_await azure::with_retry(
          t.sim, [&] { return q.delete_message(*msg); }, retry, &ops.retries);
      ++ops.deletes;
    } else {
      co_await t.sim.delay(sim::millis(100));
    }
  }
  wg.done();
}

ChaosRunResult run_chaos_scenario(std::uint64_t fault_seed,
                                  double corruption = 0.0) {
  azure::CloudConfig cfg;
  cfg.faults.seed = fault_seed;
  cfg.faults.corruption_probability = corruption;
  cfg.faults.drop_probability = 0.01;
  cfg.faults.duplicate_probability = 0.01;
  cfg.faults.latency_spike_probability = 0.02;
  cfg.faults.drop_timeout = sim::millis(300);
  cfg.faults.server_crashes = 4;
  cfg.faults.crash_mean_interval = sim::seconds(5);
  cfg.faults.server_downtime = sim::seconds(1);
  TestWorld w(cfg);
  ChaosRunResult r;
  r.per_worker.resize(kWorkers);
  sim::WaitGroup wg(w.sim);
  for (int i = 0; i < kWorkers; ++i) {
    wg.add();
    w.sim.spawn(
        chaos_worker(w, i, r.per_worker[static_cast<size_t>(i)], wg));
  }
  w.sim.run();
  r.events_executed = w.sim.events_executed();
  r.final_time = w.sim.now();
  r.fault_log = w.env.fault_plan().log();
  return r;
}

TEST(DeterminismTest, Chaos96WorkerRunIsBitIdentical) {
  const ChaosRunResult first = run_chaos_scenario(7);
  const ChaosRunResult second = run_chaos_scenario(7);

  EXPECT_EQ(first.events_executed, second.events_executed);
  EXPECT_EQ(first.final_time, second.final_time);
  ASSERT_EQ(first.per_worker.size(), second.per_worker.size());
  for (int i = 0; i < kWorkers; ++i) {
    EXPECT_EQ(first.per_worker[static_cast<size_t>(i)],
              second.per_worker[static_cast<size_t>(i)])
        << "worker " << i << " diverged between identical chaos runs";
  }
  EXPECT_EQ(first.fault_log, second.fault_log);

  // Sanity: faults actually fired, work actually completed.
  EXPECT_FALSE(first.fault_log.empty());
  EXPECT_EQ(
      std::count_if(first.fault_log.begin(), first.fault_log.end(),
                    [](const faults::FaultRecord& f) {
                      return f.kind == faults::FaultKind::kServerCrash;
                    }),
      4);
  for (const OpCounts& ops : first.per_worker) {
    EXPECT_EQ(ops.puts, 6);
    EXPECT_EQ(ops.deletes, 6);
  }
}

TEST(DeterminismTest, DifferentFaultSeedsInjectDifferentFaults) {
  const ChaosRunResult a = run_chaos_scenario(7);
  const ChaosRunResult b = run_chaos_scenario(8);
  EXPECT_NE(a.fault_log, b.fault_log);
}

// With bit-flip corruption armed on top of crashes, the full integrity
// machinery participates in the replay contract: checksum rejections,
// read-repairs, torn writes, and the post-restart scrubbers all derive
// from seeded draws, so the fault log — injections AND detections AND
// repairs — must replay byte-identically.
TEST(DeterminismTest, IntegrityChaos96WorkerRunIsBitIdentical) {
  const ChaosRunResult first = run_chaos_scenario(11, /*corruption=*/0.02);
  const ChaosRunResult second = run_chaos_scenario(11, /*corruption=*/0.02);

  EXPECT_EQ(first.events_executed, second.events_executed);
  EXPECT_EQ(first.final_time, second.final_time);
  ASSERT_EQ(first.per_worker.size(), second.per_worker.size());
  for (int i = 0; i < kWorkers; ++i) {
    EXPECT_EQ(first.per_worker[static_cast<size_t>(i)],
              second.per_worker[static_cast<size_t>(i)])
        << "worker " << i << " diverged between identical integrity runs";
  }
  EXPECT_EQ(first.fault_log, second.fault_log);

  // The integrity layer was actually exercised, not just idle.
  const auto count = [&](faults::FaultKind k) {
    return std::count_if(
        first.fault_log.begin(), first.fault_log.end(),
        [k](const faults::FaultRecord& f) { return f.kind == k; });
  };
  EXPECT_GT(count(faults::FaultKind::kBitFlip), 0);
  EXPECT_EQ(count(faults::FaultKind::kServerCrash), 4);
  for (const OpCounts& ops : first.per_worker) {
    EXPECT_EQ(ops.puts, 6);
    EXPECT_EQ(ops.deletes, 6);
  }
}

}  // namespace
