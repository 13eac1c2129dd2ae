// Chaos × open-loop load (ctest -L chaos): the load engine's accounting
// under an armed fault plan. The closed-loop chaos scenarios (chaos_test.cpp)
// assert at-least-once delivery; here the claim is different — when message
// drops, latency spikes, and server crash/restart cycles land mid-session,
// every arrival is still accounted for exactly once:
//
//   offered  == admitted + shed           (admission ledger closes)
//   admitted == completed + dead_lettered (outcome ledger closes)
//
// and the whole run — fault log included — replays byte-identically under
// the same seed, because arrivals, per-session retries, and injected faults
// all draw from disjoint deterministic streams.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "azure_test_util.hpp"
#include "azure/common/retry.hpp"
#include "framework/arrivals.hpp"
#include "framework/load_engine.hpp"
#include "simcore/time.hpp"

namespace {

using azb_test::TestWorld;
using framework::ArrivalConfig;
using framework::LoadEngine;
using framework::LoadEngineConfig;
using framework::LoadStats;

/// A hostile cloud: ~7% of transfers faulted plus three server crash/restart
/// cycles spread across the arrival window.
azure::CloudConfig hostile_cloud(std::uint64_t seed) {
  azure::CloudConfig cfg;
  cfg.faults.seed = seed;
  cfg.faults.drop_probability = 0.04;
  cfg.faults.duplicate_probability = 0.01;
  cfg.faults.latency_spike_probability = 0.02;
  cfg.faults.drop_timeout = sim::millis(300);
  cfg.faults.server_crashes = 3;
  cfg.faults.crash_mean_interval = sim::seconds(2);
  cfg.faults.server_downtime = sim::seconds(2);
  return cfg;
}

/// Tight per-session retry budget: two attempts, fast backoff. Sessions
/// caught inside a 2 s crash window exhaust it and dead-letter — which is
/// the point: dead-letters must be *counted*, not lost.
azure::RetryPolicy session_retry(std::int64_t id) {
  azure::RetryPolicy p;
  p.backoff = sim::millis(100);
  p.max_backoff = sim::millis(500);
  p.max_attempts = 2;
  p.jitter_seed = static_cast<std::uint64_t>(id);
  return p;
}

sim::Task<void> chaos_session(TestWorld& t, LoadEngine::Session& s) {
  const azure::RetryPolicy retry = session_retry(s.id);
  auto q = t.account.create_cloud_queue_client().get_queue_reference(
      "chaos-inbox");
  co_await azure::with_retry(
      t.sim, [&] { return q.create_if_not_exists(); }, retry);
  co_await azure::with_retry(
      t.sim,
      [&] { return q.add_message(azure::Payload::synthetic(4 * 1024)); },
      retry);
  co_await t.sim.delay(sim::micros(s.rng.uniform(50, 500)));
}

struct ChaosLoadRun {
  LoadStats stats;
  std::vector<faults::FaultRecord> fault_log;
  sim::TimePoint final_time = 0;
};

ChaosLoadRun run_chaos_load(std::uint64_t fault_seed, ArrivalConfig arrivals,
                            std::int64_t max_sessions, int window = 16,
                            int pending = 64) {
  TestWorld t(hostile_cloud(fault_seed));
  LoadEngineConfig cfg;
  cfg.arrivals = arrivals;
  cfg.max_sessions = max_sessions;
  cfg.max_in_flight = window;
  cfg.max_pending = pending;
  LoadEngine engine(t.sim, cfg, [&t](LoadEngine::Session& s) {
    return chaos_session(t, s);
  });
  engine.start();
  t.sim.run();
  ChaosLoadRun r;
  r.stats = engine.stats();
  r.fault_log = t.env.fault_plan().log();
  r.final_time = t.sim.now();
  return r;
}

/// 600 Poisson arrivals at 100/s — a 6 s window spanning all three injected
/// crash cycles.
ArrivalConfig poisson_over_crashes() {
  ArrivalConfig a;
  a.kind = ArrivalConfig::Kind::kPoisson;
  a.rate_per_sec = 100.0;
  a.seed = 0xC1A05;
  return a;
}

constexpr std::int64_t kSessions = 600;

TEST(ChaosLoad, AccountingClosesUnderArmedFaultPlan) {
  const ChaosLoadRun r =
      run_chaos_load(0xFA11, poisson_over_crashes(), kSessions);
  const LoadStats& st = r.stats;
  EXPECT_EQ(st.offered, kSessions);
  EXPECT_EQ(st.offered, st.admitted + st.shed);
  EXPECT_EQ(st.admitted, st.completed + st.dead_lettered);
  EXPECT_EQ(st.slot_acquires, st.slot_releases);
  EXPECT_EQ(st.slot_acquires, st.admitted);
  // The plan really fired — this is a chaos run, not a sunny-day rerun.
  EXPECT_FALSE(r.fault_log.empty());
  // Crash windows outlast the 2-attempt budget: some sessions dead-letter,
  // and they are counted rather than lost.
  EXPECT_GT(st.dead_lettered, 0);
  EXPECT_GT(st.completed, 0);
}

TEST(ChaosLoad, SameSeedReplaysByteIdenticalIncludingFaultLog) {
  const ChaosLoadRun r1 =
      run_chaos_load(0x5EED, poisson_over_crashes(), kSessions);
  const ChaosLoadRun r2 =
      run_chaos_load(0x5EED, poisson_over_crashes(), kSessions);
  const ChaosLoadRun r3 =
      run_chaos_load(0x5EED, poisson_over_crashes(), kSessions);
  EXPECT_EQ(r1.stats, r2.stats);
  EXPECT_EQ(r1.fault_log, r2.fault_log);
  EXPECT_EQ(r1.final_time, r2.final_time);
  EXPECT_EQ(r1.stats, r3.stats);  // replay #2 — not a lucky pairing
  EXPECT_EQ(r1.fault_log, r3.fault_log);
  EXPECT_EQ(r1.final_time, r3.final_time);
}

TEST(ChaosLoad, DistinctFaultSeedsDiverge) {
  const ChaosLoadRun r1 =
      run_chaos_load(1, poisson_over_crashes(), kSessions);
  const ChaosLoadRun r2 =
      run_chaos_load(2, poisson_over_crashes(), kSessions);
  EXPECT_NE(r1.fault_log, r2.fault_log);
}

TEST(ChaosLoad, FlashCrowdDuringCrashWindowStillBalances) {
  // A silent base with a 1 s crowd at t = 2 s — around the first injected
  // crash cycle, so the spike lands on a degraded cluster and a deliberately
  // tight window, which must shed rather than absorb it.
  ArrivalConfig a;
  a.kind = ArrivalConfig::Kind::kFlashCrowd;
  a.rate_per_sec = 0.0;
  a.spike_at = 2 * sim::kSecond;
  a.spike_duration = sim::kSecond;
  a.spike_rate_per_sec = 400.0;
  a.seed = 0xF1A5;
  // The crowd's end stops the generator; the session cap is never reached.
  const ChaosLoadRun r =
      run_chaos_load(0xBEEF, a, /*max_sessions=*/10'000, /*window=*/8,
                     /*pending=*/16);
  const LoadStats& st = r.stats;
  EXPECT_GT(st.offered, 0);
  EXPECT_GT(st.shed, 0);  // 400/s into a window of 8 cannot all fit
  EXPECT_EQ(st.offered, st.admitted + st.shed);
  EXPECT_EQ(st.admitted, st.completed + st.dead_lettered);
  EXPECT_GE(st.first_admission, a.spike_at);  // quiet base: crowd-only load
  EXPECT_LE(st.peak_in_flight, 8);
  EXPECT_LE(st.peak_pending, 16);
}

}  // namespace
