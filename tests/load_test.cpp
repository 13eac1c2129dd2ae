// Load suite (`ctest -L load`): statistical contracts of the arrival
// processes and behavioural contracts of the open-loop load engine.
//
// The arrival tests are deterministic *statistical* tests: fixed seeds, so
// the sampled statistics are reproducible numbers, asserted against analytic
// bounds wide enough to hold for any healthy sampler (an implementation bug
// — wrong distribution, double-consumed draws, drifted clock arithmetic —
// lands far outside them). The engine tests pin the admission-window /
// backlog / shed state machine, session-pool lifecycle, overload accounting,
// and byte-identical replay.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/storage_cluster.hpp"
#include "framework/arrivals.hpp"
#include "framework/load_engine.hpp"
#include "netsim/nic.hpp"
#include "obs/observer.hpp"
#include "simcore/simulation.hpp"
#include "simcore/task.hpp"
#include "simcore/time.hpp"

namespace {

using framework::ArrivalConfig;
using framework::ArrivalProcess;
using framework::LoadEngine;
using framework::LoadEngineConfig;
using framework::LoadStats;

// ===================================================== arrival processes ==

TEST(Arrivals, PoissonInterArrivalMeanAndVarianceMatchAnalytic) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalConfig::Kind::kPoisson;
  cfg.rate_per_sec = 1000.0;  // mean gap 1 ms
  cfg.seed = 7;
  ArrivalProcess proc(cfg);
  const std::vector<sim::TimePoint> at = proc.take(50'000);
  ASSERT_EQ(at.size(), 50'000u);

  double sum = 0;
  std::vector<double> gaps;
  gaps.reserve(at.size());
  sim::TimePoint prev = 0;
  for (const sim::TimePoint t : at) {
    ASSERT_GT(t, prev);  // strictly monotone: integer clock never stalls
    gaps.push_back(static_cast<double>(t - prev));
    sum += gaps.back();
    prev = t;
  }
  const double mean = sum / static_cast<double>(gaps.size());
  double var = 0;
  for (const double g : gaps) var += (g - mean) * (g - mean);
  var /= static_cast<double>(gaps.size() - 1);

  // Exponential(1ms): mean 1e6 ns, variance mean^2. With n = 50k, the
  // sample mean has relative sigma ~1/sqrt(n) ~ 0.45% and the sample
  // variance ~ sqrt(8/n) ~ 1.3%; 3% / 10% bounds are > 5 sigma.
  const double expected_gap_ns = 1e6;
  EXPECT_NEAR(mean, expected_gap_ns, 0.03 * expected_gap_ns);
  EXPECT_NEAR(var, expected_gap_ns * expected_gap_ns,
              0.10 * expected_gap_ns * expected_gap_ns);
}

TEST(Arrivals, SameSeedIsByteIdenticalAcrossReplays) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalConfig::Kind::kPoisson;
  cfg.rate_per_sec = 5000.0;
  cfg.seed = 0xA11CE;
  const std::vector<sim::TimePoint> a = ArrivalProcess(cfg).take(5'000);
  const std::vector<sim::TimePoint> b = ArrivalProcess(cfg).take(5'000);
  const std::vector<sim::TimePoint> c = ArrivalProcess(cfg).take(5'000);
  EXPECT_EQ(a, b);  // replay #1
  EXPECT_EQ(a, c);  // replay #2 — not a lucky pairing
}

TEST(Arrivals, DistinctSeedsDiverge) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalConfig::Kind::kPoisson;
  cfg.rate_per_sec = 5000.0;
  cfg.seed = 1;
  const std::vector<sim::TimePoint> a = ArrivalProcess(cfg).take(100);
  cfg.seed = 2;
  const std::vector<sim::TimePoint> b = ArrivalProcess(cfg).take(100);
  EXPECT_NE(a, b);
}

TEST(Arrivals, DiurnalRateIntegratesToConfiguredVolume) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalConfig::Kind::kDiurnal;
  cfg.period = 1000 * sim::kSecond;  // a compressed "day"
  cfg.period_volume = 50'000.0;
  cfg.amplitude = 0.7;
  cfg.peak_at = 250 * sim::kSecond;
  cfg.seed = 11;
  ArrivalProcess proc(cfg);

  // Analytic: the cosine term integrates to zero over a full period, so the
  // numeric integral of rate_at over [0, period) must equal the volume.
  const int steps = 200'000;
  const double dt = sim::to_seconds(cfg.period) / steps;
  double integral = 0;
  for (int i = 0; i < steps; ++i) {
    integral +=
        proc.rate_at(static_cast<sim::TimePoint>((i + 0.5) / steps *
                                                 static_cast<double>(
                                                     cfg.period))) *
        dt;
  }
  EXPECT_NEAR(integral, cfg.period_volume, 1e-4 * cfg.period_volume);

  // Empirical: arrivals inside one period ~ Poisson(volume); 4 sigma band.
  std::size_t in_first_period = 0;
  sim::TimePoint t = 0;
  for (;;) {
    t = proc.next(t);
    ASSERT_NE(t, ArrivalProcess::kNever);
    if (t >= cfg.period) break;
    ++in_first_period;
  }
  const double sigma = std::sqrt(cfg.period_volume);
  EXPECT_NEAR(static_cast<double>(in_first_period), cfg.period_volume,
              4.0 * sigma);
}

TEST(Arrivals, DiurnalRateStaysInsideAmplitudeEnvelope) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalConfig::Kind::kDiurnal;
  cfg.period = 100 * sim::kSecond;
  cfg.period_volume = 10'000.0;
  cfg.amplitude = 0.5;
  cfg.peak_at = 30 * sim::kSecond;
  ArrivalProcess proc(cfg);
  const double mean = proc.mean_rate();
  EXPECT_DOUBLE_EQ(mean, 100.0);
  for (int i = 0; i <= 1000; ++i) {
    const auto t = static_cast<sim::TimePoint>(
        static_cast<double>(3 * cfg.period) * i / 1000.0);
    const double r = proc.rate_at(t);
    EXPECT_GE(r, mean * (1.0 - cfg.amplitude) - 1e-9);
    EXPECT_LE(r, mean * (1.0 + cfg.amplitude) + 1e-9);
  }
  // The peak lands at peak_at (and one period later).
  EXPECT_NEAR(proc.rate_at(cfg.peak_at), mean * 1.5, 1e-9);
  EXPECT_NEAR(proc.rate_at(cfg.peak_at + cfg.period), mean * 1.5, 1e-9);
  EXPECT_DOUBLE_EQ(proc.peak_rate(), mean * 1.5);
}

TEST(Arrivals, FlashCrowdStepLandsAtExactTick) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalConfig::Kind::kFlashCrowd;
  cfg.rate_per_sec = 10.0;
  cfg.spike_at = 5 * sim::kSecond;
  cfg.spike_duration = 2 * sim::kSecond;
  cfg.spike_rate_per_sec = 5000.0;
  ArrivalProcess proc(cfg);
  EXPECT_DOUBLE_EQ(proc.rate_at(cfg.spike_at - 1), 10.0);
  EXPECT_DOUBLE_EQ(proc.rate_at(cfg.spike_at), 5010.0);
  EXPECT_DOUBLE_EQ(proc.rate_at(cfg.spike_at + cfg.spike_duration - 1),
                   5010.0);
  EXPECT_DOUBLE_EQ(proc.rate_at(cfg.spike_at + cfg.spike_duration), 10.0);
  EXPECT_DOUBLE_EQ(proc.peak_rate(), 5010.0);
}

TEST(Arrivals, FlashCrowdWithQuietBaseArrivesOnlyInsideSpikeWindow) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalConfig::Kind::kFlashCrowd;
  cfg.rate_per_sec = 0.0;  // silent except for the crowd
  cfg.spike_at = 10 * sim::kSecond;
  cfg.spike_duration = sim::kSecond;
  cfg.spike_rate_per_sec = 2000.0;
  cfg.seed = 21;
  ArrivalProcess proc(cfg);
  const std::vector<sim::TimePoint> at = proc.take(100'000);
  ASSERT_FALSE(at.empty());
  EXPECT_GE(at.front(), cfg.spike_at);
  EXPECT_LT(at.back(), cfg.spike_at + cfg.spike_duration);
  // ~Poisson(2000) arrivals inside the window; 4 sigma band.
  EXPECT_NEAR(static_cast<double>(at.size()), 2000.0,
              4.0 * std::sqrt(2000.0));
  // Past the window the process is exhausted — kNever, not a spin.
  EXPECT_EQ(proc.next(cfg.spike_at + cfg.spike_duration),
            ArrivalProcess::kNever);
}

TEST(Arrivals, ZeroRateProcessReportsNever) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalConfig::Kind::kFlashCrowd;
  cfg.rate_per_sec = 0.0;
  cfg.spike_rate_per_sec = 0.0;
  EXPECT_EQ(ArrivalProcess(cfg).next(0), ArrivalProcess::kNever);
  EXPECT_TRUE(ArrivalProcess(cfg).take(10).empty());
}

// ========================================================== load engine ==

/// Engine driven by its own Poisson generator; every session just sleeps a
/// per-id random service time. Returns (stats, observer JSON).
struct EngineRun {
  LoadStats stats;
  std::string obs_json;
};

EngineRun run_sleepy_engine(std::int64_t sessions, int window, int pending,
                            double rate, std::uint64_t seed) {
  sim::Simulation s;
  obs::Observer observer;
  s.set_observer(&observer);
  LoadEngineConfig cfg;
  cfg.arrivals.rate_per_sec = rate;
  cfg.arrivals.seed = seed;
  cfg.max_sessions = sessions;
  cfg.max_in_flight = window;
  cfg.max_pending = pending;
  cfg.session_seed = seed ^ 0x5EEDull;
  LoadEngine engine(s, cfg, [&s](LoadEngine::Session& sess) {
    return [](sim::Simulation& sim, LoadEngine::Session& se)
               -> sim::Task<void> {
      co_await sim.delay(sim::micros(se.rng.uniform(100, 900)));
    }(s, sess);
  });
  engine.start();
  s.run();
  EXPECT_EQ(engine.in_flight(), 0);
  EXPECT_EQ(engine.pending(), 0);
  return EngineRun{engine.stats(), observer.to_json()};
}

TEST(LoadEngine, ReplayIsByteIdenticalIncludingObservability) {
  const EngineRun a = run_sleepy_engine(2'000, 16, 64, 5000.0, 0xD0D0);
  const EngineRun b = run_sleepy_engine(2'000, 16, 64, 5000.0, 0xD0D0);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.obs_json, b.obs_json);
  EXPECT_EQ(a.stats.offered, 2'000);
  EXPECT_EQ(a.stats.admitted, a.stats.completed);
}

TEST(LoadEngine, DistinctSeedsProduceDifferentSchedules) {
  const EngineRun a = run_sleepy_engine(500, 4, 16, 5000.0, 1);
  const EngineRun b = run_sleepy_engine(500, 4, 16, 5000.0, 2);
  EXPECT_NE(a.obs_json, b.obs_json);
}

TEST(LoadEngine, MaxSessionsCapsOfferedExactly) {
  const EngineRun r = run_sleepy_engine(1'234, 8, 1'234, 10'000.0, 3);
  EXPECT_EQ(r.stats.offered, 1'234);
  EXPECT_EQ(r.stats.admitted + r.stats.shed, 1'234);
}

TEST(LoadEngine, ZeroRateProcessOffersNothing) {
  sim::Simulation s;
  LoadEngineConfig cfg;
  cfg.arrivals.kind = ArrivalConfig::Kind::kFlashCrowd;
  cfg.arrivals.rate_per_sec = 0.0;
  cfg.arrivals.spike_rate_per_sec = 0.0;
  cfg.max_sessions = 100;
  LoadEngine engine(s, cfg, [&s](LoadEngine::Session&) {
    return [](sim::Simulation& sim) -> sim::Task<void> {
      co_await sim.delay(1);
    }(s);
  });
  engine.start();
  s.run();
  EXPECT_EQ(engine.stats().offered, 0);
  EXPECT_EQ(engine.stats().admitted, 0);
}

TEST(LoadEngine, RejectsInvalidConfig) {
  sim::Simulation s;
  auto body = [&s](LoadEngine::Session&) {
    return [](sim::Simulation& sim) -> sim::Task<void> {
      co_await sim.delay(1);
    }(s);
  };
  LoadEngineConfig ok;
  ok.max_sessions = 1;
  LoadEngineConfig bad_window = ok;
  bad_window.max_in_flight = 0;
  EXPECT_THROW(LoadEngine(s, bad_window, body), std::invalid_argument);
  LoadEngineConfig bad_pending = ok;
  bad_pending.max_pending = -1;
  EXPECT_THROW(LoadEngine(s, bad_pending, body), std::invalid_argument);
  LoadEngineConfig unbounded = ok;
  unbounded.max_sessions = 0;
  LoadEngine manual(s, unbounded, body);  // offer() alone needs no bound
  EXPECT_THROW(manual.start(), std::invalid_argument);
  EXPECT_THROW(LoadEngine(s, ok, nullptr), std::invalid_argument);
}

/// Manual-admission harness: no generator; a driver coroutine calls offer()
/// at chosen instants so boundary conditions land on exact counts.
struct ManualHarness {
  explicit ManualHarness(int window, int pending,
                         sim::Duration service = sim::millis(1))
      : service_time(service) {
    cfg.max_in_flight = window;
    cfg.max_pending = pending;
    engine = std::make_unique<LoadEngine>(
        s, cfg, [this](LoadEngine::Session& sess) { return body(sess); });
  }

  sim::Task<void> body(LoadEngine::Session& sess) {
    co_await s.delay(service_time);
    completion_order.push_back(sess.id);
  }

  sim::Simulation s;
  LoadEngineConfig cfg;
  sim::Duration service_time;
  std::unique_ptr<LoadEngine> engine;
  std::vector<std::int64_t> completion_order;
};

TEST(LoadEngine, AdmissionWindowExactlyFullBoundary) {
  ManualHarness h(4, 8);
  bool checked = false;
  h.s.spawn(
      [](ManualHarness& hh, bool& done) -> sim::Task<void> {
        for (int i = 0; i < 4; ++i) EXPECT_TRUE(hh.engine->offer());
        // Exactly full: every offer took a window slot, none queued.
        EXPECT_EQ(hh.engine->in_flight(), 4);
        EXPECT_EQ(hh.engine->pending(), 0);
        // One past the boundary queues instead of growing the window.
        EXPECT_TRUE(hh.engine->offer());
        EXPECT_EQ(hh.engine->in_flight(), 4);
        EXPECT_EQ(hh.engine->pending(), 1);
        done = true;
        co_return;
      }(h, checked));
  h.s.run();
  ASSERT_TRUE(checked);
  EXPECT_EQ(h.engine->stats().peak_in_flight, 4);
  EXPECT_EQ(h.engine->stats().peak_pending, 1);
  EXPECT_EQ(h.engine->stats().completed, 5);
  EXPECT_EQ(h.engine->stats().shed, 0);
}

TEST(LoadEngine, BacklogExactlyFullShedsTheNextArrival) {
  ManualHarness h(2, 3);
  h.s.spawn(
      [](ManualHarness& hh) -> sim::Task<void> {
        for (int i = 0; i < 5; ++i) EXPECT_TRUE(hh.engine->offer());
        EXPECT_EQ(hh.engine->pending(), 3);  // backlog exactly full
        EXPECT_FALSE(hh.engine->offer());    // window + backlog full -> shed
        EXPECT_EQ(hh.engine->pending(), 3);
        co_return;
      }(h));
  h.s.run();
  EXPECT_EQ(h.engine->stats().offered, 6);
  EXPECT_EQ(h.engine->stats().admitted, 5);
  EXPECT_EQ(h.engine->stats().shed, 1);
  EXPECT_EQ(h.engine->stats().completed, 5);
}

TEST(LoadEngine, BackfillIsFifoByArrivalOrder) {
  ManualHarness h(2, 16);
  h.s.spawn(
      [](ManualHarness& hh) -> sim::Task<void> {
        for (int i = 0; i < 10; ++i) EXPECT_TRUE(hh.engine->offer());
        co_return;
      }(h));
  h.s.run();
  const std::vector<std::int64_t> expect = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(h.completion_order, expect);
  EXPECT_EQ(h.engine->stats().peak_pending, 8);
}

TEST(LoadEngine, QueueWaitIsRecordedForEveryAdmission) {
  sim::Simulation s;
  obs::Observer observer;
  s.set_observer(&observer);
  LoadEngineConfig cfg;
  cfg.arrivals.rate_per_sec = 10'000.0;
  cfg.max_sessions = 200;
  cfg.max_in_flight = 2;  // force most arrivals through the backlog
  cfg.max_pending = 200;
  LoadEngine engine(s, cfg, [&s](LoadEngine::Session&) {
    return [](sim::Simulation& sim) -> sim::Task<void> {
      co_await sim.delay(sim::millis(1));
    }(s);
  });
  engine.start();
  s.run();
  const obs::LatencyHistogram& wait =
      observer.metrics().histogram("load.queue_wait");
  EXPECT_EQ(wait.count(), engine.stats().admitted);
  EXPECT_GT(wait.max(), 0);  // queued arrivals waited a measurable time
  const obs::LatencyHistogram& lat =
      observer.metrics().histogram("load.session_latency");
  EXPECT_EQ(lat.count(), engine.stats().completed);
}

TEST(LoadEngine, SlotPoolHighWaterStaysFlatAcrossTenThousandSessions) {
  const EngineRun r = run_sleepy_engine(10'000, 32, 128, 50'000.0, 0xF00D);
  EXPECT_EQ(r.stats.offered, 10'000);
  // The pool never grows past the admission window no matter how many
  // sessions run through it...
  EXPECT_LE(r.stats.slot_high_water, 32);
  EXPECT_EQ(r.stats.peak_in_flight, 32);
  // ...and every admitted session acquired and released exactly one record.
  EXPECT_EQ(r.stats.slot_acquires, r.stats.admitted);
  EXPECT_EQ(r.stats.slot_releases, r.stats.admitted);
}

/// RAII sentinel a session body plants on its coroutine frame: destroyed
/// exactly once whether the body finishes, throws, or is torn down.
struct LifeSentinel {
  explicit LifeSentinel(std::int64_t* d) : destroyed(d) {}
  LifeSentinel(const LifeSentinel&) = delete;
  LifeSentinel& operator=(const LifeSentinel&) = delete;
  ~LifeSentinel() { ++*destroyed; }
  std::int64_t* destroyed;
};

TEST(LoadEngine, SessionsDestroyedExactlyOnceOnSuccessAndExceptionPaths) {
  sim::Simulation s;
  std::int64_t constructed = 0;
  std::int64_t destroyed = 0;
  LoadEngineConfig cfg;
  cfg.arrivals.rate_per_sec = 20'000.0;
  cfg.arrivals.seed = 99;
  cfg.max_sessions = 1'000;
  cfg.max_in_flight = 8;
  cfg.max_pending = 1'000;
  LoadEngine engine(s, cfg, [&](LoadEngine::Session& sess) {
    return [](sim::Simulation& sim, LoadEngine::Session& se,
              std::int64_t& ctor, std::int64_t& dtor) -> sim::Task<void> {
      ++ctor;
      LifeSentinel sentinel(&dtor);
      co_await sim.delay(sim::micros(se.rng.uniform(10, 100)));
      // Deterministic failure mix: every third session dead-letters.
      if (se.id % 3 == 2) throw std::runtime_error("session failed");
      co_await sim.delay(sim::micros(10));
    }(s, sess, constructed, destroyed);
  });
  engine.start();
  s.run();
  const LoadStats& st = engine.stats();
  EXPECT_EQ(constructed, st.admitted);
  EXPECT_EQ(destroyed, constructed);  // exactly once, success or unwind
  EXPECT_EQ(st.admitted, 1'000);
  EXPECT_EQ(st.dead_lettered, 333);  // ids 2, 5, ..., 998
  EXPECT_EQ(st.completed, 667);
  EXPECT_EQ(st.slot_acquires, st.slot_releases);
}

TEST(LoadEngine, ThrottleOverloadBecomesMeasurableServerBusyFailures) {
  sim::Simulation s;
  cluster::ClusterConfig cc;
  cc.account_transactions_per_sec = 50;  // tiny target: overload instantly
  cluster::StorageCluster cl(s, cc);
  netsim::Nic nic(s, netsim::NicConfig{100e6, 100e6, sim::micros(50),
                                       64 * 1024.0});
  LoadEngineConfig cfg;
  cfg.arrivals.rate_per_sec = 2'000.0;
  cfg.arrivals.seed = 4;
  cfg.max_sessions = 500;
  cfg.max_in_flight = 64;
  cfg.max_pending = 500;
  LoadEngine engine(s, cfg, [&](LoadEngine::Session& sess) {
    return [](sim::Simulation&, cluster::StorageCluster& c, netsim::Nic& n,
              LoadEngine::Session& se) -> sim::Task<void> {
      cluster::RequestCost cost;
      cost.server_cpu = sim::micros(500);
      co_await c.execute(n, se.rng.next_u64(), cost);
    }(s, cl, nic, sess);
  });
  engine.start();
  s.run();
  const LoadStats& st = engine.stats();
  // Overload shows up as ServerBusy dead-letters, never as an unbounded
  // in-flight population.
  EXPECT_GT(st.throttle_failures, 0);
  EXPECT_EQ(st.throttle_failures, st.dead_lettered);
  EXPECT_LE(st.peak_in_flight, 64);
  EXPECT_GT(st.completed, 0);
}

TEST(LoadEngine, AccountingInvariantsHoldUnderOverloadAndShedding) {
  // Window 2, backlog 4, service 1 ms, arrivals at 10k/s: most arrivals
  // shed, everything still adds up.
  const EngineRun r = run_sleepy_engine(5'000, 2, 4, 10'000.0, 0xACC7);
  const LoadStats& st = r.stats;
  EXPECT_EQ(st.offered, 5'000);
  EXPECT_GT(st.shed, 0);
  EXPECT_EQ(st.offered, st.admitted + st.shed);
  EXPECT_EQ(st.admitted, st.completed + st.dead_lettered);
  EXPECT_EQ(st.slot_acquires, st.admitted);
  EXPECT_EQ(st.slot_releases, st.admitted);
  EXPECT_LE(st.peak_in_flight, 2);
  EXPECT_LE(st.peak_pending, 4);
}

TEST(LoadEngine, SessionRngIsAPureFunctionOfSessionId) {
  // Two engines with different windows admit the same ids in a different
  // interleaving; each id must still draw the same private stream.
  auto first_draws = [](int window) {
    sim::Simulation s;
    LoadEngineConfig cfg;
    cfg.arrivals.rate_per_sec = 10'000.0;
    cfg.arrivals.seed = 8;
    cfg.max_sessions = 64;
    cfg.max_in_flight = window;
    cfg.max_pending = 64;
    cfg.session_seed = 0xAB;
    std::vector<std::uint64_t> draws(64, 0);
    LoadEngine engine(s, cfg, [&](LoadEngine::Session& sess) {
      return [](sim::Simulation& sim, LoadEngine::Session& se,
                std::vector<std::uint64_t>& out) -> sim::Task<void> {
        out[static_cast<std::size_t>(se.id)] = se.rng.next_u64();
        co_await sim.delay(sim::millis(1));
      }(s, sess, draws);
    });
    engine.start();
    s.run();
    return draws;
  };
  EXPECT_EQ(first_draws(1), first_draws(64));
}

}  // namespace
