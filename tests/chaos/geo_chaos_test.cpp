// Geo chaos (ctest -L "chaos|geo"): a region outage landing inside a
// flash-crowd open-loop window, with geo-link drops and stamp-level server
// crashes armed on the same seeded FaultPlan. Claims:
//
//   - the load engine's ledgers still close (offered == admitted + shed,
//     admitted == completed + dead_lettered) while the primary region dies,
//     a secondary is promoted, and the original primary fails back;
//   - clients ride the RegionMovedError redirect protocol through both geo
//     map bumps (failover + failback) via the standard retry policy;
//   - the entire run — fault log, metrics JSON, final virtual time, load
//     stats, RPO/RTO counters — replays byte-identically under the same
//     seed (run twice and compared field by field).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "azure/common/retry.hpp"
#include "cluster/geo_replication.hpp"
#include "faults/fault_plan.hpp"
#include "framework/arrivals.hpp"
#include "framework/load_engine.hpp"
#include "netsim/nic.hpp"
#include "obs/observer.hpp"
#include "simcore/simulation.hpp"
#include "simcore/time.hpp"

namespace {

using cluster::GeoCluster;
using cluster::GeoConfig;
using cluster::GeoRegionConfig;
using cluster::ReadConsistency;
using cluster::RequestCost;
using framework::ArrivalConfig;
using framework::LoadEngine;
using framework::LoadEngineConfig;
using framework::LoadStats;
using sim::Simulation;
using sim::Task;

netsim::NicConfig client_nic() {
  return netsim::NicConfig{100e6, 100e6, sim::micros(50), 64 * 1024.0};
}

/// Two small stamps, shipping well under the staleness target.
GeoConfig drill_geo() {
  GeoConfig g;
  cluster::ClusterConfig stamp;
  stamp.partition_servers = 4;
  stamp.balancer.buckets_per_server = 2;
  g.regions.push_back(GeoRegionConfig{"east", stamp});
  g.regions.push_back(GeoRegionConfig{"west", stamp});
  g.ship_interval = sim::millis(10);
  g.staleness_target = sim::millis(100);
  return g;
}

/// The hostile plan: one region outage (pinned to the home region, so the
/// failover + failback pair always executes), geo-link drops, and two
/// stamp-level server crash cycles — all drawn from disjoint forked streams
/// of one seed.
faults::FaultConfig hostile_geo(std::uint64_t seed) {
  faults::FaultConfig f;
  f.seed = seed;
  f.region_outages = 1;
  f.region_outage_mean_interval = sim::millis(600);
  f.region_downtime = sim::millis(700);
  f.region_outage_victim = 0;
  f.geo_drop_probability = 0.08;
  f.server_crashes = 2;
  f.crash_mean_interval = sim::seconds(1);
  f.server_downtime = sim::millis(800);
  return f;
}

/// 1 write + 1 eventual read per session, under the standard retry policy
/// (region redirects and resets absorbed, budget bounded). A session that
/// exhausts its budget rethrows and is dead-lettered — counted, not lost.
sim::Task<void> geo_session(Simulation& s, GeoCluster& geo,
                            LoadEngine::Session& session) {
  azure::RetryPolicy retry;
  retry.backoff = sim::millis(30);
  retry.max_backoff = sim::millis(200);
  retry.max_attempts = 8;
  retry.jitter_seed = static_cast<std::uint64_t>(session.id);
  netsim::Nic nic(s, client_nic());
  const int home = static_cast<int>(session.id % 2);
  const std::uint64_t hash = static_cast<std::uint64_t>(session.id) * 7 + 3;
  RequestCost wcost;
  wcost.disk_bytes = 2048;
  wcost.replicate = true;
  co_await azure::with_retry(
      s, [&] { return geo.write(nic, home, hash, wcost); }, retry);
  co_await azure::with_retry(
      s,
      [&] {
        return geo.read(nic, home, hash, RequestCost{},
                        ReadConsistency::kEventual);
      },
      retry);
}

struct GeoChaosRun {
  LoadStats stats;
  std::vector<faults::FaultRecord> fault_log;
  std::string metrics_json;
  sim::TimePoint final_time = 0;
  std::int64_t failovers = 0;
  std::int64_t failbacks = 0;
  std::int64_t rpo_lost_writes = 0;
  sim::Duration last_rto = 0;
  std::int64_t redirects = 0;
  std::int64_t redeliveries = 0;
};

GeoChaosRun run_geo_chaos(std::uint64_t fault_seed) {
  Simulation s;
  obs::Observer o;
  s.set_observer(&o);
  GeoCluster geo(s, drill_geo());
  faults::FaultPlan plan(s, hostile_geo(fault_seed));
  geo.enable_faults(plan);

  // A quiet base with a 1.5 s crowd starting at t = 0.5 s — the pinned
  // region outage (mean 600 ms) lands in or around the crowd window, so the
  // failover redirect storm hits the open-loop generator at full rate.
  ArrivalConfig a;
  a.kind = ArrivalConfig::Kind::kFlashCrowd;
  a.rate_per_sec = 0.0;
  a.spike_at = sim::millis(500);
  a.spike_duration = sim::millis(1500);
  a.spike_rate_per_sec = 250.0;
  a.seed = 0x6E0F1A5;
  LoadEngineConfig cfg;
  cfg.arrivals = a;
  cfg.max_in_flight = 48;
  cfg.max_pending = 96;
  cfg.max_sessions = 10'000;  // never reached: the crowd's end stops it
  LoadEngine engine(s, cfg, [&s, &geo](LoadEngine::Session& session) {
    return geo_session(s, geo, session);
  });
  engine.start();
  s.run();

  GeoChaosRun r;
  r.stats = engine.stats();
  r.fault_log = plan.log();
  r.metrics_json = o.to_json();
  r.final_time = s.now();
  r.failovers = geo.region_failovers();
  r.failbacks = geo.region_failbacks();
  r.rpo_lost_writes = geo.rpo_lost_writes();
  r.last_rto = geo.last_rto();
  r.redirects = geo.stale_geo_redirects();
  r.redeliveries = geo.redeliveries();
  return r;
}

std::int64_t count_kind(const std::vector<faults::FaultRecord>& log,
                        faults::FaultKind kind) {
  std::int64_t n = 0;
  for (const faults::FaultRecord& rec : log) n += (rec.kind == kind) ? 1 : 0;
  return n;
}

TEST(GeoChaosTest, AccountingClosesAcrossRegionFailoverAndFailback) {
  const GeoChaosRun r = run_geo_chaos(0xFA11);
  const LoadStats& st = r.stats;
  EXPECT_GT(st.offered, 0);
  EXPECT_EQ(st.offered, st.admitted + st.shed);
  EXPECT_EQ(st.admitted, st.completed + st.dead_lettered);
  EXPECT_EQ(st.slot_acquires, st.slot_releases);
  EXPECT_GT(st.completed, 0);
  // The drill really ran: the pinned victim is the home region, so the
  // outage always forces a promotion, and the restore a failback.
  EXPECT_GE(r.failovers, 1);
  EXPECT_GE(r.failbacks, 1);
  EXPECT_GE(count_kind(r.fault_log, faults::FaultKind::kRegionOutage), 1);
  EXPECT_GE(count_kind(r.fault_log, faults::FaultKind::kRegionRestore), 1);
  EXPECT_FALSE(r.fault_log.empty());
}

TEST(GeoChaosTest, SameSeedReplaysByteIdenticalFaultLogAndMetrics) {
  const GeoChaosRun r1 = run_geo_chaos(0x5EED6E0);
  const GeoChaosRun r2 = run_geo_chaos(0x5EED6E0);
  EXPECT_EQ(r1.stats, r2.stats);
  EXPECT_EQ(r1.fault_log, r2.fault_log);
  EXPECT_EQ(r1.metrics_json, r2.metrics_json);
  EXPECT_EQ(r1.final_time, r2.final_time);
  EXPECT_EQ(r1.failovers, r2.failovers);
  EXPECT_EQ(r1.failbacks, r2.failbacks);
  EXPECT_EQ(r1.rpo_lost_writes, r2.rpo_lost_writes);
  EXPECT_EQ(r1.last_rto, r2.last_rto);
  EXPECT_EQ(r1.redirects, r2.redirects);
  EXPECT_EQ(r1.redeliveries, r2.redeliveries);
}

TEST(GeoChaosTest, DistinctFaultSeedsDiverge) {
  const GeoChaosRun r1 = run_geo_chaos(21);
  const GeoChaosRun r2 = run_geo_chaos(22);
  EXPECT_NE(r1.fault_log, r2.fault_log);
}

}  // namespace
