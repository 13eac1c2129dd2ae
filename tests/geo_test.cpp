// Geo-replication tests (ctest -L geo): the GeoCluster layer's contract.
//
//   - config validation (typed std::invalid_argument, not assert)
//   - asynchronous log shipping drains to zero lag, and the observed
//     staleness under paced load stays under the configured target
//   - read consistency routing: strong reads observe the primary, eventual
//     reads serve region-local and report their staleness
//   - the deterministic region-loss drill: RPO accounting (lost writes +
//     staleness-at-failover), the RegionMovedError redirect protocol, RTO
//     measurement, chain-CRC-verified failback with auto handback
//   - replica_store reconciliation across two stamps: divergence staged by
//     a failover (acknowledged-then-lost generations) plus a torn write on
//     the promoted secondary, all healed by the geo scrub after failback
//   - geo-link fault stream: dropped batches are redelivered, and the whole
//     plan-driven drill replays byte-identically under a fixed seed
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/errors.hpp"
#include "cluster/geo_replication.hpp"
#include "cluster/replica_store.hpp"
#include "cluster/storage_cluster.hpp"
#include "faults/fault_plan.hpp"
#include "netsim/geo_link.hpp"
#include "netsim/nic.hpp"
#include "obs/observer.hpp"
#include "simcore/simulation.hpp"
#include "simcore/time.hpp"

namespace {

using cluster::ClusterConfig;
using cluster::GeoCluster;
using cluster::GeoConfig;
using cluster::GeoReadResult;
using cluster::GeoRegionConfig;
using cluster::ReadConsistency;
using cluster::RequestCost;
using sim::Simulation;
using sim::Task;

netsim::NicConfig client_nic() {
  return netsim::NicConfig{100e6, 100e6, sim::micros(50), 64 * 1024.0};
}

/// A small stamp (4 servers x 2 buckets) so drills stay fast and bucket
/// arithmetic stays readable: bucket_of(hash) == hash % 8.
ClusterConfig small_stamp() {
  ClusterConfig c;
  c.partition_servers = 4;
  c.balancer.buckets_per_server = 2;
  return c;
}

/// Two-region geo config with fast shipping, staleness target 100 ms.
/// Individual tests override ship_interval when they need to stage an
/// unshipped window deterministically.
GeoConfig two_regions() {
  GeoConfig g;
  g.regions.push_back(GeoRegionConfig{"east", small_stamp()});
  g.regions.push_back(GeoRegionConfig{"west", small_stamp()});
  g.ship_interval = sim::millis(10);
  g.staleness_target = sim::millis(100);
  return g;
}

/// Arms fault injection with every probability effectively zero, so the
/// integrity tracking (object ledgers) is live but all damage is staged by
/// the test itself.
faults::FaultConfig quiet_armed() {
  faults::FaultConfig f;
  f.corruption_probability = 1e-12;
  return f;
}

RequestCost untracked_write() {
  RequestCost c;
  c.disk_bytes = 1024;
  c.replicate = true;
  return c;
}

RequestCost tracked_write(std::uint64_t id, std::uint32_t crc) {
  RequestCost c = untracked_write();
  c.object_id = id;
  c.content_crc = crc;
  return c;
}

std::uint32_t crc_of(std::uint64_t id) {
  return 0xC0000000u + static_cast<std::uint32_t>(id);
}

std::int64_t plan_count(const std::vector<faults::FaultRecord>& log,
                        faults::FaultKind kind) {
  std::int64_t n = 0;
  for (const faults::FaultRecord& rec : log) n += (rec.kind == kind) ? 1 : 0;
  return n;
}

/// N sequential writes from a region-`home` client, hashes 0..n-1.
Task<> write_n(GeoCluster& g, netsim::Nic& nic, int home, int n,
               bool tracked = false) {
  for (int i = 0; i < n; ++i) {
    const auto id = static_cast<std::uint64_t>(i + 1);
    co_await g.write(nic, home, static_cast<std::uint64_t>(i),
                     tracked ? tracked_write(id, crc_of(id))
                             : untracked_write());
  }
}

// ------------------------------------------------------------ validation ----

TEST(GeoConfigTest, ValidationRejectsBadTopology) {
  Simulation s;
  GeoConfig empty;
  EXPECT_THROW(GeoCluster(s, empty), std::invalid_argument);

  GeoConfig bad_primary = two_regions();
  bad_primary.primary = 2;
  EXPECT_THROW(GeoCluster(s, bad_primary), std::invalid_argument);

  GeoConfig slow_shipper = two_regions();
  slow_shipper.ship_interval = slow_shipper.staleness_target + 1;
  EXPECT_THROW(GeoCluster(s, slow_shipper), std::invalid_argument);

  GeoConfig lopsided = two_regions();
  lopsided.regions[1].cluster.partition_servers = 8;
  EXPECT_THROW(GeoCluster(s, lopsided), std::invalid_argument);
}

// -------------------------------------------------------------- shipping ----

TEST(GeoShippingTest, AsyncLogShippingDrainsToZeroLag) {
  Simulation s;
  GeoCluster geo(s, two_regions());
  netsim::Nic nic(s, client_nic());
  s.spawn(write_n(geo, nic, /*home=*/0, /*n=*/24));
  s.run();  // drains the event-driven shippers too
  EXPECT_EQ(geo.log_appends(), 24);
  EXPECT_EQ(geo.replication_lag(1), 0);
  EXPECT_EQ(geo.max_staleness(1), 0);
  EXPECT_GT(geo.link(0, 1).batches(), 0);
  EXPECT_EQ(geo.link(0, 1).dropped_batches(), 0);
  EXPECT_GT(geo.link(0, 1).bytes_moved(), 0);
  // Control traffic never crossed the reverse direction: the home client
  // writes locally, so the west->east link carried nothing.
  EXPECT_EQ(geo.link(1, 0).batches(), 0);
}

TEST(GeoShippingTest, StalenessStaysUnderTargetDuringPacedLoad) {
  Simulation s;
  GeoCluster geo(s, two_regions());  // target 100 ms, ship every 10 ms
  netsim::Nic nic(s, client_nic());
  s.spawn([](Simulation& sim, GeoCluster& g, netsim::Nic& n) -> Task<> {
    for (int i = 0; i < 40; ++i) {
      co_await g.write(n, 0, static_cast<std::uint64_t>(i),
                       untracked_write());
      co_await sim.delay(sim::millis(20));
    }
  }(s, geo, nic));
  sim::Duration worst = 0;
  s.spawn([](Simulation& sim, GeoCluster& g, sim::Duration& w) -> Task<> {
    for (int i = 0; i < 300; ++i) {  // samples span the whole write window
      co_await sim.delay(sim::millis(3));
      w = std::max(w, g.max_staleness(1));
    }
  }(s, geo, worst));
  s.run();
  EXPECT_GT(worst, netsim::GeoLink::kLatency)
      << "replication is asynchronous: some sample must catch the secondary "
         "lagging by at least a batch's trip across the link";
  EXPECT_LE(worst, geo.config().staleness_target);
  EXPECT_EQ(geo.replication_lag(1), 0);  // and it still drains
}

// ----------------------------------------------------------- consistency ----

TEST(GeoReadTest, StrongReadsRouteHomeEventualReadsServeLocally) {
  Simulation s;
  GeoCluster geo(s, two_regions());
  netsim::Nic nic(s, client_nic());
  GeoReadResult eventual{}, eventual_after{}, strong{};
  s.spawn([](Simulation& sim, GeoCluster& g, netsim::Nic& n,
             GeoReadResult& ev, GeoReadResult& st) -> Task<> {
    co_await g.write(n, 0, /*hash=*/3, untracked_write());
    // Inside the shipping window: the west replica is provably behind.
    co_await sim.delay(sim::millis(5));
    ev = co_await g.read(n, /*client_region=*/1, 3, RequestCost{},
                         ReadConsistency::kEventual);
    st = co_await g.read(n, /*client_region=*/1, 3, RequestCost{},
                         ReadConsistency::kStrong);
  }(s, geo, nic, eventual, strong));
  s.run();
  EXPECT_EQ(eventual.region, 1);  // served region-local
  EXPECT_GE(eventual.staleness, sim::millis(5));
  EXPECT_LE(eventual.staleness, geo.config().staleness_target);
  EXPECT_EQ(strong.region, 0);  // routed to the primary
  EXPECT_EQ(strong.staleness, 0);

  // Once the shipper drained, the same eventual read is fresh.
  s.spawn([](GeoCluster& g, netsim::Nic& n, GeoReadResult& ev) -> Task<> {
    ev = co_await g.read(n, 1, 3, RequestCost{}, ReadConsistency::kEventual);
  }(geo, nic, eventual_after));
  s.run();
  EXPECT_EQ(eventual_after.region, 1);
  EXPECT_EQ(eventual_after.staleness, 0);
}

// -------------------------------------------------------- failover drill ----

TEST(GeoFailoverTest, RegionLossExportsRpoRedirectsClientsAndFailsBack) {
  Simulation s;
  GeoConfig g = two_regions();
  // A wide shipping window so the four pre-outage writes are provably
  // unshipped: their loss *is* the RPO this test asserts.
  g.ship_interval = sim::millis(200);
  g.staleness_target = sim::millis(500);
  GeoCluster geo(s, g);
  netsim::Nic nic(s, client_nic());

  // Phase 1: six writes, fully replicated.
  s.spawn(write_n(geo, nic, 0, 6));
  s.run();
  ASSERT_EQ(geo.replication_lag(1), 0);

  // Phase 2: four more writes (hashes 0..3 -> buckets 0..3), then the home
  // region dies before the 200 ms shipping window elapses.
  s.spawn([](GeoCluster& geo2, netsim::Nic& n) -> Task<> {
    for (int i = 0; i < 4; ++i) {
      co_await geo2.write(n, 0, static_cast<std::uint64_t>(i),
                          untracked_write());
    }
    geo2.force_region_outage(0);
  }(geo, nic));
  s.run();
  EXPECT_EQ(geo.primary(), 1);
  EXPECT_EQ(geo.region_failovers(), 1);
  EXPECT_EQ(geo.rpo_lost_writes(), 4);
  EXPECT_GT(geo.max_staleness_at_failover(), 0);
  // The dead region's applied watermark was ahead of the promoted truth on
  // each of the four buckets holding a lost write.
  EXPECT_EQ(geo.divergent_resets(), 4);

  // Phase 3: a client holding the old geo map pays exactly one typed
  // redirect, then lands on the promoted region — completing the first
  // post-failover operation, which closes the RTO clock.
  int redirects = 0;
  bool served = false;
  s.spawn([](GeoCluster& geo2, netsim::Nic& n, int& r, bool& ok) -> Task<> {
    for (;;) {
      try {
        co_await geo2.write(n, 0, /*hash=*/3, untracked_write());
        ok = true;
        co_return;
      } catch (const cluster::RegionMovedError&) {
        ++r;
      }
    }
  }(geo, nic, redirects, served));
  s.run();
  EXPECT_TRUE(served);
  EXPECT_EQ(redirects, 1);
  EXPECT_EQ(geo.stale_geo_redirects(), 1);
  EXPECT_GT(geo.last_rto(), 0);

  // Phase 4: the original primary returns — chain-verified catch-up, then
  // auto failback hands the role home.
  s.spawn([](GeoCluster& geo2) -> Task<> {
    co_await geo2.force_region_restore(0);
  }(geo));
  s.run();
  EXPECT_EQ(geo.primary(), 0);
  EXPECT_EQ(geo.region_failbacks(), 1);
  EXPECT_EQ(geo.chain_verifications(),
            geo.region(0).partition_map().buckets());
  EXPECT_EQ(geo.replication_lag(0), 0);  // caught up before taking over
  EXPECT_EQ(geo.replication_lag(1), 0);
}

TEST(GeoFailoverTest, TotalOutageFailsTypedThenFirstRestoredRegionResumes) {
  Simulation s;
  GeoCluster geo(s, two_regions());
  netsim::Nic nic(s, client_nic());
  geo.force_region_outage(0);
  geo.force_region_outage(1);
  std::string error;
  s.spawn([](GeoCluster& g, netsim::Nic& n, std::string& err) -> Task<> {
    // The promotion (0 -> 1) happened before the second loss; absorb the
    // redirect, then retry against the (now fully dark) endpoint.
    bool redirected = false;
    try {
      co_await g.write(n, 0, 1, untracked_write());
    } catch (const cluster::RegionMovedError&) {
      redirected = true;
    }
    if (!redirected) co_return;
    try {
      co_await g.write(n, 0, 1, untracked_write());
    } catch (const cluster::ConnectionResetError& e) {
      err = e.what();
    }
  }(geo, nic, error));
  s.run();
  EXPECT_NE(error.find("no healthy region"), std::string::npos);
  // The first region to return is the sole survivor: it resumes as the
  // authority over exactly what it had applied — a second promotion.
  s.spawn([](GeoCluster& g) -> Task<> {
    co_await g.force_region_restore(0);
  }(geo));
  s.run();
  EXPECT_EQ(geo.primary(), 0);
  EXPECT_EQ(geo.region_failovers(), 2);
  EXPECT_TRUE(geo.region_up(0));
  EXPECT_FALSE(geo.region_up(1));
}

// ------------------------------------------ ledger reconciliation (scrub) ----

/// Satellite: staged divergence across two stamps, resolved by the geo
/// scrub around failback. Objects 1..3 take updates the home region
/// acknowledged but never shipped; the failover makes those generations
/// divergent (the new authority never saw them), and a torn write is staged
/// on the promoted secondary. Restore + failback + one scrub pass of the
/// demoted region must converge both stamps to the authority's ledger.
TEST(GeoReconciliationTest, ScrubHealsLostGenerationsAndTornPromotedCopy) {
  Simulation s;
  GeoConfig g = two_regions();
  g.ship_interval = sim::millis(300);
  g.staleness_target = sim::millis(500);
  GeoCluster geo(s, g);
  faults::FaultPlan plan(s, quiet_armed());
  geo.enable_faults(plan);  // integrity tracking on, zero injected damage
  netsim::Nic nic(s, client_nic());

  // Six tracked objects, fully geo-replicated: both ledgers converged.
  s.spawn(write_n(geo, nic, 0, 6, /*tracked=*/true));
  s.run();
  ASSERT_EQ(geo.replication_lag(1), 0);
  ASSERT_EQ(geo.region(1).replica_store().divergent_replicas(), 0);
  ASSERT_EQ(geo.region(1).replica_store().find(2)->committed_crc, crc_of(2));

  // Updates to objects 1..3 commit at home (generation 2) but die with the
  // region before the 300 ms shipping window: acknowledged, lost, divergent.
  s.spawn([](GeoCluster& geo2, netsim::Nic& n) -> Task<> {
    for (std::uint64_t id = 1; id <= 3; ++id) {
      co_await geo2.write(n, 0, id - 1, tracked_write(id, 0xDEAD0000u + id));
    }
    geo2.force_region_outage(0);
  }(geo, nic));
  s.run();
  ASSERT_EQ(geo.primary(), 1);
  ASSERT_EQ(geo.rpo_lost_writes(), 3);
  // The dead stamp holds generations the new authority never acknowledged.
  EXPECT_EQ(geo.region(0).replica_store().find(1)->committed_crc,
            0xDEAD0001u);
  EXPECT_EQ(geo.region(1).replica_store().find(1)->committed_crc, crc_of(1));

  // Stage a torn write on the promoted secondary (a crash-torn copy that
  // predates its promotion): replica 1 of object 4.
  cluster::ReplicaStore::Entry* torn =
      geo.region(1).replica_store().find(4);
  ASSERT_NE(torn, nullptr);
  torn->replicas[1].torn = true;
  ASSERT_GT(geo.region(1).replica_store().divergent_replicas(), 0);

  // Restore: the returning region is chain-verified, scrubbed against the
  // authority (rolling its lost generation-2 ledgers *back*), caught up,
  // and handed the primary role again.
  s.spawn([](GeoCluster& geo2) -> Task<> {
    co_await geo2.force_region_restore(0);
  }(geo));
  s.run();
  EXPECT_EQ(geo.primary(), 0);
  EXPECT_EQ(geo.region_failbacks(), 1);
  EXPECT_EQ(geo.region(0).replica_store().find(1)->committed_crc, crc_of(1));
  EXPECT_EQ(geo.region(0).replica_store().divergent_replicas(), 0);
  // 3 rolled-back objects x 3 replicas healed on the returning stamp.
  EXPECT_EQ(geo.geo_scrub_repairs(), 9);

  // After failback the old authority is a secondary again; one scrub pass
  // heals the staged torn copy from the restored primary's ledger.
  s.spawn([](GeoCluster& geo2) -> Task<> {
    co_await geo2.geo_scrub(1);
  }(geo));
  s.run();
  EXPECT_EQ(geo.region(1).replica_store().divergent_replicas(), 0);
  EXPECT_FALSE(geo.region(1).replica_store().find(4)->replicas[1].torn);
  EXPECT_EQ(geo.geo_scrub_repairs(), 10);
}

// ----------------------------------------------------- geo link fault stream ----

TEST(GeoLinkFaultTest, DroppedBatchesAreRedeliveredUntilCaughtUp) {
  Simulation s;
  GeoCluster geo(s, two_regions());
  faults::FaultConfig f;
  f.seed = 0x6E0;
  f.geo_drop_probability = 0.4;
  faults::FaultPlan plan(s, f);
  geo.enable_faults(plan);
  netsim::Nic nic(s, client_nic());
  s.spawn(write_n(geo, nic, 0, 30));
  s.run();
  EXPECT_GT(geo.redeliveries(), 0);  // p=0.4 over >=8 buckets: drops landed
  EXPECT_EQ(geo.redeliveries(), geo.link(0, 1).dropped_batches());
  EXPECT_EQ(plan.count(faults::FaultKind::kGeoBatchDrop),
            geo.link(0, 1).dropped_batches());
  // Every drop was redelivered: the secondary still converged.
  EXPECT_EQ(geo.replication_lag(1), 0);
  EXPECT_EQ(geo.max_staleness(1), 0);
}

// ------------------------------------------------- plan-driven determinism ----

struct DrillRun {
  std::vector<faults::FaultRecord> fault_log;
  std::string metrics_json;
  sim::TimePoint final_time = 0;
  std::int64_t failovers = 0;
  std::int64_t failbacks = 0;
  std::int64_t rpo = 0;
  std::int64_t redirects = 0;
};

/// The full plan-driven drill: paced writes while the FaultPlan's region
/// schedule takes the home region down and brings it back, with geo-link
/// drops armed. Clients absorb redirects and resets with a bounded retry.
DrillRun run_drill(std::uint64_t seed) {
  Simulation s;
  obs::Observer o;
  s.set_observer(&o);
  GeoCluster geo(s, two_regions());
  faults::FaultConfig f;
  f.seed = seed;
  f.region_outages = 1;
  f.region_outage_mean_interval = sim::millis(300);
  f.region_downtime = sim::millis(400);
  f.region_outage_victim = 0;  // pinned: always the home region
  f.geo_drop_probability = 0.1;
  faults::FaultPlan plan(s, f);
  geo.enable_faults(plan);
  netsim::Nic nic(s, client_nic());
  DrillRun r;
  s.spawn([](Simulation& sim, GeoCluster& g, netsim::Nic& n,
             std::int64_t& redirects) -> Task<> {
    for (int i = 0; i < 60; ++i) {
      for (int attempt = 0; attempt < 50; ++attempt) {
        bool done = false, wait = false;
        try {
          co_await g.write(n, 0, static_cast<std::uint64_t>(i),
                           untracked_write());
          done = true;
        } catch (const cluster::RegionMovedError&) {
          ++redirects;  // retry immediately: the redirect refreshed the map
        } catch (const cluster::ConnectionResetError&) {
          wait = true;
        }
        if (done) break;
        if (wait) co_await sim.delay(sim::millis(20));
      }
      co_await sim.delay(sim::millis(25));
    }
  }(s, geo, nic, r.redirects));
  s.run();
  r.fault_log = plan.log();
  r.metrics_json = o.to_json();
  r.final_time = s.now();
  r.failovers = geo.region_failovers();
  r.failbacks = geo.region_failbacks();
  r.rpo = geo.rpo_lost_writes();
  return r;
}

TEST(GeoDeterminismTest, PlanDrivenDrillFiresOutageFailoverAndFailback) {
  const DrillRun r = run_drill(0xD1A);
  EXPECT_GE(r.failovers, 1);
  EXPECT_GE(r.failbacks, 1);
  EXPECT_GE(plan_count(r.fault_log, faults::FaultKind::kRegionOutage), 1);
  EXPECT_GE(plan_count(r.fault_log, faults::FaultKind::kRegionRestore), 1);
  EXPECT_GE(plan_count(r.fault_log, faults::FaultKind::kRegionFailover), 1);
  EXPECT_GE(plan_count(r.fault_log, faults::FaultKind::kRegionFailback), 1);
}

TEST(GeoDeterminismTest, SameSeedReplaysByteIdentical) {
  const DrillRun r1 = run_drill(0x5EED);
  const DrillRun r2 = run_drill(0x5EED);
  EXPECT_EQ(r1.fault_log, r2.fault_log);
  EXPECT_EQ(r1.metrics_json, r2.metrics_json);
  EXPECT_EQ(r1.final_time, r2.final_time);
  EXPECT_EQ(r1.failovers, r2.failovers);
  EXPECT_EQ(r1.failbacks, r2.failbacks);
  EXPECT_EQ(r1.rpo, r2.rpo);
  EXPECT_EQ(r1.redirects, r2.redirects);
}

TEST(GeoDeterminismTest, DistinctSeedsDiverge) {
  const DrillRun r1 = run_drill(11);
  const DrillRun r2 = run_drill(12);
  EXPECT_NE(r1.fault_log, r2.fault_log);
}

}  // namespace
