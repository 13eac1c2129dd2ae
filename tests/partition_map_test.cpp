// Tests for the dynamic partition map, its load balancer, and the routing /
// failover / admission bugfixes that landed with them:
//   - map unit behaviour (default assignment == modulo, versioning, stamps)
//   - stale-map redirects (PartitionMovedError) and move-unavailability
//   - crash failover as a map update, with fail-back on restart, and the
//     all-servers-down guard (clean typed error, armed or not)
//   - constructor topology validation (std::invalid_argument, not assert)
//   - FIFO admission in ThrottleMode::kQueue
//   - read-verify mismatch attribution to the actually-serving server
//   - balancer effectiveness on skewed load and byte-identical determinism
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/errors.hpp"
#include "cluster/load_balancer.hpp"
#include "cluster/partition_map.hpp"
#include "cluster/storage_cluster.hpp"
#include "faults/fault_plan.hpp"
#include "netsim/nic.hpp"
#include "obs/observer.hpp"
#include "simcore/random.hpp"
#include "simcore/simulation.hpp"

namespace {

using cluster::BalancerConfig;
using cluster::ClusterConfig;
using cluster::LoadBalancer;
using cluster::PartitionMap;
using cluster::RequestCost;
using cluster::StorageCluster;
using sim::Simulation;
using sim::Task;
using sim::TimePoint;

netsim::NicConfig client_nic() {
  return netsim::NicConfig{100e6, 100e6, sim::micros(50), 64 * 1024.0};
}

/// Arms fault injection (so faults_ is set and the fault log records) while
/// keeping every fault probability effectively zero and the crash driver
/// off; tests stage all damage and crashes themselves.
faults::FaultConfig quiet_armed() {
  faults::FaultConfig f;
  f.corruption_probability = 1e-12;
  return f;
}

// ------------------------------------------------------------- map unit ----

TEST(PartitionMapTest, DefaultAssignmentMatchesModulo) {
  const PartitionMap map(16, 8);
  EXPECT_EQ(map.buckets(), 128);
  EXPECT_EQ(map.version(), 1u);
  EXPECT_EQ(map.moves(), 0);
  sim::Random rng(42);
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t h = rng.next_u64();
    EXPECT_EQ(map.server_of(h), static_cast<int>(h % 16u));
  }
  for (int b = 0; b < map.buckets(); ++b) {
    EXPECT_EQ(map.owner(b), b % 16);
    EXPECT_EQ(map.changed_at(b), 0u);
  }
}

TEST(PartitionMapTest, AssignBumpsVersionAndStampsOnlyTheMovedBucket) {
  PartitionMap map(4, 2);
  map.assign(5, 2, sim::millis(10));
  EXPECT_EQ(map.version(), 2u);
  EXPECT_EQ(map.moves(), 1);
  EXPECT_EQ(map.owner(5), 2);
  EXPECT_EQ(map.changed_at(5), 2u);
  EXPECT_EQ(map.unavailable_until(5), sim::millis(10));
  EXPECT_EQ(map.changed_at(4), 0u);  // untouched buckets keep stamp 0
  EXPECT_EQ(map.owner(4), 0);
  // Ownership queries reflect the move.
  EXPECT_EQ(map.owned_count(2), 3);
  EXPECT_EQ(map.owned_count(1), 1);
  const std::vector<int> of2 = map.buckets_of(2);
  EXPECT_EQ(of2, (std::vector<int>{2, 5, 6}));
}

// ------------------------------------------------------ cluster routing ----

/// Issues one request, absorbing stale-map redirects by retrying (as the
/// retry layer would), and records where it was served and when it
/// completed. `errors` counts redirects absorbed.
Task<> routed_request(Simulation& s, StorageCluster& c, netsim::Nic& nic,
                      std::uint64_t hash, int& served_by, TimePoint& done,
                      int& redirects) {
  for (;;) {
    try {
      const cluster::ExecResult r = co_await c.execute(nic, hash, RequestCost{});
      served_by = r.served_by;
      done = s.now();
      co_return;
    } catch (const cluster::PartitionMovedError&) {
      ++redirects;
    }
  }
}

TEST(ClusterRoutingTest, MoveReroutesAfterOneRedirect) {
  Simulation s;
  StorageCluster c(s, ClusterConfig{});
  netsim::Nic nic(s, client_nic());
  c.move_bucket(/*bucket=*/5, /*to=*/9, /*offline_for=*/0);
  int served = -1, redirects = 0;
  TimePoint done = -1;
  s.spawn(routed_request(s, c, nic, /*hash=*/5, served, done, redirects));
  s.run();
  EXPECT_EQ(served, 9);
  EXPECT_EQ(redirects, 1);  // fresh client, moved bucket: exactly one
  EXPECT_EQ(c.stale_map_redirects(), 1);
  EXPECT_EQ(c.partition_moves(), 1);
  EXPECT_EQ(c.server_index(5), 9);
}

/// Issues `cost` against `hash`, absorbing stale-map redirects.
Task<> write_through_redirects(StorageCluster& c, netsim::Nic& nic,
                               std::uint64_t hash, RequestCost cost) {
  for (;;) {
    try {
      (void)co_await c.execute(nic, hash, cost);
      co_return;
    } catch (const cluster::PartitionMovedError&) {
    }
  }
}

/// Runs `write` to completion and returns the servers whose replica-commit
/// count it raised.
std::vector<int> replica_targets(Simulation& s, StorageCluster& c,
                                 Task<> write) {
  std::vector<std::int64_t> before;
  for (int i = 0; i < c.server_count(); ++i) {
    before.push_back(c.server(i).replica_commits());
  }
  s.spawn(std::move(write));
  s.run();
  std::vector<int> targets;
  for (int i = 0; i < c.server_count(); ++i) {
    if (c.server(i).replica_commits() > before[static_cast<std::size_t>(i)]) {
      targets.push_back(i);
    }
  }
  return targets;
}

// After a move the serving server is off the object's home ring. An
// untracked replicated write fans out to the serving server's ring
// successors; a tracked write (object id under an armed plan) fans out
// along the home ring, where the ledger keeps its copies, minus the serving
// server.
TEST(ClusterRoutingTest, FanOutTargetsAfterAMove) {
  Simulation s;
  StorageCluster c(s, ClusterConfig{});
  faults::FaultPlan plan(s, quiet_armed());
  c.enable_faults(plan);
  netsim::Nic nic(s, client_nic());
  // Bucket 5's home ring is servers 5, 6, 7; server 6 now serves it.
  c.move_bucket(/*bucket=*/5, /*to=*/6, /*offline_for=*/0);

  RequestCost untracked;
  untracked.disk_bytes = 1024;
  untracked.replicate = true;
  EXPECT_EQ(replica_targets(s, c,
                            write_through_redirects(c, nic, 5, untracked)),
            (std::vector<int>{7, 8}));

  RequestCost tracked = untracked;
  tracked.object_id = 42;
  tracked.content_crc = 0x1234;
  EXPECT_EQ(replica_targets(s, c, write_through_redirects(c, nic, 5, tracked)),
            (std::vector<int>{5, 7}));
  // The serving server holds replica 1: with the fan-out on replicas 0 and
  // 2, every ledger copy holds the committed write.
  EXPECT_EQ(c.replica_store().find(42)->home, 5);
  EXPECT_EQ(c.replica_store().divergent_replicas(), 0);
}

TEST(ClusterRoutingTest, UnmovedBucketNeverRedirects) {
  Simulation s;
  StorageCluster c(s, ClusterConfig{});
  netsim::Nic nic(s, client_nic());
  c.move_bucket(5, 9, 0);  // some *other* bucket moved
  int served = -1, redirects = 0;
  TimePoint done = -1;
  s.spawn(routed_request(s, c, nic, /*hash=*/6, served, done, redirects));
  s.run();
  EXPECT_EQ(served, 6);
  EXPECT_EQ(redirects, 0);
  EXPECT_EQ(c.stale_map_redirects(), 0);
}

TEST(ClusterRoutingTest, MoveUnavailabilityWindowDelaysRequests) {
  Simulation s;
  StorageCluster c(s, ClusterConfig{});
  netsim::Nic nic(s, client_nic());
  c.move_bucket(5, 9, sim::millis(50));
  int served = -1, redirects = 0;
  TimePoint done = -1;
  s.spawn(routed_request(s, c, nic, 5, served, done, redirects));
  s.run();
  EXPECT_EQ(served, 9);
  // The retry (post-redirect) waited out the remainder of the handoff.
  EXPECT_GE(done, sim::millis(50));
  EXPECT_LT(done, sim::millis(80));
}

// ------------------------------------------- all-servers-down guard ----

/// Regression (pre-fix: the down-primary check was gated on an armed fault
/// plan, so with faults off a crashed server silently kept serving — and
/// with all servers crashed there was no healthy target at all). The client
/// must see a clean typed ConnectionResetError, promptly, armed or not.
TEST(FailoverGuardTest, AllServersDownFailsCleanlyUnarmed) {
  Simulation s;
  StorageCluster c(s, ClusterConfig{});
  for (int i = 0; i < c.server_count(); ++i) c.server(i).crash();
  netsim::Nic nic(s, client_nic());
  std::string error;
  s.spawn([](StorageCluster& cl, netsim::Nic& n, std::string& err) -> Task<> {
    try {
      co_await cl.execute(n, 1, RequestCost{});
    } catch (const cluster::ConnectionResetError& e) {
      err = e.what();
    }
  }(c, nic, error));
  s.run();  // must terminate: no hang, no request served by a dead process
  EXPECT_NE(error.find("no healthy partition server"), std::string::npos)
      << "request against a fully-crashed stamp must fail with a typed "
         "retryable error, got: '" << error << "'";
  EXPECT_LE(s.now(), sim::millis(10));
}

TEST(FailoverGuardTest, AllServersDownFailsCleanlyArmed) {
  Simulation s;
  StorageCluster c(s, ClusterConfig{});
  faults::FaultPlan plan(s, quiet_armed());
  c.enable_faults(plan);
  for (int i = 0; i < c.server_count(); ++i) c.server(i).crash();
  netsim::Nic nic(s, client_nic());
  std::string error;
  s.spawn([](StorageCluster& cl, netsim::Nic& n, std::string& err) -> Task<> {
    try {
      co_await cl.execute(n, 1, RequestCost{});
    } catch (const cluster::ConnectionResetError& e) {
      err = e.what();
    }
  }(c, nic, error));
  s.run();
  EXPECT_NE(error.find("no healthy partition server"), std::string::npos);
}

TEST(FailoverGuardTest, SingleCrashReassignsOffTheDownServer) {
  Simulation s;
  StorageCluster c(s, ClusterConfig{});
  c.server(2).crash();
  netsim::Nic nic(s, client_nic());
  int served = -1, redirects = 0;
  TimePoint done = -1;
  s.spawn(routed_request(s, c, nic, /*hash=*/2, served, done, redirects));
  s.run();
  EXPECT_NE(served, 2);
  EXPECT_GE(served, 0);
  // The crash moved every bucket of server 2 off it.
  EXPECT_EQ(c.partition_map().owned_count(2), 0);
  EXPECT_GT(c.partition_moves(), 0);
  // The discovering request reassigned inline — no self-redirect.
  EXPECT_EQ(redirects, 0);
}

// -------------------------------------------- crash driver + fail-back ----

TEST(FailoverGuardTest, CrashDriverFailoverConvergesBackAfterRestart) {
  Simulation s;
  ClusterConfig ccfg;
  StorageCluster c(s, ccfg);
  faults::FaultConfig fcfg;
  fcfg.server_crashes = 2;
  fcfg.crash_mean_interval = sim::seconds(2);
  fcfg.server_downtime = sim::millis(800);
  faults::FaultPlan plan(s, fcfg);
  c.enable_faults(plan);

  // A steady stream of requests across the key space while crashes happen.
  netsim::Nic nic(s, client_nic());
  int completed = 0;
  s.spawn([](Simulation& sim, StorageCluster& cl, netsim::Nic& n,
             int& done) -> Task<> {
    for (int i = 0; i < 400; ++i) {
      co_await sim.delay(sim::millis(25));
      try {
        co_await cl.execute(n, static_cast<std::uint64_t>(i), RequestCost{});
        ++done;
      } catch (const cluster::PartitionMovedError&) {
      } catch (const cluster::ConnectionResetError&) {
      }
    }
  }(s, c, nic, completed));
  s.run();

  EXPECT_GT(completed, 300);
  EXPECT_GT(c.partition_moves(), 0) << "crashes must reassign buckets";
  // Fail-back restored the default assignment after each restart.
  const PartitionMap& map = c.partition_map();
  for (int b = 0; b < map.buckets(); ++b) {
    EXPECT_EQ(map.owner(b), map.default_owner(b)) << "bucket " << b;
  }
}

// ------------------------------------- overlapping (simultaneous) crashes ----

/// Regression (pre-fix): a bucket displaced off crashed server A onto B was
/// registered for fail-back under *both* victims when B crashed too. With
/// restart order matching crash order (A then B), fail_back(B) then yanked
/// A's bucket back onto B, permanently skewing the map: the final owner of
/// a bucket depended on which victim restarted last, not on the map's
/// pre-crash assignment.
TEST(FailoverGuardTest, SecondCrashWhileFirstVictimStillDownFailsBackClean) {
  Simulation s;
  StorageCluster c(s, ClusterConfig{});
  // Crash A(0): its buckets spread over the healthy ring starting at 1, so
  // bucket 0 (home: server 0) parks on server 1.
  c.crash_server(0);
  ASSERT_EQ(c.partition_map().owner(0), 1);
  // Crash B(1) while A is still down: bucket 0 is displaced a second time.
  c.crash_server(1);
  const int interim = c.partition_map().owner(0);
  EXPECT_NE(interim, 0);
  EXPECT_NE(interim, 1);
  // Restart in crash order. Pre-fix, fail_back(1) re-claimed bucket 0 for
  // server 1 because the second crash had registered it under B as well.
  c.restart_server(0);
  EXPECT_EQ(c.partition_map().owner(0), 0);
  c.restart_server(1);
  EXPECT_EQ(c.partition_map().owner(0), 0)
      << "bucket 0 belongs to server 0; the second victim must not steal it";
  const PartitionMap& map = c.partition_map();
  for (int b = 0; b < map.buckets(); ++b) {
    EXPECT_EQ(map.owner(b), map.default_owner(b)) << "bucket " << b;
  }
}

TEST(FailoverGuardTest, InvertedRestartOrderKeepsDisplacedBucketOffDownHost) {
  Simulation s;
  StorageCluster c(s, ClusterConfig{});
  c.crash_server(0);  // bucket 0 -> server 1
  c.crash_server(1);  // bucket 0 -> third server
  const int interim = c.partition_map().owner(0);
  // Restart order inverted vs crash order: B first, while A is still down.
  c.restart_server(1);
  // B gets its own buckets back, but must NOT pull in A's bucket — A is
  // still down, and the bucket's fail-back target is A alone.
  EXPECT_EQ(c.partition_map().owner(0), interim)
      << "a bucket crash-displaced off A may not fail back to B";
  EXPECT_EQ(c.partition_map().owner(1), 1);
  c.restart_server(0);
  const PartitionMap& map = c.partition_map();
  for (int b = 0; b < map.buckets(); ++b) {
    EXPECT_EQ(map.owner(b), map.default_owner(b)) << "bucket " << b;
  }
}

TEST(FailoverGuardTest, ThreeOverlappingCrashesConvergeInAnyRestartOrder) {
  Simulation s;
  StorageCluster c(s, ClusterConfig{});
  c.crash_server(0);
  c.crash_server(1);
  c.crash_server(2);
  // Shuffled restart order: 2, 0, 1.
  c.restart_server(2);
  c.restart_server(0);
  c.restart_server(1);
  const PartitionMap& map = c.partition_map();
  for (int b = 0; b < map.buckets(); ++b) {
    EXPECT_EQ(map.owner(b), map.default_owner(b)) << "bucket " << b;
  }
}

// ------------------------------------------------ constructor validation ----

/// Regression (pre-fix: the topology invariant was a Debug-only assert, so
/// a Release build silently folded distinct replicas onto one server).
TEST(ConfigValidationTest, RejectsReplicasExceedingServers) {
  Simulation s;
  ClusterConfig cfg;
  cfg.partition_servers = cluster::kReplicas - 1;
  EXPECT_THROW(StorageCluster(s, cfg), std::invalid_argument);
  cfg.partition_servers = 0;
  EXPECT_THROW(StorageCluster(s, cfg), std::invalid_argument);
}

TEST(ConfigValidationTest, ReplicasEqualToServersWorks) {
  Simulation s;
  ClusterConfig cfg;
  cfg.partition_servers = cluster::kReplicas;
  StorageCluster c(s, cfg);
  netsim::Nic nic(s, client_nic());
  bool ok = false;
  s.spawn([](StorageCluster& cl, netsim::Nic& n, bool& done) -> Task<> {
    RequestCost cost;
    cost.disk_bytes = 4096;
    cost.replicate = true;
    co_await cl.execute(n, 1, cost);
    done = true;
  }(c, nic, ok));
  s.run();
  EXPECT_TRUE(ok);
  // All three servers took a copy (primary write + 2 replica commits).
  const auto report = c.load_report();
  for (const auto& srv : report.servers) {
    EXPECT_GT(srv.requests + srv.replica_commits, 0) << srv.server;
  }
}

// ------------------------------------------------- kQueue FIFO admission ----

/// Regression (pre-fix: every kQueue waiter parked to the same window
/// boundary and raced try_consume there; the event queue breaks same-instant
/// ties by *scheduling* time, so a late arrival whose wakeup was scheduled
/// earlier — e.g. a worker coming off a long delay() — drained the window
/// ahead of requests that had been waiting for a full window).
TEST(ThrottleFifoTest, QueueWavesDrainInArrivalOrder) {
  Simulation s;
  ClusterConfig cfg;
  cfg.throttle_mode = cluster::ThrottleMode::kQueue;
  cfg.account_transactions_per_sec = 2;
  StorageCluster c(s, cfg);
  netsim::Nic nic(s, client_nic());

  // Seed wave X: exhausts window [0, 1s) immediately.
  for (int i = 0; i < 2; ++i) {
    s.spawn([](StorageCluster& cl, netsim::Nic& n) -> Task<> {
      co_await cl.execute(n, 0, RequestCost{});
    }(c, nic));
  }
  // Wave A arrives at t=300ms and must wait for window 1.
  std::vector<TimePoint> wave_a(2, -1);
  for (int i = 0; i < 2; ++i) {
    s.spawn([](Simulation& sim, StorageCluster& cl, netsim::Nic& n,
               TimePoint& t) -> Task<> {
      co_await sim.delay(sim::millis(300));
      co_await cl.execute(n, 1, RequestCost{});
      t = sim.now();
    }(s, c, nic, wave_a[static_cast<std::size_t>(i)]));
  }
  // Wave B arrives at t=1s sharp — but its wakeup events were scheduled at
  // t=0, i.e. *earlier* than wave A's parking, which is what the pre-fix
  // code let jump the queue.
  std::vector<TimePoint> wave_b(2, -1);
  for (int i = 0; i < 2; ++i) {
    s.spawn([](Simulation& sim, StorageCluster& cl, netsim::Nic& n,
               TimePoint& t) -> Task<> {
      co_await sim.delay(sim::kSecond);
      co_await cl.execute(n, 2, RequestCost{});
      t = sim.now();
    }(s, c, nic, wave_b[static_cast<std::size_t>(i)]));
  }
  s.run();

  for (const TimePoint t : wave_a) ASSERT_GE(t, 0);
  for (const TimePoint t : wave_b) ASSERT_GE(t, 0);
  const TimePoint a_last = std::max(wave_a[0], wave_a[1]);
  const TimePoint b_first = std::min(wave_b[0], wave_b[1]);
  EXPECT_LT(a_last, b_first)
      << "admission must be FIFO by arrival: wave A (t=0.3s) before wave B "
         "(t=1s); a_last=" << a_last << " b_first=" << b_first;
  // Wave A drains in window [1s, 2s), wave B in [2s, 3s).
  EXPECT_GE(wave_a[0], sim::kSecond);
  EXPECT_LT(a_last, 2 * sim::kSecond);
  EXPECT_GE(b_first, 2 * sim::kSecond);
}

// -------------------------------------- read-verify server attribution ----

/// Regression (pre-fix: when the serving server had failed over off the
/// replica set, the read-verify path substituted replica 0 and logged the
/// mismatch against replica 0's *server* — blaming the crashed home server
/// for a mismatch observed on the healthy serving server).
TEST(ReadVerifyTest, MismatchAttributedToActuallyServingServer) {
  Simulation s;
  StorageCluster c(s, ClusterConfig{});
  faults::FaultPlan plan(s, quiet_armed());
  c.enable_faults(plan);
  netsim::Nic nic(s, client_nic());

  // Write object 42 homed on server 5 (replicas on 5, 6, 7)...
  int write_served = -1, read_served = -1;
  s.spawn([](StorageCluster& cl, netsim::Nic& n, int& ws,
             int& rs) -> Task<> {
    RequestCost wcost;
    wcost.object_id = 42;
    wcost.content_crc = 0x1234;
    wcost.disk_bytes = 1024;
    wcost.replicate = true;
    ws = (co_await cl.execute(n, /*hash=*/5, wcost)).served_by;

    // ...stage damage on replica 0 only, then crash the whole replica set,
    // so the read must be served off-set.
    cluster::ReplicaStore::Entry* entry = cl.replica_store().find(42);
    entry->replicas[0].torn = true;
    cl.server(5).crash();
    cl.server(6).crash();
    cl.server(7).crash();

    RequestCost rcost;
    rcost.object_id = 42;
    rcost.response_bytes = 1024;
    rs = (co_await cl.execute(n, 5, rcost)).served_by;
    co_return;
  }(c, nic, write_served, read_served));
  s.run();

  ASSERT_EQ(write_served, 5);
  ASSERT_EQ(read_served, 8);  // first healthy server after the down run
  ASSERT_EQ(c.read_mismatches(), 1);
  // The mismatch record must name the serving server (8), not replica 0's
  // crashed home (5).
  int logged = -1;
  for (const faults::FaultRecord& r : plan.log()) {
    if (r.kind == faults::FaultKind::kChecksumMismatch) {
      logged = static_cast<int>(r.detail);
    }
  }
  EXPECT_EQ(logged, 8)
      << "mismatch attributed to server " << logged
      << "; expected the serving server 8 (replica 0's home is 5)";
}

// ----------------------------------------------------- load balancer ----

struct SkewedRunResult {
  TimePoint workload_done = 0;
  std::int64_t moves = 0;
  std::int64_t redirects = 0;
  std::uint64_t map_version = 0;
  double imbalance = 1.0;
  std::uint64_t events = 0;
  std::vector<faults::FaultRecord> fault_log;
  std::string metrics_json;
};

/// A hot-spot workload: `workers` clients, 90% of requests hashing onto
/// server 3's eight buckets (residues 3 + 16j mod 128), driven straight at
/// the cluster with contended executors so placement visibly gates
/// throughput. Redirects are absorbed inline, like the retry layer would.
SkewedRunResult run_skewed(int workers, int ops_per_worker, bool balance,
                           int server_crashes = 0, bool observe = false) {
  Simulation s;
  obs::Observer o;
  if (observe) s.set_observer(&o);
  ClusterConfig cfg;
  cfg.executors_per_server = 4;
  cfg.account_transactions_per_sec = 1'000'000;  // isolate server capacity
  cfg.balancer.enabled = balance;
  cfg.balancer.epoch = sim::millis(100);
  cfg.balancer.offload_threshold = 1.10;
  cfg.balancer.max_moves_per_epoch = 8;
  cfg.balancer.move_unavailable = sim::millis(5);
  cfg.balancer.idle_epochs_to_exit = 2;
  StorageCluster c(s, cfg);
  faults::FaultConfig fcfg;
  if (server_crashes > 0) {
    fcfg.server_crashes = server_crashes;
    fcfg.crash_mean_interval = sim::seconds(1);
    fcfg.server_downtime = sim::millis(500);
  } else {
    fcfg = quiet_armed();
  }
  faults::FaultPlan plan(s, fcfg);
  c.enable_faults(plan);
  LoadBalancer lb(c);
  if (balance) lb.start();

  std::vector<std::unique_ptr<netsim::Nic>> nics;
  nics.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    nics.push_back(std::make_unique<netsim::Nic>(s, client_nic()));
  }
  SkewedRunResult r;
  for (int i = 0; i < workers; ++i) {
    s.spawn([](Simulation& sim, StorageCluster& cl, netsim::Nic& n, int id,
               int ops, TimePoint& finished) -> Task<> {
      sim::Random rng(0xC0FFEE + static_cast<std::uint64_t>(id));
      for (int k = 0; k < ops; ++k) {
        const bool hot = rng.next_double() < 0.9;
        const std::uint64_t hash =
            hot ? 3u + 16u * static_cast<std::uint64_t>(rng.uniform(0, 7))
                : rng.next_u64();
        RequestCost cost;
        cost.server_cpu = sim::millis(2);
        for (;;) {
          bool backoff = false;
          try {
            co_await cl.execute(n, hash, cost);
            break;
          } catch (const cluster::PartitionMovedError&) {
            // Redirect refreshed this client's map: retry immediately.
          } catch (const cluster::ConnectionResetError&) {
            backoff = true;
          }
          if (backoff) co_await sim.delay(sim::millis(50));
        }
      }
      // Last finisher wins: workload_done ends up as the completion time.
      finished = sim.now();
    }(s, c, *nics[static_cast<std::size_t>(i)], i, ops_per_worker,
      r.workload_done));
  }
  s.run();
  r.moves = c.partition_moves();
  r.redirects = c.stale_map_redirects();
  r.map_version = c.partition_map().version();
  r.imbalance = c.load_report().imbalance();
  r.events = s.events_executed();
  r.fault_log = plan.log();
  if (observe) r.metrics_json = o.to_json();
  return r;
}

TEST(LoadBalancerTest, SpreadsSkewedLoadAndImprovesCompletionTime) {
  const SkewedRunResult off = run_skewed(32, 40, /*balance=*/false);
  const SkewedRunResult on = run_skewed(32, 40, /*balance=*/true);
  EXPECT_EQ(off.moves, 0);
  EXPECT_GT(on.moves, 0) << "the balancer must shed the hot server's buckets";
  EXPECT_GT(on.redirects, 0) << "stale clients must pay redirects";
  // The same workload finishes materially faster with balancing: the hot
  // server's queue is spread across otherwise-idle servers.
  EXPECT_LT(static_cast<double>(on.workload_done),
            0.8 * static_cast<double>(off.workload_done))
      << "balancer on: " << on.workload_done
      << " ns, off: " << off.workload_done << " ns";
  // And the served-request distribution is measurably flatter.
  EXPECT_LT(on.imbalance, off.imbalance);
}

TEST(LoadBalancerTest, IdleBalancerExitsSoSimulationTerminates) {
  // With balancing on and a finite workload, Simulation::run() returning at
  // all proves the master parked itself after the idle epochs; also pin the
  // tail: it must not outlive the workload by more than the idle window
  // plus one epoch.
  const SkewedRunResult on = run_skewed(4, 5, /*balance=*/true);
  SUCCEED();
  EXPECT_GT(on.workload_done, 0);
}

// Satellite: same seed, balancer on, two 96-worker skewed runs (with
// crashes interleaving) must replay byte-identically — fault log, metrics
// JSON, and final map version.
TEST(LoadBalancerDeterminismTest, Skewed96WorkerRunsAreByteIdentical) {
  const SkewedRunResult first =
      run_skewed(96, 12, /*balance=*/true, /*server_crashes=*/2,
                 /*observe=*/true);
  const SkewedRunResult second =
      run_skewed(96, 12, /*balance=*/true, /*server_crashes=*/2,
                 /*observe=*/true);
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.workload_done, second.workload_done);
  EXPECT_EQ(first.fault_log, second.fault_log);
  EXPECT_EQ(first.map_version, second.map_version);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
  // Sanity: the run actually exercised the machinery.
  EXPECT_FALSE(first.fault_log.empty());
  EXPECT_GT(first.moves, 0);
  EXPECT_GT(first.map_version, 1u);
}

}  // namespace
