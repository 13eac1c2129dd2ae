// Unit tests for the simulated storage cluster substrate.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/errors.hpp"
#include "cluster/hash.hpp"
#include "cluster/storage_cluster.hpp"
#include "netsim/nic.hpp"
#include "simcore/simulation.hpp"

namespace {

using cluster::ClusterConfig;
using cluster::RequestCost;
using cluster::StorageCluster;
using sim::Simulation;
using sim::Task;
using sim::TimePoint;

netsim::NicConfig client_nic() {
  return netsim::NicConfig{100e6, 100e6, sim::micros(50), 64 * 1024.0};
}

// ----------------------------------------------------------------- hash ----

TEST(HashTest, Fnv1aMatchesReferenceVectors) {
  // Reference values for FNV-1a 64-bit.
  EXPECT_EQ(cluster::fnv1a(""), 0xCBF29CE484222325ull);
  EXPECT_EQ(cluster::fnv1a("a"), 0xAF63DC4C8601EC8Cull);
  EXPECT_EQ(cluster::fnv1a("foobar"), 0x85944171F73967E8ull);
}

TEST(HashTest, PartitionHashIsStableAndSensitiveToBothParts) {
  const auto h1 = cluster::partition_hash("container", "blob");
  EXPECT_EQ(h1, cluster::partition_hash("container", "blob"));
  EXPECT_NE(h1, cluster::partition_hash("container", "blob2"));
  EXPECT_NE(h1, cluster::partition_hash("container2", "blob"));
  EXPECT_NE(cluster::partition_hash("ab", ""), cluster::partition_hash("a", "b"));
}

TEST(HashTest, DifferentNamesSpreadAcrossServers) {
  Simulation s;
  StorageCluster c(s);
  std::vector<int> counts(16, 0);
  for (int i = 0; i < 1600; ++i) {
    const auto h = cluster::partition_hash("queue-" + std::to_string(i));
    ++counts[static_cast<size_t>(c.server_index(h))];
  }
  for (int n : counts) {
    EXPECT_GT(n, 50);  // roughly balanced
    EXPECT_LT(n, 200);
  }
}

// -------------------------------------------------------------- execute ----

TEST(ClusterTest, RequestPaysFrontendAndOverhead) {
  Simulation s;
  StorageCluster c(s);
  netsim::Nic nic(s, client_nic());
  TimePoint done = -1;
  s.spawn([](Simulation& sim, StorageCluster& cl, netsim::Nic& n,
             TimePoint& t) -> Task<> {
    co_await cl.execute(n, 1, RequestCost{});
    t = sim.now();
  }(s, c, nic, done));
  s.run();
  // Must include at least frontend latency + request overhead + two control
  // hops; exact value depends on NIC latencies.
  EXPECT_GT(done, StorageCluster::kFrontendLatency +
                      cluster::PartitionServer::kRequestOverhead);
  EXPECT_LT(done, sim::millis(10));
  EXPECT_EQ(c.total_requests(), 1);
}

TEST(ClusterTest, ReplicatedWriteIsSlowerThanUnreplicated) {
  auto run = [](bool replicate) {
    Simulation s;
    StorageCluster c(s);
    netsim::Nic nic(s, client_nic());
    TimePoint done = -1;
    s.spawn([](Simulation& sim, StorageCluster& cl, netsim::Nic& n,
               TimePoint& t, bool rep) -> Task<> {
      RequestCost cost;
      cost.request_bytes = 1 << 20;
      cost.disk_bytes = 1 << 20;
      cost.replicate = rep;
      co_await cl.execute(n, 1, cost);
      t = sim.now();
    }(s, c, nic, done, replicate));
    s.run();
    return done;
  };
  const auto with = run(true);
  const auto without = run(false);
  EXPECT_GT(with, without);
  // At least the replica commit latency more.
  EXPECT_GE(with - without, cluster::PartitionServer::kReplicaCommitLatency);
}

TEST(ClusterTest, ReplicationLoadsReplicaServers) {
  Simulation s;
  StorageCluster c(s);
  netsim::Nic nic(s, client_nic());
  const std::uint64_t hash = 5;
  s.spawn([](StorageCluster& cl, netsim::Nic& n, std::uint64_t h) -> Task<> {
    RequestCost cost;
    cost.request_bytes = 4096;
    cost.disk_bytes = 4096;
    cost.replicate = true;
    co_await cl.execute(n, h, cost);
  }(c, nic, hash));
  s.run();
  const int primary = c.server_index(hash);
  EXPECT_EQ(c.server(primary).requests(), 1);
  EXPECT_EQ(c.server((primary + 1) % 16).replica_commits(), 1);
  EXPECT_EQ(c.server((primary + 2) % 16).replica_commits(), 1);
  EXPECT_EQ(c.server((primary + 3) % 16).replica_commits(), 0);
}

TEST(ClusterTest, AccountTransactionTargetRejects) {
  Simulation s;
  ClusterConfig cfg;
  cfg.account_transactions_per_sec = 10;
  StorageCluster c(s, cfg);
  netsim::Nic nic(s, client_nic());
  int ok = 0, busy = 0;
  s.spawn([](StorageCluster& cl, netsim::Nic& n, int& o, int& b) -> Task<> {
    for (int i = 0; i < 15; ++i) {
      try {
        co_await cl.execute(n, static_cast<std::uint64_t>(i), RequestCost{});
        ++o;
      } catch (const cluster::ServerBusyError&) {
        ++b;
      }
    }
  }(c, nic, ok, busy));
  s.run();
  EXPECT_EQ(ok, 10);
  EXPECT_EQ(busy, 5);
  EXPECT_EQ(c.throttle_rejections(), 5);
}

TEST(ClusterTest, NonTransactionRequestsBypassAccountTarget) {
  Simulation s;
  ClusterConfig cfg;
  cfg.account_transactions_per_sec = 1;
  StorageCluster c(s, cfg);
  netsim::Nic nic(s, client_nic());
  int ok = 0;
  s.spawn([](StorageCluster& cl, netsim::Nic& n, int& o) -> Task<> {
    RequestCost cost;
    cost.counts_as_transaction = false;
    for (int i = 0; i < 5; ++i) {
      co_await cl.execute(n, 1, cost);
      ++o;
    }
  }(c, nic, ok));
  s.run();
  EXPECT_EQ(ok, 5);
}

TEST(ClusterTest, ServerExecutorsLimitConcurrency) {
  Simulation s;
  ClusterConfig cfg;
  cfg.executors_per_server = 2;
  StorageCluster c(s, cfg);
  netsim::Nic nic(s, client_nic());
  sim::WaitGroup wg(s);
  for (int i = 0; i < 6; ++i) {
    wg.add();
    s.spawn([](StorageCluster& cl, netsim::Nic& n, sim::WaitGroup& w)
                -> Task<> {
      co_await cl.execute(n, 1, RequestCost{});  // same partition
      w.done();
    }(c, nic, wg));
  }
  TimePoint done = -1;
  s.spawn([](Simulation& sim, sim::WaitGroup& w, TimePoint& t) -> Task<> {
    co_await w.wait();
    t = sim.now();
  }(s, wg, done));
  s.run();
  EXPECT_EQ(c.server(c.server_index(1)).executors().high_watermark(), 2);
  // 6 requests, 2 at a time, kRequestOverhead+ each, behind the front end
  // -> at least 3 serialized rounds.
  EXPECT_GE(done, StorageCluster::kFrontendLatency +
                      3 * cluster::PartitionServer::kRequestOverhead);
}

TEST(ClusterTest, LargeTransferBoundByClientNic) {
  Simulation s;
  StorageCluster c(s);
  netsim::NicConfig slow = client_nic();
  slow.uplink_bytes_per_sec = 1e6;  // 1 MB/s
  slow.burst_bytes = 0;
  netsim::Nic nic(s, slow);
  TimePoint done = -1;
  s.spawn([](Simulation& sim, StorageCluster& cl, netsim::Nic& n,
             TimePoint& t) -> Task<> {
    RequestCost cost;
    cost.request_bytes = 10'000'000;  // 10 s at client NIC speed
    co_await cl.execute(n, 1, cost);
    t = sim.now();
  }(s, c, nic, done));
  s.run();
  EXPECT_GE(done, sim::seconds(10));
  EXPECT_LT(done, sim::seconds(11));
}

TEST(ClusterTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulation s;
    StorageCluster c(s);
    netsim::Nic nic(s, client_nic());
    TimePoint done = -1;
    for (int w = 0; w < 20; ++w) {
      s.spawn([](Simulation& sim, StorageCluster& cl, netsim::Nic& n, int id,
                 TimePoint& t) -> Task<> {
        for (int i = 0; i < 10; ++i) {
          RequestCost cost;
          cost.request_bytes = 1024 * (id + 1);
          cost.disk_bytes = 1024;
          cost.replicate = (i % 2) == 0;
          co_await cl.execute(n, static_cast<std::uint64_t>(id), cost);
        }
        t = sim.now();
      }(s, c, nic, w, done));
    }
    s.run();
    return done;
  };
  EXPECT_EQ(run_once(), run_once());
}


TEST(ClusterTest, LoadReportAggregatesPerServerCounters) {
  Simulation s;
  StorageCluster c(s);
  netsim::Nic nic(s, client_nic());
  for (int i = 0; i < 40; ++i) {
    s.spawn([](StorageCluster& cl, netsim::Nic& n, int id) -> Task<> {
      RequestCost cost;
      cost.request_bytes = 1024;
      cost.disk_bytes = 1024;
      cost.replicate = true;
      co_await cl.execute(n, static_cast<std::uint64_t>(id * 977), cost);
    }(c, nic, i));
  }
  s.run();
  const auto report = c.load_report();
  EXPECT_EQ(report.total_requests, 40);
  EXPECT_EQ(report.throttle_rejections, 0);
  std::int64_t requests = 0, commits = 0;
  for (const auto& server : report.servers) {
    requests += server.requests;
    commits += server.replica_commits;
    EXPECT_GE(server.executor_high_watermark, 0);
  }
  EXPECT_EQ(requests, 40);
  EXPECT_EQ(commits, 80);  // 2 replicas per replicated write
  EXPECT_GE(report.imbalance(), 1.0);
  EXPECT_LT(report.imbalance(), 4.0);  // hashed spread over 16 servers
}

TEST(ClusterTest, LoadReportImbalanceDetectsHotPartition) {
  Simulation s;
  StorageCluster c(s);
  netsim::Nic nic(s, client_nic());
  for (int i = 0; i < 64; ++i) {
    s.spawn([](StorageCluster& cl, netsim::Nic& n) -> Task<> {
      co_await cl.execute(n, /*same partition*/ 7, RequestCost{});
    }(c, nic));
  }
  s.run();
  // Everything landed on one of 16 servers: peak/mean = 16.
  EXPECT_DOUBLE_EQ(c.load_report().imbalance(), 16.0);
}

}  // namespace
