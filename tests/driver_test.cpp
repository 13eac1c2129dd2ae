// Conformance suite for the backend-agnostic storage::Driver layer: every
// backend honours the uniform object-op contract (roundtrip, miss
// reporting, typed errors), while the *differences* the drivers exist to
// model stay observable — Azure's 404-on-absent-delete vs S3's idempotent
// 204, S3's eventual list-after-write window, per-prefix 503 SlowDown vs
// the account-wide ServerBusy gate, which backends carry the Azure stamp
// that serves queue/table/sql, and tiered placement/migration. Ends with
// run-vs-run replay determinism of the cross-backend scenario specs
// through the real interpreter (bench/scenario_runner.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/errors.hpp"
#include "cluster/storage_cluster.hpp"
#include "framework/scenario.hpp"
#include "netsim/nic.hpp"
#include "scenario_runner.hpp"
#include "simcore/simulation.hpp"
#include "simcore/sync.hpp"
#include "simcore/task.hpp"
#include "storage/azure_driver.hpp"
#include "storage/driver.hpp"
#include "storage/s3_object_service.hpp"
#include "storage/tiered_driver.hpp"

namespace {

using framework::BackendKind;
using Service = framework::ScenarioMixEntry::Service;
using sim::Task;
using storage::OpResult;

netsim::NicConfig client_nic() {
  return netsim::NicConfig{100e6, 100e6, sim::micros(50), 64 * 1024.0};
}

/// One simulation + one driver of the requested kind + one client NIC.
struct DriverWorld {
  explicit DriverWorld(BackendKind kind,
                       std::int64_t split_bytes = 256 * 1024) {
    sc.backend = kind;
    sc.tier_split_bytes = split_bytes;
    driver = storage::make_driver(sim, sc);
  }

  sim::Simulation sim;
  framework::Scenario sc;
  std::unique_ptr<storage::Driver> driver;
  netsim::Nic nic{sim, client_nic()};
};

template <class Body>
void run(DriverWorld& w, Body body) {
  w.sim.spawn(body(w));
  w.sim.run();
}

// --------------------------------------------------- cross-backend laws ----

class DriverConformance : public ::testing::TestWithParam<BackendKind> {};

INSTANTIATE_TEST_SUITE_P(
    AllBackends, DriverConformance,
    ::testing::Values(BackendKind::kAzure, BackendKind::kS3,
                      BackendKind::kTiered),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return framework::backend_name(info.param);
    });

TEST_P(DriverConformance, ObjectRoundtripThenDeleteMakesReadsMiss) {
  DriverWorld w(GetParam());
  run(w, [](DriverWorld& t) -> Task<> {
    co_await t.driver->prepare_objects(t.nic);
    const OpResult wr = co_await t.driver->object_write(t.nic, "a/k1", 2048);
    EXPECT_EQ(wr.bytes, 2048);
    EXPECT_FALSE(wr.miss);
    const OpResult rd = co_await t.driver->object_read(t.nic, "a/k1");
    EXPECT_EQ(rd.bytes, 2048);
    EXPECT_FALSE(rd.miss);
    const OpResult del = co_await t.driver->object_delete(t.nic, "a/k1");
    EXPECT_FALSE(del.miss);  // the key existed on every backend
    const OpResult gone = co_await t.driver->object_read(t.nic, "a/k1");
    EXPECT_TRUE(gone.miss);
    EXPECT_EQ(gone.bytes, 0);
  });
}

TEST_P(DriverConformance, ReadOfAbsentKeyIsAMissNotAnError) {
  DriverWorld w(GetParam());
  run(w, [](DriverWorld& t) -> Task<> {
    co_await t.driver->prepare_objects(t.nic);
    const OpResult rd = co_await t.driver->object_read(t.nic, "nope");
    EXPECT_TRUE(rd.miss);
    EXPECT_EQ(rd.bytes, 0);
  });
}

TEST_P(DriverConformance, DeleteOfAbsentKeySplitsByContract) {
  // The one op whose *outcome* is backend-defined: Azure 404s (a miss),
  // S3 returns an idempotent 204 (a completed op). Tiered routes unknown
  // keys to the fast (Azure) tier, so it inherits the 404.
  DriverWorld w(GetParam());
  const bool expect_miss = GetParam() != BackendKind::kS3;
  run(w, [expect_miss](DriverWorld& t) -> Task<> {
    co_await t.driver->prepare_objects(t.nic);
    const OpResult del = co_await t.driver->object_delete(t.nic, "ghost");
    EXPECT_EQ(del.miss, expect_miss);
  });
}

// Queue, table and SQL run on the Azure stamp a backend carries: the
// driver itself on azure, the fast tier on tiered, none on s3.
TEST_P(DriverConformance, QueueGroupHonoursCapabilityFlag) {
  DriverWorld w(GetParam());
  if (!framework::backend_supports(GetParam(), Service::kQueue)) {
    EXPECT_EQ(w.driver->azure(), nullptr);
    return;
  }
  if (GetParam() == BackendKind::kAzure) {
    EXPECT_EQ(w.driver->azure(), w.driver.get());
  }
  run(w, [](DriverWorld& t) -> Task<> {
    storage::AzureDriver& stamp = *t.driver->azure();
    co_await stamp.prepare_queue(t.nic, "q0");
    const OpResult empty = co_await stamp.queue_get(t.nic, "q0");
    EXPECT_TRUE(empty.miss);
    const OpResult put = co_await stamp.queue_put(t.nic, "q0", 512);
    EXPECT_EQ(put.bytes, 512);
    const OpResult peek = co_await stamp.queue_peek(t.nic, "q0");
    EXPECT_EQ(peek.bytes, 512);
    const OpResult got = co_await stamp.queue_get(t.nic, "q0");
    EXPECT_EQ(got.bytes, 512);
    EXPECT_FALSE(got.miss);
  });
}

TEST_P(DriverConformance, TableGroupHonoursCapabilityFlag) {
  DriverWorld w(GetParam());
  if (!framework::backend_supports(GetParam(), Service::kTable)) {
    EXPECT_EQ(w.driver->azure(), nullptr);
    return;
  }
  run(w, [](DriverWorld& t) -> Task<> {
    storage::AzureDriver& stamp = *t.driver->azure();
    co_await stamp.prepare_table(t.nic);
    const OpResult absent = co_await stamp.table_read(t.nic, "p0", "r0");
    EXPECT_TRUE(absent.miss);
    const OpResult ins = co_await stamp.table_insert(t.nic, "p0", "r0", 256);
    EXPECT_EQ(ins.bytes, 256);
    const OpResult rd = co_await stamp.table_read(t.nic, "p0", "r0");
    EXPECT_FALSE(rd.miss);
    EXPECT_GT(rd.bytes, 0);
    const OpResult scan = co_await stamp.table_scan(t.nic, "p0");
    EXPECT_FALSE(scan.miss);
    const OpResult rmw = co_await stamp.table_rmw(t.nic, "p0", "r0", 128);
    EXPECT_FALSE(rmw.miss);
  });
}

TEST_P(DriverConformance, SqlGroupHonoursCapabilityFlag) {
  DriverWorld w(GetParam());
  if (!framework::backend_supports(GetParam(), Service::kSql)) {
    EXPECT_EQ(w.driver->azure(), nullptr);
    return;
  }
  run(w, [](DriverWorld& t) -> Task<> {
    storage::AzureDriver& stamp = *t.driver->azure();
    co_await stamp.prepare_sql(t.nic);
    const OpResult absent = co_await stamp.sql_read(t.nic, 42);
    EXPECT_TRUE(absent.miss);
    const OpResult wr = co_await stamp.sql_write(t.nic, 42, 100);
    EXPECT_EQ(wr.bytes, 100);
    const OpResult rd = co_await stamp.sql_read(t.nic, 42);
    EXPECT_FALSE(rd.miss);
    EXPECT_EQ(rd.bytes, 100);
  });
}

TEST(DriverErrorTaxonomy, SlowDownIsAServerBusy) {
  // S3's 503 SlowDown takes the same client backoff as Azure's ServerBusy.
  static_assert(
      std::is_base_of_v<cluster::ServerBusyError, cluster::SlowDownError>);
  SUCCEED();
}

// ------------------------------------------------- S3 contract specifics ----

TEST(S3DriverTest, ListLagsWritesByTheVisibilityWindow) {
  DriverWorld w(BackendKind::kS3);
  run(w, [](DriverWorld& t) -> Task<> {
    co_await t.driver->prepare_objects(t.nic);
    co_await t.driver->object_write(t.nic, "logs/e1", 1024);
    // GET is read-after-write...
    const OpResult rd = co_await t.driver->object_read(t.nic, "logs/e1");
    EXPECT_FALSE(rd.miss);
    // ...but LIST does not show the key until the lag elapses.
    const OpResult early = co_await t.driver->object_list(t.nic);
    EXPECT_EQ(early.items, 0);
    co_await t.sim.delay(sim::millis(600));
    const OpResult late = co_await t.driver->object_list(t.nic);
    EXPECT_EQ(late.items, 1);
  });
}

TEST(S3DriverTest, DeletedKeyStaysListedUntilTheLagElapses) {
  DriverWorld w(BackendKind::kS3);
  run(w, [](DriverWorld& t) -> Task<> {
    co_await t.driver->prepare_objects(t.nic);
    co_await t.driver->object_write(t.nic, "logs/e1", 1024);
    co_await t.sim.delay(sim::millis(600));  // let the PUT become listed
    co_await t.driver->object_delete(t.nic, "logs/e1");
    // GET 404s immediately; LIST keeps the tombstoned key for the lag.
    const OpResult rd = co_await t.driver->object_read(t.nic, "logs/e1");
    EXPECT_TRUE(rd.miss);
    const OpResult early = co_await t.driver->object_list(t.nic);
    EXPECT_EQ(early.items, 1);
    co_await t.sim.delay(sim::millis(600));
    const OpResult late = co_await t.driver->object_list(t.nic);
    EXPECT_EQ(late.items, 0);
  });
}

/// Direct service-level throttle check at S3's per-prefix targets. A burst
/// issued at one instant meets one prefix window, so it trips the window at
/// exactly one request past the budget.
struct S3ThrottleWorld {
  static cluster::ClusterConfig config() {
    cluster::ClusterConfig cc;
    cc.throttle_mode = cluster::ThrottleMode::kPrefixSlowdown;
    return cc;
  }

  sim::Simulation sim;
  cluster::StorageCluster cluster{sim, config()};
  storage::S3ObjectService s3{cluster};
  netsim::Nic nic{sim, client_nic()};
};

/// `n` keys "<prefix>0", "<prefix>1", ..., cycling through `distinct` names.
std::vector<std::string> keys(const std::string& prefix, std::int64_t n,
                              std::int64_t distinct) {
  std::vector<std::string> out;
  for (std::int64_t i = 0; i < n; ++i) {
    std::string key = prefix;
    key += std::to_string(i % distinct);
    out.push_back(std::move(key));
  }
  return out;
}

Task<> s3_request(S3ThrottleWorld& t, std::string key, bool read,
                  int& slowed, sim::WaitGroup& wg) {
  try {
    if (read) {
      EXPECT_EQ((co_await t.s3.get_object(t.nic, "b", key)).size(), 64);
    } else {
      co_await t.s3.put_object(t.nic, "b", key, azure::Payload::synthetic(64));
    }
  } catch (const cluster::SlowDownError&) {
    ++slowed;
  }
  wg.done();
}

/// PUTs (or, with `read`, GETs) every key concurrently from one instant and
/// returns how many were rejected with 503 SlowDown.
Task<int> burst(S3ThrottleWorld& t, std::vector<std::string> names,
                bool read) {
  int slowed = 0;
  sim::WaitGroup wg(t.sim);
  for (std::string& key : names) {
    wg.add();
    t.sim.spawn(s3_request(t, std::move(key), read, slowed, wg));
  }
  co_await wg.wait();
  co_return slowed;
}

TEST(S3DriverTest, PrefixWriteBurstRaisesSlowDownAndSparesOtherPrefixes) {
  S3ThrottleWorld w;
  w.sim.spawn([](S3ThrottleWorld& t) -> Task<> {
    co_await t.s3.create_bucket(t.nic, "b");
    // One write past the "hot" prefix's budget inside one window.
    constexpr std::int64_t kWrites =
        cluster::StorageCluster::kPrefixWritesPerSec + 1;
    EXPECT_EQ(co_await burst(t, keys("hot/k", kWrites, kWrites), false), 1);
    EXPECT_EQ(t.cluster.prefix_slowdowns(), 1);
    // A different prefix has its own windows: not throttled.
    co_await t.s3.put_object(t.nic, "b", "cold/k0",
                             azure::Payload::synthetic(64));
    // The client-visible class is the shared backoff signal.
    bool busy = false;
    try {
      co_await t.s3.put_object(t.nic, "b", "hot/late",
                               azure::Payload::synthetic(64));
    } catch (const cluster::ServerBusyError&) {
      busy = true;
    }
    EXPECT_TRUE(busy);
  }(w));
  w.sim.run();
}

TEST(S3DriverTest, ReadsAndWritesMeterSeparatePrefixWindows) {
  S3ThrottleWorld w;
  w.sim.spawn([](S3ThrottleWorld& t) -> Task<> {
    co_await t.s3.create_bucket(t.nic, "b");
    constexpr std::int64_t kWrites =
        cluster::StorageCluster::kPrefixWritesPerSec;
    constexpr std::int64_t kReads =
        cluster::StorageCluster::kPrefixReadsPerSec;
    EXPECT_EQ(co_await burst(t, keys("p/k", kWrites, kWrites), false), 0);
    // The write window for "p" is exhausted...
    bool slowed = false;
    try {
      co_await t.s3.put_object(t.nic, "b", "p/late",
                               azure::Payload::synthetic(64));
    } catch (const cluster::SlowDownError&) {
      slowed = true;
    }
    EXPECT_TRUE(slowed);
    // ...yet reads still flow: their budget is separate and larger, and
    // only the read one past it is slowed.
    EXPECT_EQ(co_await burst(t, keys("p/k", kReads + 1, kWrites), true), 1);
  }(w));
  w.sim.run();
}

// --------------------------------------------------- tiered placement ----

struct TieredWorld {
  explicit TieredWorld(std::int64_t split_bytes)
      : sc(tiered_scenario(split_bytes)) {}

  static framework::Scenario tiered_scenario(std::int64_t split_bytes) {
    framework::Scenario sc;
    sc.backend = BackendKind::kTiered;
    sc.tier_split_bytes = split_bytes;
    return sc;
  }

  sim::Simulation sim;
  framework::Scenario sc;  // must precede driver (it reads the split)
  storage::TieredDriver driver{sim, sc};
  netsim::Nic nic{sim, client_nic()};
};

TEST(TieredDriverTest, WritesRouteBySizeAndOverwritesMigrate) {
  TieredWorld w(4096);
  w.sim.spawn([](TieredWorld& t) -> Task<> {
    co_await t.driver.prepare_objects(t.nic);
    // Small write lands on the fast tier.
    co_await t.driver.object_write(t.nic, "k", 1000);
    const OpResult fast_rd =
        co_await t.driver.azure()->object_read(t.nic, "k");
    EXPECT_FALSE(fast_rd.miss);
    // Overwrite past the split: migrates to the capacity tier.
    co_await t.driver.object_write(t.nic, "k", 8192);
    const OpResult gone_fast =
        co_await t.driver.azure()->object_read(t.nic, "k");
    EXPECT_TRUE(gone_fast.miss);
    const OpResult rd = co_await t.driver.object_read(t.nic, "k");
    EXPECT_FALSE(rd.miss);
    EXPECT_EQ(rd.bytes, 8192);
    // Delete follows the placement.
    co_await t.driver.object_delete(t.nic, "k");
    const OpResult gone = co_await t.driver.object_read(t.nic, "k");
    EXPECT_TRUE(gone.miss);
  }(w));
  w.sim.run();
}

TEST(TieredDriverTest, ListMergesBothTiers) {
  TieredWorld w(4096);
  w.sim.spawn([](TieredWorld& t) -> Task<> {
    co_await t.driver.prepare_objects(t.nic);
    co_await t.driver.object_write(t.nic, "small", 100);
    co_await t.driver.object_write(t.nic, "large", 100000);
    // The capacity half lags: immediately after the writes only the fast
    // tier's entry is visible.
    const OpResult early = co_await t.driver.object_list(t.nic);
    EXPECT_EQ(early.items, 1);
    co_await t.sim.delay(sim::millis(600));
    const OpResult late = co_await t.driver.object_list(t.nic);
    EXPECT_EQ(late.items, 2);
  }(w));
  w.sim.run();
}

// ------------------------------------------------- replay determinism ----

std::string report_of(const framework::Scenario& sc) {
  const benchscn::ScenarioRunResult r =
      benchscn::run_generic_scenario(sc, nullptr);
  return benchscn::canonical_report(sc, r);
}

framework::Scenario small_cross_backend_spec(const std::string& backend) {
  // tier_split_bytes only parses for the tiered backend.
  const std::string split =
      backend == "tiered" ? "\"tier_split_bytes\": 8192,\n" : "";
  const std::string text = std::string(R"({
    "name": "driver_replay",
    "backend": ")") + backend + "\",\n" + split + R"(
    "seed": 77,
    "operations": 250,
    "populate": 40,
    "arrivals": {"kind": "poisson", "rate_per_sec": 300.0},
    "keys": {"kind": "zipf", "space": 64, "zipf_s": 0.9},
    "values": {"min_bytes": 1024, "max_bytes": 16384},
    "mix": [
      {"service": "blob", "op": "mixed", "weight": 4.0},
      {"service": "blob", "op": "list", "weight": 0.3},
      {"service": "blob", "op": "delete", "weight": 0.7}
    ]
  })";
  return framework::parse_scenario(text);
}

TEST(DriverReplayTest, S3ScenarioReplaysByteIdentically) {
  const framework::Scenario sc = small_cross_backend_spec("s3");
  EXPECT_EQ(report_of(sc), report_of(sc));
}

TEST(DriverReplayTest, TieredScenarioReplaysByteIdentically) {
  const framework::Scenario sc = small_cross_backend_spec("tiered");
  EXPECT_EQ(report_of(sc), report_of(sc));
}

TEST(DriverReplayTest, RunnerRejectsAServiceTheBackendLacks) {
  // The parser never lets this through; a Scenario built in code must get
  // the typed error too, not a call on the s3 backend's missing stamp.
  framework::Scenario sc;
  sc.name = "hand_built";
  sc.backend = BackendKind::kS3;
  sc.operations = 10;
  sc.mix.resize(2);
  sc.mix[0].service = Service::kBlob;
  sc.mix[0].op = "read";
  sc.mix[1].service = Service::kQueue;
  sc.mix[1].op = "put";
  try {
    (void)benchscn::run_generic_scenario(sc, nullptr);
    FAIL() << "expected ScenarioError";
  } catch (const framework::ScenarioError& e) {
    EXPECT_EQ(e.path(), "scenario.mix[1].service");
    EXPECT_EQ(e.reason(), "backend 's3' has no queue service");
    // A Scenario built in code has no spec location to report.
    EXPECT_EQ(std::string(e.what()).find("(line 0"), std::string::npos)
        << e.what();
  }
}

TEST(DriverReplayTest, BackendsDivergeOnTheSameWorkload) {
  // Same seed, same mix — different contracts must yield different
  // reports (if they did not, the second backend would be a re-skin).
  const std::string azure_report =
      report_of(small_cross_backend_spec("azure"));
  const std::string s3_report = report_of(small_cross_backend_spec("s3"));
  EXPECT_NE(azure_report, s3_report);
}

}  // namespace
