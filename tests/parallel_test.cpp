// The parallel kernel's contract suite (ctest -L parallel):
//
//  * FramePool arena isolation — per-domain free lists never alias across
//    scopes (the multi-domain regression the shared-free-list pool failed);
//  * kernel validation — option and lookahead violations throw;
//  * shard failures — run() reports the smallest failing domain at every
//    thread count, and a second run() extends the same world;
//  * determinism — a synthetic cross-domain workload and the full sharded
//    cloud scenario (plain + chaos, queue + table) produce byte-identical
//    outputs for threads=1 and threads=N, replayed twice each, and match
//    digests recorded across commits;
//  * remote_call — value, exception, and timing semantics across domains.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/hash.hpp"
#include "core/sharded_world.hpp"
#include "netsim/domain_link.hpp"
#include "simcore/frame_pool.hpp"
#include "simcore/parallel.hpp"
#include "simcore/simulation.hpp"
#include "simcore/task.hpp"
#include "simcore/time.hpp"

namespace {

using sim::detail::FramePool;

// ------------------------------------------------------------ frame pool ----

TEST(FramePoolArenaTest, ScopedArenasDoNotShareFreeLists) {
  FramePool::Arena a;
  FramePool::Arena b;
  constexpr std::size_t kSize = 256;

  void* pa = nullptr;
  {
    FramePool::Scope scope(a);
    pa = FramePool::allocate(kSize);
    FramePool::deallocate(pa, kSize);  // cached in a's free list
  }
  EXPECT_GT(a.cached(kSize), 0u);

  // The aliasing regression: with a shared free list, b's allocation would
  // return the block a just cached while a still considers it reusable.
  void* pb = nullptr;
  {
    FramePool::Scope scope(b);
    pb = FramePool::allocate(kSize);
    EXPECT_NE(pb, pa) << "arena B must not serve a block cached by arena A";
  }
  EXPECT_GT(a.cached(kSize), 0u)
      << "arena A's cache must be untouched by arena B's allocation";

  // A's cached block is still valid and comes back on A's next allocation.
  {
    FramePool::Scope scope(a);
    void* again = FramePool::allocate(kSize);
    EXPECT_EQ(again, pa);
    FramePool::deallocate(again, kSize);
  }
  {
    FramePool::Scope scope(b);
    FramePool::deallocate(pb, kSize);
  }
}

TEST(FramePoolArenaTest, ScopeRestoresPreviousBinding) {
  FramePool::Arena outer;
  FramePool::Arena inner;
  FramePool::Scope a(outer);
  void* p1 = nullptr;
  {
    FramePool::Scope b(inner);
    p1 = FramePool::allocate(128);
    FramePool::deallocate(p1, 128);
  }
  // Back under `outer`: the block cached by `inner` must not surface.
  void* p2 = FramePool::allocate(128);
  EXPECT_EQ(inner.cached(128), 1u);
  FramePool::deallocate(p2, 128);
  EXPECT_GT(outer.cached(128), 0u);
}

// ------------------------------------------------------------ validation ----

TEST(ShardedSimulationTest, RejectsMultiDomainWithoutLookahead) {
  sim::par::Options opt;
  opt.domains = 2;
  opt.lookahead = 0;
  EXPECT_THROW(sim::par::ShardedSimulation{opt}, std::invalid_argument);
}

TEST(ShardedSimulationTest, RejectsPostBelowLookahead) {
  sim::par::Options opt;
  opt.domains = 2;
  opt.lookahead = sim::millis(1);
  sim::par::ShardedSimulation shards(opt);
  EXPECT_THROW(shards.post(0, 1, sim::micros(999), [] {}),
               std::logic_error);
  EXPECT_NO_THROW(shards.post(0, 1, sim::millis(1), [] {}));
  shards.run();
  EXPECT_EQ(shards.cross_events_delivered(), 1u);
}

TEST(ShardedSimulationTest, RejectsOutOfRangeDomainIds) {
  sim::par::Options opt;
  opt.domains = 2;
  opt.lookahead = sim::millis(1);
  sim::par::ShardedSimulation shards(opt);
  EXPECT_THROW(shards.post(0, 2, sim::millis(1), [] {}), std::out_of_range);
  EXPECT_THROW(shards.post(0, -1, sim::millis(1), [] {}), std::out_of_range);
  EXPECT_THROW(shards.post(2, 0, sim::millis(1), [] {}), std::out_of_range);
  EXPECT_THROW(shards.post(-1, 1, sim::millis(1), [] {}), std::out_of_range);
  shards.run();
  EXPECT_EQ(shards.cross_events_delivered(), 0u);
}

// Which shard failure run() reports must not depend on thread timing:
// domains 1 and 3 throw at the same virtual instant, and every run at every
// thread count rethrows domain 1's error. (Every process ends at that
// instant, so no suspended frame outlives the run.)
TEST(ShardedSimulationTest, ReportsSmallestFailingDomainAtEveryThreadCount) {
  auto shard = [](sim::Simulation& s, int d) -> sim::Task<void> {
    co_await s.delay(sim::millis(5));
    if (d % 2 == 1) throw std::runtime_error("domain " + std::to_string(d));
  };
  for (const int threads : {1, 2, 4}) {
    for (int rep = 0; rep < 25; ++rep) {
      sim::par::Options opt;
      opt.domains = 4;
      opt.threads = threads;
      opt.lookahead = sim::millis(1);
      sim::par::ShardedSimulation shards(opt);
      for (int d = 0; d < opt.domains; ++d) {
        shards.domain(d).spawn(shard(shards.domain(d), d));
      }
      try {
        shards.run();
        ADD_FAILURE() << "threads=" << threads << ": no error surfaced";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "domain 1") << "threads=" << threads;
      }
    }
  }
}

TEST(ShardedSimulationTest, CrossDomainCallbackErrorSurfacesFromRun) {
  for (const int threads : {1, 2}) {
    sim::par::Options opt;
    opt.domains = 2;
    opt.threads = threads;
    opt.lookahead = sim::millis(1);
    sim::par::ShardedSimulation shards(opt);
    bool later_ran = false;
    shards.post(0, 1, sim::millis(1),
                [] { throw std::runtime_error("callback boom"); });
    shards.domain(1).schedule_at(sim::millis(3),
                                 [&later_ran] { later_ran = true; });
    try {
      shards.run();
      ADD_FAILURE() << "threads=" << threads << ": no error surfaced";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "callback boom") << "threads=" << threads;
    }
    EXPECT_FALSE(later_ran) << "the failing domain must stop";
  }
}

TEST(ShardedSimulationTest, SecondRunExtendsTheSameWorld) {
  sim::par::Options opt;
  opt.domains = 2;
  opt.threads = 2;
  opt.lookahead = sim::millis(1);
  sim::par::ShardedSimulation shards(opt);
  std::vector<sim::TimePoint> seen;  // domain 1 clock at each delivery
  auto pinger = [](sim::par::ShardedSimulation& s,
                   std::vector<sim::TimePoint>& seen) -> sim::Task<void> {
    co_await s.domain(0).delay(sim::millis(2));
    s.post(0, 1, s.domain(0).now() + s.lookahead(),
           [&s, &seen] { seen.push_back(s.domain(1).now()); });
  };
  shards.domain(0).spawn(pinger(shards, seen));
  shards.run();
  EXPECT_EQ(seen, (std::vector<sim::TimePoint>{sim::millis(3)}));
  const std::uint64_t events = shards.events_executed();
  // Domain 0's clock stayed at 2 ms, so the second pinger posts for 5 ms.
  shards.domain(0).spawn(pinger(shards, seen));
  shards.run();
  EXPECT_EQ(seen,
            (std::vector<sim::TimePoint>{sim::millis(3), sim::millis(5)}));
  EXPECT_GT(shards.events_executed(), events);
  EXPECT_EQ(shards.cross_events_delivered(), 2u);
  EXPECT_EQ(shards.max_now(), sim::millis(5));
}

// A message stamped T merges before a local event at T: it was emitted by
// T - lookahead, before any local event at T could have been created.
TEST(ShardedSimulationTest, MessageRunsBeforeLocalEventAtTheSameInstant) {
  for (const int threads : {1, 2}) {
    sim::par::Options opt;
    opt.domains = 2;
    opt.threads = threads;
    opt.lookahead = sim::millis(1);
    sim::par::ShardedSimulation shards(opt);
    std::vector<int> order;
    shards.domain(1).schedule_at(sim::millis(1),
                                 [&order] { order.push_back(2); });
    shards.post(0, 1, sim::millis(1), [&order] { order.push_back(1); });
    shards.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2})) << "threads=" << threads;
  }
}

// A self-post (src == dst) is staged at once, so it merges before a local
// event later than its stamp. The schedule below lands that later local
// event (605 us) within one lookahead of the self-post (600 us), while the
// idle neighbour leaves the posting domain the only source of windows.
TEST(ShardedSimulationTest, SelfPostMergesBeforeLaterLocalEvents) {
  for (int threads = 1; threads <= 2; ++threads) {
    sim::par::Options opt;
    opt.domains = 2;
    opt.threads = threads;
    opt.lookahead = sim::micros(100);
    sim::par::ShardedSimulation shards(opt);
    std::vector<int> order;
    auto driver = [](sim::par::ShardedSimulation& s,
                     std::vector<int>& order) -> sim::Task<void> {
      co_await s.domain(0).delay(sim::micros(10));
      co_await s.domain(0).delay(sim::micros(490));  // now = 500 us
      s.post(0, 0, s.domain(0).now() + s.lookahead(),
             [&order] { order.push_back(1); });  // self-post stamped 600 us
      // Local event at 605 us: inside (stamp, stamp + lookahead).
      co_await s.domain(0).delay(sim::micros(105));
      order.push_back(2);
    };
    auto idler = [](sim::par::ShardedSimulation& s) -> sim::Task<void> {
      // Keep domain 1 idle far in the future.
      co_await s.domain(1).delay(sim::millis(10));
    };
    shards.domain(0).spawn(driver(shards, order));
    shards.domain(1).spawn(idler(shards));
    shards.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2})) << "threads=" << threads;
    EXPECT_EQ(shards.cross_events_delivered(), 1u);
  }
}

// ---------------------------------------------- synthetic determinism ----

struct SyntheticResult {
  std::vector<int> order;  // delivery order observed at domain 0
  std::uint64_t events = 0;
  sim::TimePoint final_time = 0;
  bool operator==(const SyntheticResult&) const = default;
};

/// Each domain pings tokens around the ring; every delivery at domain 0
/// records its origin. The recorded order must be a pure function of the
/// decomposition.
SyntheticResult run_synthetic(int domains, int threads) {
  sim::par::Options opt;
  opt.domains = domains;
  opt.threads = threads;
  opt.lookahead = sim::micros(100);
  sim::par::ShardedSimulation shards(opt);
  SyntheticResult r;

  struct Token {
    int origin;
    int hops_left;
  };
  // Launcher processes: domain d emits 3 tokens with staggered cadence.
  for (int d = 0; d < domains; ++d) {
    auto launcher = [](sim::par::ShardedSimulation& s, int d,
                       SyntheticResult& r) -> sim::Task<void> {
      const int n = s.domains();
      for (int t = 0; t < 3; ++t) {
        co_await s.domain(d).delay(sim::micros(50 + 37 * d + 11 * t));
        // Forward a token around the ring; each hop re-posts from the
        // receiving domain until it lands back at 0.
        struct Hop {
          sim::par::ShardedSimulation* s;
          SyntheticResult* r;
          int origin;
          int at_domain;
          int hops_left;
          void operator()() const {
            if (at_domain == 0) r->order.push_back(origin * 100 + hops_left);
            if (hops_left == 0) return;
            const int next = (at_domain + 1) % s->domains();
            s->post(at_domain, next,
                    s->domain(at_domain).now() + s->lookahead(),
                    Hop{s, r, origin, next, hops_left - 1});
          }
        };
        const int next = (d + 1) % n;
        s.post(d, next, s.domain(d).now() + s.lookahead(),
               Hop{&s, &r, d, next, n + 1});
      }
    };
    shards.domain(d).spawn(launcher(shards, d, r));
  }
  shards.run();
  r.events = shards.events_executed();
  r.final_time = shards.max_now();
  return r;
}

TEST(ShardedSimulationTest, SyntheticWorkloadIsThreadCountInvariant) {
  const SyntheticResult seq = run_synthetic(4, 1);
  EXPECT_FALSE(seq.order.empty());
  for (int rep = 0; rep < 2; ++rep) {
    EXPECT_EQ(run_synthetic(4, 1), seq) << "sequential replay " << rep;
    EXPECT_EQ(run_synthetic(4, 4), seq) << "parallel replay " << rep;
  }
  EXPECT_EQ(run_synthetic(4, 2), seq) << "fewer threads than domains";
}

// ------------------------------------------------------------ remote RPC ----

struct RpcProbe {
  int value = 0;
  sim::TimePoint issued = 0;
  sim::TimePoint returned = 0;
  bool threw = false;
};

sim::Task<void> rpc_caller(sim::par::ShardedSimulation& shards,
                           netsim::DomainLink& req, netsim::DomainLink& resp,
                           RpcProbe& probe, bool fail) {
  probe.issued = shards.domain(0).now();
  try {
    probe.value = co_await netsim::remote_call<int>(
        req, resp, 4096, 64, [&shards, fail]() -> sim::Task<int> {
          co_await shards.domain(1).delay(sim::millis(2));
          if (fail) throw std::runtime_error("remote boom");
          co_return 42;
        });
  } catch (const std::runtime_error&) {
    probe.threw = true;
  }
  probe.returned = shards.domain(0).now();
}

TEST(DomainLinkTest, RemoteCallReturnsValueAndPaysTwoLinkLatencies) {
  sim::par::Options opt;
  opt.domains = 2;
  opt.lookahead = sim::millis(1);
  sim::par::ShardedSimulation shards(opt);
  netsim::DomainLink req(shards, 0, 1);
  netsim::DomainLink resp(shards, 1, 0);
  RpcProbe probe;
  shards.domain(0).spawn(rpc_caller(shards, req, resp, probe, false));
  shards.run();
  EXPECT_EQ(probe.value, 42);
  EXPECT_FALSE(probe.threw);
  // Two 1 ms link hops plus 2 ms of remote service time, plus link
  // occupancy: strictly more than 4 ms after issue.
  EXPECT_GE(probe.returned - probe.issued, sim::millis(4));
  EXPECT_EQ(req.transfers(), 1);
  EXPECT_EQ(resp.transfers(), 1);
}

TEST(DomainLinkTest, RemoteExceptionPropagatesToCaller) {
  sim::par::Options opt;
  opt.domains = 2;
  opt.lookahead = sim::millis(1);
  sim::par::ShardedSimulation shards(opt);
  netsim::DomainLink req(shards, 0, 1);
  netsim::DomainLink resp(shards, 1, 0);
  RpcProbe probe;
  shards.domain(0).spawn(rpc_caller(shards, req, resp, probe, true));
  shards.run();
  EXPECT_TRUE(probe.threw);
  EXPECT_EQ(probe.value, 0);
}

// ------------------------------------------------- sharded cloud parity ----

azurebench::ShardedCloudConfig small_cloud() {
  azurebench::ShardedCloudConfig cfg;
  cfg.domains = 4;
  cfg.total_servers = 16;
  cfg.total_workers = 8;
  cfg.ops_per_worker = 5;
  cfg.observe = true;
  return cfg;
}

void expect_parity(azurebench::ShardedCloudConfig cfg, const char* what) {
  cfg.threads = 1;
  const azurebench::ShardedCloudResult seq = azurebench::run_sharded_cloud(cfg);
  EXPECT_GT(seq.events_executed, 0u) << what;
  EXPECT_GT(seq.cross_events, 0u) << what;
  for (int rep = 0; rep < 2; ++rep) {
    cfg.threads = 1;
    const auto seq2 = azurebench::run_sharded_cloud(cfg);
    EXPECT_TRUE(seq.outputs_equal(seq2))
        << what << ": sequential replay " << rep << " diverged";
    cfg.threads = cfg.domains;
    const auto par = azurebench::run_sharded_cloud(cfg);
    EXPECT_TRUE(seq.outputs_equal(par))
        << what << ": parallel replay " << rep
        << " diverged from sequential.\nseq:\n"
        << seq.figure_table << "par:\n" << par.figure_table;
    EXPECT_EQ(seq.obs_json, par.obs_json) << what;
    EXPECT_EQ(seq.figure_table, par.figure_table) << what;
    EXPECT_EQ(seq.fault_log, par.fault_log) << what;
  }
}

TEST(ShardedCloudParityTest, QueueScenario) {
  expect_parity(small_cloud(), "queue");
}

TEST(ShardedCloudParityTest, QueueChaosScenario) {
  azurebench::ShardedCloudConfig cfg = small_cloud();
  cfg.chaos = true;
  cfg.total_crashes = 2;
  cfg.crash_mean_interval = sim::millis(400);
  cfg.server_downtime = sim::millis(150);
  expect_parity(cfg, "queue-chaos");
}

TEST(ShardedCloudParityTest, TableScenario) {
  azurebench::ShardedCloudConfig cfg = small_cloud();
  cfg.mode = azurebench::ShardedCloudConfig::Mode::kTable;
  expect_parity(cfg, "table");
}

// Regression: the remote table upsert used to move the entity into the
// retry factory, so any retried attempt re-submitted a moved-from entity
// with empty keys (InvalidArgumentError). Aggressive link faults force
// retries on the cross-shard inserts.
TEST(ShardedCloudParityTest, TableChaosScenario) {
  azurebench::ShardedCloudConfig cfg = small_cloud();
  cfg.mode = azurebench::ShardedCloudConfig::Mode::kTable;
  cfg.ops_per_worker = 20;
  cfg.chaos = true;
  cfg.total_crashes = 2;
  cfg.crash_mean_interval = sim::millis(400);
  cfg.server_downtime = sim::millis(150);
  cfg.drop_probability = 0.15;
  expect_parity(cfg, "table-chaos");
}

// ----------------------------------------------- open-loop load parity ----

azurebench::ShardedCloudConfig open_loop_cloud() {
  azurebench::ShardedCloudConfig cfg = small_cloud();
  cfg.open_loop = true;
  cfg.arrivals_per_sec = 500.0;
  cfg.sessions_per_domain = 40;
  cfg.session_window = 8;
  cfg.session_pending = 32;
  return cfg;
}

TEST(ShardedCloudParityTest, OpenLoopQueueScenario) {
  expect_parity(open_loop_cloud(), "open-queue");
}

TEST(ShardedCloudParityTest, OpenLoopTableScenario) {
  azurebench::ShardedCloudConfig cfg = open_loop_cloud();
  cfg.mode = azurebench::ShardedCloudConfig::Mode::kTable;
  expect_parity(cfg, "open-table");
}

TEST(ShardedCloudParityTest, OpenLoopChaosScenario) {
  azurebench::ShardedCloudConfig cfg = open_loop_cloud();
  cfg.chaos = true;
  cfg.total_crashes = 2;
  cfg.crash_mean_interval = sim::millis(400);
  cfg.server_downtime = sim::millis(150);
  expect_parity(cfg, "open-queue-chaos");
}

TEST(ShardedCloudParityTest, OpenLoopEngineAccountingIsThreadCountInvariant) {
  azurebench::ShardedCloudConfig cfg = open_loop_cloud();
  cfg.threads = cfg.domains;
  const auto r = azurebench::run_sharded_cloud(cfg);
  ASSERT_EQ(r.load.size(), static_cast<std::size_t>(cfg.domains));
  ASSERT_EQ(r.workers.size(), static_cast<std::size_t>(cfg.domains));
  for (const auto& ls : r.load) {
    EXPECT_EQ(ls.offered, cfg.sessions_per_domain);
    EXPECT_EQ(ls.offered, ls.admitted + ls.shed);
    EXPECT_EQ(ls.admitted, ls.completed + ls.dead_lettered);
    EXPECT_EQ(ls.slot_acquires, ls.slot_releases);
    EXPECT_LE(ls.peak_in_flight, cfg.session_window);
    EXPECT_LE(ls.peak_pending, cfg.session_pending);
  }
  cfg.threads = 1;
  const auto seq = azurebench::run_sharded_cloud(cfg);
  EXPECT_EQ(seq.load.size(), r.load.size());
  for (std::size_t d = 0; d < r.load.size(); ++d) {
    EXPECT_EQ(seq.load[d], r.load[d]) << "domain " << d;
  }
}

TEST(ShardedCloudParityTest, OpenLoopRejectsInvalidConfig) {
  azurebench::ShardedCloudConfig cfg = open_loop_cloud();
  cfg.arrivals_per_sec = 0.0;
  EXPECT_THROW(azurebench::run_sharded_cloud(cfg), std::invalid_argument);
  cfg = open_loop_cloud();
  cfg.sessions_per_domain = 0;
  EXPECT_THROW(azurebench::run_sharded_cloud(cfg), std::invalid_argument);
  cfg = open_loop_cloud();
  cfg.session_window = 0;
  EXPECT_THROW(azurebench::run_sharded_cloud(cfg), std::invalid_argument);
}

TEST(ShardedCloudParityTest, ChaosRunRecordsFaults) {
  azurebench::ShardedCloudConfig cfg = small_cloud();
  cfg.chaos = true;
  cfg.total_crashes = 2;
  cfg.crash_mean_interval = sim::millis(400);
  cfg.server_downtime = sim::millis(150);
  cfg.threads = cfg.domains;
  const auto r = azurebench::run_sharded_cloud(cfg);
  std::int64_t crashes = 0;
  std::int64_t restarts = 0;
  sim::TimePoint prev = 0;
  for (const auto& [domain, rec] : r.fault_log) {
    EXPECT_GE(rec.at, prev) << "fault log must be time-sorted";
    prev = rec.at;
    crashes += rec.kind == faults::FaultKind::kServerCrash ? 1 : 0;
    restarts += rec.kind == faults::FaultKind::kServerRestart ? 1 : 0;
  }
  EXPECT_EQ(crashes, 2);
  EXPECT_EQ(restarts, 2);
}

TEST(ShardedCloudParityTest, FewerThreadsThanDomainsMatches) {
  azurebench::ShardedCloudConfig cfg = small_cloud();
  cfg.threads = 1;
  const auto seq = azurebench::run_sharded_cloud(cfg);
  cfg.threads = 3;  // domains=4 multiplexed onto 3 workers
  const auto par = azurebench::run_sharded_cloud(cfg);
  EXPECT_TRUE(seq.outputs_equal(par));
}

// With a single domain every chaos command is a self-post and the window
// horizon is unbounded, so the whole workload runs in one window. Staged
// self-posts must still land exactly at their stamps: each crash at its
// stamp and each restart exactly one downtime later.
TEST(ShardedCloudParityTest, SingleDomainChaosDeliversSelfPostsOnTime) {
  azurebench::ShardedCloudConfig cfg = small_cloud();
  cfg.domains = 1;
  cfg.total_servers = 16;
  cfg.total_workers = 8;
  cfg.chaos = true;
  cfg.total_crashes = 2;
  cfg.crash_mean_interval = sim::millis(400);
  cfg.server_downtime = sim::millis(150);
  const auto r1 = azurebench::run_sharded_cloud(cfg);
  std::vector<sim::TimePoint> crashes;
  std::vector<sim::TimePoint> restarts;
  for (const auto& [domain, rec] : r1.fault_log) {
    if (rec.kind == faults::FaultKind::kServerCrash) {
      crashes.push_back(rec.at);
    } else if (rec.kind == faults::FaultKind::kServerRestart) {
      restarts.push_back(rec.at);
    }
  }
  ASSERT_EQ(crashes.size(), 2u);
  ASSERT_EQ(restarts.size(), 2u);
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    EXPECT_EQ(restarts[i] - crashes[i], cfg.server_downtime)
        << "injection " << i
        << " was not delivered at its stamped time";
  }
  const auto r2 = azurebench::run_sharded_cloud(cfg);
  EXPECT_TRUE(r1.outputs_equal(r2));
  EXPECT_EQ(r1.figure_table, r2.figure_table);
  EXPECT_EQ(r1.fault_log, r2.fault_log);
}

// ------------------------------------------------ cross-commit digests ----

/// Every field ShardedCloudResult::outputs_equal compares, as text.
std::string render_outputs(const azurebench::ShardedCloudResult& r) {
  std::ostringstream out;
  out << "events " << r.events_executed << "\ncross " << r.cross_events
      << "\nfinal " << r.final_time << '\n';
  for (const auto& w : r.workers) {
    out << "worker " << w.puts << ' ' << w.gets << ' ' << w.deletes << ' '
        << w.remote_ops << ' ' << w.retries << '\n';
  }
  for (const auto& l : r.load) {
    out << "load " << l.offered << ' ' << l.admitted << ' ' << l.shed << ' '
        << l.completed << ' ' << l.dead_lettered << ' ' << l.throttle_failures
        << ' ' << l.peak_in_flight << ' ' << l.peak_pending << ' '
        << l.slot_high_water << ' ' << l.slot_acquires << ' '
        << l.slot_releases << ' ' << l.first_admission << ' '
        << l.last_completion << '\n';
  }
  for (const auto& [domain, rec] : r.fault_log) {
    out << "fault " << domain << ' ' << rec.at << ' '
        << static_cast<int>(rec.kind) << ' ' << rec.detail << '\n';
  }
  out << r.obs_json << '\n' << r.figure_table;
  return out.str();
}

// The parity suite above compares thread counts within one build; these
// digests pin the outputs themselves, so a kernel change that moved every
// thread count's output the same way still fails. Re-record a digest only
// for an intended model change (the failure message prints the new value).
TEST(ShardedCloudDigestTest, OutputsMatchRecordedDigests) {
  struct Case {
    const char* name;
    bool table;
    bool open_loop;
    bool chaos;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"queue", false, false, false, 0xbffae4b768ed0fefull},
      {"queue-chaos", false, false, true, 0x2ba543b2c5eae65eull},
      {"queue-open", false, true, false, 0x16e26ff2a8743a08ull},
      {"queue-open-chaos", false, true, true, 0x0038c5028d43ec45ull},
      {"table", true, false, false, 0xfaefefe3cd6920a0ull},
      {"table-chaos", true, false, true, 0x58bcd933221517bbull},
      {"table-open", true, true, false, 0xa308d3a1de80490bull},
      {"table-open-chaos", true, true, true, 0x14f5d0d4f3f6077cull},
  };
  for (const Case& c : cases) {
    azurebench::ShardedCloudConfig cfg =
        c.open_loop ? open_loop_cloud() : small_cloud();
    if (c.table) cfg.mode = azurebench::ShardedCloudConfig::Mode::kTable;
    if (c.chaos) {
      cfg.chaos = true;
      cfg.total_crashes = 2;
      cfg.crash_mean_interval = sim::millis(400);
      cfg.server_downtime = sim::millis(150);
    }
    for (const int threads : {1, 0}) {
      cfg.threads = threads;
      const std::uint64_t digest =
          cluster::fnv1a(render_outputs(azurebench::run_sharded_cloud(cfg)));
      EXPECT_EQ(digest, c.digest)
          << c.name << " threads=" << threads << ": digest 0x" << std::hex
          << digest;
    }
  }
}

TEST(ShardedCloudParityTest, SingleDomainDegeneratesCleanly) {
  azurebench::ShardedCloudConfig cfg = small_cloud();
  cfg.domains = 1;
  cfg.total_servers = 16;
  cfg.total_workers = 8;
  const auto r = azurebench::run_sharded_cloud(cfg);
  EXPECT_GT(r.events_executed, 0u);
  EXPECT_EQ(r.cross_events, 0u);  // no remote turns with a single shard
  for (const auto& wstat : r.workers) EXPECT_EQ(wstat.remote_ops, 0);
}

}  // namespace
