#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "azure/cloud_storage_account.hpp"
#include "azure/environment.hpp"
#include "cluster/errors.hpp"
#include "cluster/storage_cluster.hpp"
#include "faults/fault_plan.hpp"
#include "framework/arrivals.hpp"
#include "framework/keygen.hpp"
#include "framework/load_engine.hpp"
#include "framework/scenario.hpp"
#include "netsim/network.hpp"
#include "netsim/nic.hpp"
#include "simcore/rate_limiter.hpp"
#include "simcore/simulation.hpp"
#include "workloads.hpp"

namespace hostbench {
namespace {

using Clock = std::chrono::steady_clock;
constexpr int kReps = 5;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median over kReps of `rep()` (host seconds for `calls` calls), scaled to
/// nanoseconds per call.
template <class Rep>
double ns_per_call(std::int64_t calls, Rep rep) {
  std::vector<double> t;
  for (int i = 0; i < kReps; ++i) t.push_back(rep());
  std::sort(t.begin(), t.end());
  return t[t.size() / 2] * 1e9 / static_cast<double>(calls);
}

/// Fails the loop loudly when it did not do the work it is timed for.
void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("layer loop: ") + what);
}

netsim::NicConfig client_nic() {
  return netsim::NicConfig{100e6, 100e6, sim::micros(50), 64 * 1024.0};
}

// ---------------------------------------------------------------- simcore --

/// A callback that reschedules itself `stride` ahead while budget lasts.
/// Distinct strides keep the heap reordering, as interleaved processes do.
struct Tick {
  sim::Simulation* s;
  std::int64_t* budget;
  sim::Duration stride;
  void operator()() const {
    if (*budget <= 0) return;
    --*budget;
    s->schedule_in(stride, *this);
  }
};

double dispatch_ns() {
  constexpr std::int64_t n = 1'000'000;
  constexpr int kPending = 1024;  // keeps the 4-ary heap several levels deep
  return ns_per_call(n, [] {
    sim::Simulation s;
    std::int64_t budget = n - kPending;
    const auto t0 = Clock::now();
    for (int i = 0; i < kPending; ++i) {
      s.schedule_at(i, Tick{&s, &budget, 1000 + i});
    }
    s.run();
    const double dt = since(t0);
    require(s.events_executed() == n, "dispatch count");
    return dt;
  });
}

sim::Task<void> delay_loop(sim::Simulation& s, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) co_await s.delay(1);
}

double resume_ns() {
  constexpr std::int64_t n = 1'000'000;
  return ns_per_call(n, [] {
    sim::Simulation s;
    s.spawn(delay_loop(s, n));
    const auto t0 = Clock::now();
    s.run();
    const double dt = since(t0);
    require(s.now() == n, "resume count");
    return dt;
  });
}

sim::Task<void> empty_process() { co_return; }

double spawn_ns() {
  constexpr std::int64_t n = 200'000;
  return ns_per_call(n, [] {
    sim::Simulation s;
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < n; ++i) s.spawn(empty_process());
    s.run();
    const double dt = since(t0);
    require(s.live_processes() == 0, "spawned processes finished");
    return dt;
  });
}

sim::Task<void> limiter_loop(sim::FlowLimiter& l, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) co_await l.acquire(1024.0);
}

double limiter_ns() {
  constexpr std::int64_t n = 1'000'000;
  return ns_per_call(n, [] {
    sim::Simulation s;
    sim::FlowLimiter limiter(s, 1e9);
    s.spawn(limiter_loop(limiter, n));
    const auto t0 = Clock::now();
    s.run();
    return since(t0);
  });
}

// ----------------------------------------------------------------- netsim --

sim::Task<void> transfer_loop(netsim::Network& net, netsim::Nic& a,
                              netsim::Nic& b, std::int64_t bytes,
                              std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) co_await net.transfer(a, b, bytes);
}

double transfer_ns(std::int64_t bytes) {
  constexpr std::int64_t n = 100'000;
  return ns_per_call(n, [bytes] {
    sim::Simulation s;
    netsim::Network net(s);
    netsim::Nic a(s, client_nic());
    netsim::Nic b(s, client_nic());
    s.spawn(transfer_loop(net, a, b, bytes, n));
    const auto t0 = Clock::now();
    s.run();
    const double dt = since(t0);
    require(net.transfers() == n, "transfer count");
    return dt;
  });
}

// ---------------------------------------------------------------- cluster --

sim::Task<void> execute_loop(cluster::StorageCluster& c, netsim::Nic& nic,
                             std::int64_t n) {
  cluster::RequestCost cost;
  cost.request_bytes = 1024;
  cost.disk_bytes = 1024;
  cost.replicate = true;
  for (std::int64_t i = 0; i < n; ++i) {
    (void)co_await c.execute(nic, static_cast<std::uint64_t>(i) * 0x9E37, cost);
  }
}

double execute_ns() {
  constexpr std::int64_t n = 20'000;
  return ns_per_call(n, [] {
    sim::Simulation s;
    cluster::StorageCluster c(s);
    netsim::Nic nic(s, client_nic());
    s.spawn(execute_loop(c, nic, n));
    const auto t0 = Clock::now();
    s.run();
    const double dt = since(t0);
    require(c.total_requests() == n, "execute count");
    return dt;
  });
}

/// Every execute after the first lands in an exhausted one-transaction
/// window, so ServerBusyError is thrown from the cluster's coroutine frame
/// and caught in this one — the overload path of every retry loop.
sim::Task<void> reject_loop(cluster::StorageCluster& c, netsim::Nic& nic,
                            std::int64_t n, std::int64_t& rejects) {
  for (std::int64_t i = 0; i < n; ++i) {
    try {
      (void)co_await c.execute(nic, 1, cluster::RequestCost{});
    } catch (const cluster::ServerBusyError&) {
      ++rejects;
    }
  }
}

double busy_reject_ns() {
  constexpr std::int64_t n = 20'000;
  return ns_per_call(n, [] {
    sim::Simulation s;
    cluster::ClusterConfig cfg;
    cfg.account_transactions_per_sec = 1;
    cluster::StorageCluster c(s, cfg);
    netsim::Nic nic(s, client_nic());
    std::int64_t rejects = 0;
    s.spawn(reject_loop(c, nic, n, rejects));
    const auto t0 = Clock::now();
    s.run();
    const double dt = since(t0);
    require(rejects == n - 1, "busy reject count");
    return dt;
  });
}

// ------------------------------------------------------------------ azure --

struct World {
  sim::Simulation sim;
  azure::CloudEnvironment env{sim};
  netsim::Nic nic{sim, client_nic()};
  azure::CloudStorageAccount account{env, nic};
};

/// Host time of `body(world)` run to completion on a fresh world.
template <class Body>
double world_run(Body body) {
  World w;
  w.sim.spawn(body(w));
  const auto t0 = Clock::now();
  w.sim.run();
  return since(t0);
}

constexpr std::int64_t kServiceLoops = 4'000;

sim::Task<void> table_ops(World& w) {
  auto t = w.account.create_cloud_table_client().get_table_reference("t");
  co_await t.create();
  for (std::int64_t i = 0; i < kServiceLoops; ++i) {
    azure::TableEntity e;
    e.partition_key = "p";
    e.row_key = "r" + std::to_string(i);
    e.properties["data"] = azure::Payload::synthetic(4096);
    co_await t.insert(e);
    (void)co_await t.query("p", e.row_key);
    co_await w.sim.delay(sim::millis(6));  // under the partition target
  }
}

sim::Task<void> blob_page_ops(World& w) {
  constexpr std::int64_t kPage = 64 * 1024;
  auto c = w.account.create_cloud_blob_client().get_container_reference("c");
  co_await c.create();
  auto blob = c.get_page_blob_reference("p");
  co_await blob.create(kServiceLoops * kPage);
  for (std::int64_t i = 0; i < kServiceLoops; ++i) {
    co_await blob.put_page(i * kPage, azure::Payload::synthetic(kPage));
    (void)co_await blob.get_page(i * kPage, kPage);
  }
}

sim::Task<void> queue_ops(World& w) {
  auto q = w.account.create_cloud_queue_client().get_queue_reference("q");
  co_await q.create();
  for (std::int64_t i = 0; i < kServiceLoops; ++i) {
    co_await q.add_message(azure::Payload::synthetic(4096));
    auto msg = co_await q.get_message();
    if (msg) co_await q.delete_message(*msg);
    co_await w.sim.delay(sim::millis(10));  // under the queue target
  }
}

// -------------------------------------------------------------- framework --

double keygen_zipf_ns() {
  constexpr std::int64_t n = 1'000'000;
  std::uint64_t sink = 0;
  const double ns = ns_per_call(n, [&sink] {
    framework::KeyGenConfig cfg;
    cfg.kind = framework::KeyGenConfig::Kind::kZipf;
    cfg.space = 20'000;
    cfg.zipf_s = 0.99;
    framework::KeyGen gen(cfg);
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < n; ++i) sink += gen.next();
    return since(t0);
  });
  require(sink > 0, "zipf keys drawn");
  return ns;
}

double arrival_ns() {
  constexpr std::int64_t n = 1'000'000;
  sim::TimePoint last = 0;
  const double ns = ns_per_call(n, [&last] {
    framework::ArrivalConfig cfg;
    cfg.kind = framework::ArrivalConfig::Kind::kFlashCrowd;
    cfg.rate_per_sec = 1000.0;
    cfg.spike_at = sim::seconds(100);
    cfg.spike_duration = sim::seconds(100);
    cfg.spike_rate_per_sec = 1000.0;
    framework::ArrivalProcess arrivals(cfg);
    sim::TimePoint t = 0;
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < n; ++i) t = arrivals.next(t);
    last = t;
    return since(t0);
  });
  require(last > 0, "arrivals drawn");
  return ns;
}

sim::Task<void> empty_session(framework::LoadEngine::Session&) { co_return; }

double session_ns() {
  constexpr std::int64_t n = 100'000;
  return ns_per_call(n, [] {
    sim::Simulation s;
    framework::LoadEngineConfig cfg;
    cfg.arrivals.rate_per_sec = 1e6;
    cfg.max_sessions = n;
    framework::LoadEngine engine(s, cfg, empty_session);
    engine.start();
    const auto t0 = Clock::now();
    s.run();
    const double dt = since(t0);
    require(engine.stats().completed == n, "session count");
    return dt;
  });
}

double parse_us() {
  constexpr std::int64_t n = 500;
  const std::string& spec = mixed_open_spec();
  return ns_per_call(n, [&spec] {
           std::size_t mix = 0;
           const auto t0 = Clock::now();
           for (std::int64_t i = 0; i < n; ++i) {
             mix += framework::parse_scenario(spec).mix.size();
           }
           const double dt = since(t0);
           require(mix > 0, "spec parsed");
           return dt;
         }) /
         1e3;
}

// ----------------------------------------------------------------- faults --

double fault_draw_ns() {
  constexpr std::int64_t n = 2'000'000;
  return ns_per_call(n, [] {
    sim::Simulation s;
    faults::FaultConfig cfg;
    cfg.duplicate_probability = 0.002;
    cfg.latency_spike_probability = 0.005;
    faults::FaultPlan plan(s, cfg);
    std::int64_t hits = 0;
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < n; ++i) {
      hits += plan.draw_link_fault(1024) != faults::LinkFault::kNone;
    }
    const double dt = since(t0);
    require(hits > 0, "fault draws");
    return dt;
  });
}

}  // namespace

std::vector<LayerCost> measure_layer_costs() {
  const auto service = [](auto body, std::int64_t ops_per_loop) {
    return ns_per_call(kServiceLoops * ops_per_loop,
                       [body] { return world_run(body); });
  };
  return {
      {"simcore.dispatch_ns", "ns", dispatch_ns()},
      {"simcore.resume_ns", "ns", resume_ns()},
      {"simcore.spawn_ns", "ns", spawn_ns()},
      {"simcore.limiter_ns", "ns", limiter_ns()},
      {"netsim.transfer_small_ns", "ns", transfer_ns(1024)},
      {"netsim.transfer_bulk_ns", "ns", transfer_ns(1 << 20)},
      {"cluster.execute_ns", "ns", execute_ns()},
      {"cluster.busy_reject_ns", "ns", busy_reject_ns()},
      {"azure.table_op_ns", "ns", service(table_ops, 2)},
      {"azure.blob_page_op_ns", "ns", service(blob_page_ops, 2)},
      {"azure.queue_op_ns", "ns", service(queue_ops, 3)},
      {"framework.keygen_zipf_ns", "ns", keygen_zipf_ns()},
      {"framework.arrival_ns", "ns", arrival_ns()},
      {"framework.session_ns", "ns", session_ns()},
      {"framework.parse_us", "us", parse_us()},
      {"faults.draw_ns", "ns", fault_draw_ns()},
  };
}

}  // namespace hostbench
