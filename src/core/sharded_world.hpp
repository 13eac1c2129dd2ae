// Domain-sharded cloud scenario driver: the paper's 64-server × 96-worker
// workload decomposed into independent stamp shards executed by the sharded
// parallel DES kernel (simcore/parallel.hpp).
//
// Each domain owns a complete per-shard world — its own sim::Simulation,
// CloudEnvironment (cluster + services), forked fault-plan seed, and
// Observer — so shards share no mutable state. Cross-shard traffic (a
// configurable fraction of each worker's ops targets a remote shard's
// storage) rides netsim::DomainLink RPC through the kernel's lookahead
// windows and deterministic (at, src, seq) merge, and chaos mode adds a
// fleet-wide crash controller in domain 0 that delivers crash/restart
// commands to victim shards as cross-domain events.
//
// The parity contract (tests/parallel_test.cpp): every output in
// ShardedCloudResult is a function of (config, seed, domain count) only.
// Running the same decomposition with 1 worker thread or N worker threads
// must produce byte-identical results — figure table, per-worker op counts,
// merged fault log, and merged observer JSON.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "faults/fault_plan.hpp"
#include "framework/load_engine.hpp"
#include "simcore/time.hpp"

namespace azurebench {

struct ShardedCloudConfig {
  /// Logical stamp shards (event-queue domains). total_servers and
  /// total_workers must divide evenly across them.
  int domains = 8;
  /// Worker threads (0 = one per domain; 1 = the sequential reference
  /// execution of the identical sharded algorithm).
  int threads = 0;
  int total_servers = 64;
  int total_workers = 96;

  enum class Mode { kQueue, kTable };
  /// kQueue drives fig6-style per-worker queues; kTable drives fig8-style
  /// per-worker table partitions.
  Mode mode = Mode::kQueue;

  std::int64_t ops_per_worker = 20;
  std::int64_t message_bytes = 8 * 1024;
  /// Every remote_every-th op (per worker) targets the next shard's storage
  /// through the inter-domain link instead of the home cluster (0 = no
  /// cross-shard traffic).
  int remote_every = 4;
  std::uint64_t seed = 42;

  /// Chaos mode: link faults armed on every shard (forked seeds) plus a
  /// fleet-wide crash schedule driven cross-domain from domain 0, and the
  /// per-shard partition-map load balancer enabled.
  bool chaos = false;
  int total_crashes = 4;
  sim::Duration crash_mean_interval = sim::seconds(5);
  sim::Duration server_downtime = sim::seconds(1);
  double drop_probability = 0.01;
  double duplicate_probability = 0.01;
  double latency_spike_probability = 0.02;

  /// One-way inter-domain link latency. It is also the parallel kernel's
  /// lookahead: no cross-domain event lands sooner than this after it is
  /// sent, so each domain may run this far ahead of the others.
  sim::Duration inter_domain_latency = sim::millis(1);

  /// Attach one Observer per domain and render the deterministic merged
  /// JSON into ShardedCloudResult::obs_json.
  bool observe = false;

  // -------------------------------------------------- open-loop load ----
  /// Replace the closed-loop worker fleet with one open-loop load engine
  /// per domain (framework/load_engine.hpp): seeded Poisson arrivals spawn
  /// short-lived pooled sessions, each running a single queue/table op
  /// (with the same every-remote_every-th cross-shard diversion as the
  /// workers). total_workers and ops_per_worker are ignored in this mode;
  /// ShardedCloudResult::workers holds one per-domain aggregate entry and
  /// ShardedCloudResult::load the per-domain engine stats.
  bool open_loop = false;
  /// Per-domain offered arrival rate (sessions per second of virtual time).
  double arrivals_per_sec = 2000.0;
  /// Arrivals each domain's generator offers before stopping.
  std::int64_t sessions_per_domain = 200;
  /// Per-domain admission window (concurrent sessions).
  int session_window = 64;
  /// Per-domain bounded admission backlog; arrivals beyond window + backlog
  /// are shed (counted, never executed).
  int session_pending = 256;
};

struct ShardedWorkerStats {
  std::int64_t puts = 0;
  std::int64_t gets = 0;
  std::int64_t deletes = 0;
  std::int64_t remote_ops = 0;
  std::int64_t retries = 0;
  bool operator==(const ShardedWorkerStats&) const = default;
};

struct ShardedCloudResult {
  std::uint64_t events_executed = 0;
  std::uint64_t cross_events = 0;
  sim::TimePoint final_time = 0;  // max over domain clocks
  /// Closed-loop mode: indexed by global worker id. Open-loop mode: one
  /// aggregate entry per domain (sessions have no stable global index).
  std::vector<ShardedWorkerStats> workers;
  /// Per-domain load-engine stats (empty unless cfg.open_loop).
  std::vector<framework::LoadStats> load;
  /// Merged fleet fault log: (domain, record), sorted by (at, domain,
  /// per-domain index) — the deterministic cross-shard order.
  std::vector<std::pair<int, faults::FaultRecord>> fault_log;
  /// Merged observer JSON ("" unless cfg.observe).
  std::string obs_json;
  /// Fig6/fig8-shaped per-shard table rendered as text — the byte-parity
  /// artifact compared across thread counts.
  std::string figure_table;
  /// Host wall-clock seconds spent inside run() — measurement only, never
  /// part of any parity comparison.
  double wall_seconds = 0.0;

  /// Every deterministic field (everything except wall_seconds).
  bool outputs_equal(const ShardedCloudResult& other) const {
    return events_executed == other.events_executed &&
           cross_events == other.cross_events &&
           final_time == other.final_time && workers == other.workers &&
           load == other.load && fault_log == other.fault_log &&
           obs_json == other.obs_json && figure_table == other.figure_table;
  }
};

ShardedCloudResult run_sharded_cloud(const ShardedCloudConfig& cfg);

}  // namespace azurebench
