// One partition server: a pool of request executors in front of a disk and
// a NIC. Services (blob/queue/table) describe each request's cost and the
// server models queueing, disk occupancy, and replication fan-out load.
#pragma once

#include <cstdint>
#include <memory>

#include "cluster/config.hpp"
#include "netsim/nic.hpp"
#include "obs/observer.hpp"
#include "simcore/resource.hpp"
#include "simcore/simulation.hpp"
#include "simcore/task.hpp"

namespace cluster {

class PartitionServer {
 public:
  /// Commit latency added by each synchronous replica write (intra-stamp
  /// stream append + ack), on top of moving the payload to the replica.
  static constexpr sim::Duration kReplicaCommitLatency = sim::millis(2);

  /// Fixed per-request server-side processing time (request parsing,
  /// partition-map lookup, authorization).
  static constexpr sim::Duration kRequestOverhead = sim::micros(500);

  PartitionServer(sim::Simulation& sim, const ClusterConfig& cfg, int index)
      : sim_(sim),
        index_(index),
        executors_(sim, cfg.executors_per_server),
        disk_(sim, kDiskBytesPerSec, /*burst=*/256.0 * 1024),
        nic_(sim, netsim::NicConfig{netsim::kServerNicBytesPerSec,
                                    netsim::kServerNicBytesPerSec,
                                    kNicLatency}) {}

  int index() const noexcept { return index_; }
  netsim::Nic& nic() noexcept { return nic_; }
  sim::Resource& executors() noexcept { return executors_; }
  const sim::Resource& executors() const noexcept { return executors_; }

  /// Whether the server is serving requests. The fault layer's crash driver
  /// flips this; routing (failover, replica skip) is the cluster's job.
  /// In-flight work on a crashing server is not unwound — the cluster
  /// observes the crash when the request completes and resets the client
  /// (the executor's output is lost with the process).
  bool up() const noexcept { return up_; }
  void crash() noexcept {
    up_ = false;
    ++crashes_;
  }
  void restart() noexcept {
    up_ = true;
    ++restarts_;
  }
  std::int64_t crashes() const noexcept { return crashes_; }
  std::int64_t restarts() const noexcept { return restarts_; }

  /// Occupies one executor, then pays fixed processing plus extra CPU time
  /// plus disk occupancy for `disk_bytes`.
  sim::Task<void> process(sim::Duration cpu, std::int64_t disk_bytes,
                          obs::TraceContext trace = {}) {
    const sim::TimePoint enqueued = sim_.now();
    auto lease = co_await executors_.acquire();
    if (obs::Observer* const o = sim_.observer(); o != nullptr) {
      const sim::Duration waited = sim_.now() - enqueued;
      o->metrics().histogram("server.exec_queue_ns").record(waited);
      if (waited > 0) {
        // Only contended acquisitions leave a span; the histogram above
        // still records every request (zeros included).
        o->emit(obs::SpanKind::kExecutorQueue, trace, enqueued, sim_.now(),
                0, index_);
      }
    }
    co_await sim_.delay(kRequestOverhead + cpu);
    if (disk_bytes > 0) {
      co_await disk_.acquire(static_cast<double>(disk_bytes));
    }
    ++requests_;
    disk_bytes_ += disk_bytes;
  }

  /// Models this server acting as a replica: receive the payload on the NIC,
  /// append to the local disk, ack after the commit latency.
  sim::Task<void> replica_commit(std::int64_t bytes,
                                 obs::TraceContext trace = {}) {
    const sim::TimePoint started = sim_.now();
    if (bytes > 0) {
      co_await nic_.receive(bytes);
      co_await disk_.acquire(static_cast<double>(bytes));
    }
    co_await sim_.delay(kReplicaCommitLatency);
    ++replica_commits_;
    if (obs::Observer* const o = sim_.observer(); o != nullptr) {
      o->metrics().counter("cluster.replica_commits").add(1);
      o->emit(obs::SpanKind::kReplicaCommit, trace, started, sim_.now(), 0,
              index_, bytes);
    }
  }

  std::int64_t requests() const noexcept { return requests_; }
  std::int64_t replica_commits() const noexcept { return replica_commits_; }
  std::int64_t disk_bytes() const noexcept { return disk_bytes_; }

 private:
  /// Per-request NIC serialization latency on the server side.
  static constexpr sim::Duration kNicLatency = sim::micros(50);
  /// Streaming disk bandwidth per partition server (bytes/s).
  static constexpr double kDiskBytesPerSec = 400.0 * 1024 * 1024;

  sim::Simulation& sim_;
  int index_;
  sim::Resource executors_;
  sim::FlowLimiter disk_;
  netsim::Nic nic_;
  bool up_ = true;
  std::int64_t crashes_ = 0;
  std::int64_t restarts_ = 0;
  std::int64_t requests_ = 0;
  std::int64_t replica_commits_ = 0;
  std::int64_t disk_bytes_ = 0;
};

}  // namespace cluster
