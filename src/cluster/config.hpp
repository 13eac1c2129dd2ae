// The settable parameters of the simulated Windows Azure storage cluster.
//
// Defaults encode the scalability targets the paper quotes (Section IV) and
// the architecture published in Calder et al., "Windows Azure Storage"
// (SOSP'11): 3-replica strong consistency, partitioned servers, per-account
// and per-partition transaction caps. The fixed service times,
// bandwidths, replica count and S3 prefix targets are named constants
// beside the code that reads them (PartitionServer, ReplicaStore,
// StorageCluster); every field here is set by some caller and is
// documented with its observable effect.
#pragma once

#include <cstdint>

#include "simcore/time.hpp"

namespace cluster {

/// What happens when the account transaction target is exceeded.
enum class ThrottleMode {
  /// Reject with ServerBusy, as real Azure does (clients back off/retry).
  kReject,
  /// Admission-queue the request until the next window (an ablation that
  /// shows why rejection + client backoff is the observable behaviour).
  kQueue,
  /// S3-style contract: no account-wide transaction gate at all; instead
  /// each key *prefix* carries independent read and write request-rate
  /// windows (StorageCluster::kPrefixReadsPerSec / kPrefixWritesPerSec)
  /// and overruns raise SlowDownError (HTTP 503 SlowDown). Requests whose
  /// RequestCost carries no throttle_prefix are never throttled.
  kPrefixSlowdown,
};

/// The partition-map load balancer (Calder et al., SOSP'11 §5: the partition
/// master splits the key space into movable ranges and reassigns them across
/// servers under load). Disabled by default: with no balancer and no moves,
/// map routing is exactly the static `hash % partition_servers` placement.
struct BalancerConfig {
  /// Spawn the master balancing process. Off by default so the frozen paper
  /// figures (fig4–fig9) keep their static placement byte-for-byte.
  bool enabled = false;

  /// Movable hash-range buckets per partition server. The map holds
  /// partition_servers * buckets_per_server buckets; the default assignment
  /// (bucket % servers) equals modulo routing, so the knob only changes how
  /// finely load can be shed, never the unbalanced baseline.
  int buckets_per_server = 8;

  /// Balancing epoch: the master samples per-bucket request counters and
  /// makes its move decisions once per epoch.
  sim::Duration epoch = sim::millis(500);

  /// A server whose epoch load exceeds `offload_threshold * mean healthy
  /// load` sheds its hottest buckets until it is back under the limit.
  double offload_threshold = 1.25;

  /// Upper bound on bucket moves per epoch — bounds reassignment churn and
  /// the redirect storm a move burst would impose on clients.
  int max_moves_per_epoch = 4;

  /// Move cost: a bucket being handed off is unavailable for this window;
  /// requests for it arriving inside the window wait it out at the
  /// front-end (the paper's benchmarks never observe this — no moves).
  sim::Duration move_unavailable = sim::millis(10);

  /// The master parks itself after this many consecutive epochs with zero
  /// request traffic, so a drained simulation can terminate. A workload
  /// with quiet gaps longer than idle_epochs_to_exit * epoch loses
  /// balancing for its later bursts.
  int idle_epochs_to_exit = 4;

  /// Seed of the balancer's own RNG; decisions draw from a stream forked
  /// off it, so balancing randomness never perturbs (or is perturbed by)
  /// any other consumer's draws.
  std::uint64_t seed = 0xBA1A;
};

struct ClusterConfig {
  /// Throttling policy for the account transaction target.
  ThrottleMode throttle_mode = ThrottleMode::kReject;

  /// Partition-map load balancing (off by default).
  BalancerConfig balancer;

  // ----------------------------------------------------------- topology ----
  /// Number of partition servers data is spread across. Azure spreads
  /// partitions over many servers; 16 is plenty for 100 simulated clients.
  int partition_servers = 16;

  /// Concurrent request executors per partition server.
  int executors_per_server = 64;

  // ------------------------------------------------ scalability targets ----
  /// "Windows Azure storage services can handle up to 5,000 transactions
  /// (entities/messages/blobs) per second" per account.
  std::int64_t account_transactions_per_sec = 5'000;
};

}  // namespace cluster
