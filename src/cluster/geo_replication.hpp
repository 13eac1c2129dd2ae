// Geo-replicated stamps: N regions, each an independent StorageCluster,
// connected by directional inter-region links with asynchronous, sequenced
// log shipping (Calder et al., SOSP'11 §2: intra-stamp replication is
// synchronous, *inter*-stamp replication is asynchronous in the background).
//
// Write path: a write commits synchronously (3 replicas) in the home region
// and acks the client, then the per-bucket geo log carries it to every other
// region in sequence order. Staleness is bounded by construction: the
// shipper wakes at most `ship_interval` after an append, and config
// validation enforces ship_interval <= staleness_target.
//
// Read path: reads carry a typed consistency mode. Strong reads route to the
// home (primary) region and observe every acknowledged write; eventual reads
// route region-local and report the replica's staleness (the age of the
// oldest write not yet applied locally) in the result.
//
// Region loss is a first-class, deterministic fault: the FaultPlan's region
// schedule (its own forked RNG stream) takes a whole stamp down. If the
// victim was the primary, the next healthy region is promoted; clients
// holding the old geo map get a RegionMovedError redirect (the cross-region
// analogue of the PR 5 PartitionMovedError protocol). Writes the victim had
// not shipped are *lost* (the RPO of asynchronous geo-replication); the log
// is truncated to the promoted region's high-water mark and the loss is
// exported (unreplicated-write counter, staleness-at-failover histogram).
// Failback reconciles the returning region against the authoritative log —
// chain-CRC verification plus a ledger scrub reusing the PR 3 integrity
// machinery — before the original primary resumes its role.
//
// Determinism: fixed (config, seed) ⇒ byte-identical fault log and metrics
// across replays. All per-region state lives in index-ordered vectors; the
// only hash containers are keyed by client NIC identity and never iterated.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/errors.hpp"
#include "cluster/storage_cluster.hpp"
#include "faults/fault_plan.hpp"
#include "netsim/geo_link.hpp"
#include "netsim/nic.hpp"
#include "simcore/simulation.hpp"
#include "simcore/task.hpp"
#include "simcore/time.hpp"

namespace cluster {

/// Consistency mode of a geo read.
enum class ReadConsistency {
  /// Route to the current primary region; observes every acknowledged write.
  kStrong,
  /// Route to the reader's local region; may miss recent writes, and the
  /// result reports how stale the local replica is.
  kEventual,
};

/// One region: a named, independently configured storage stamp.
struct GeoRegionConfig {
  std::string name;
  ClusterConfig cluster;
};

struct GeoConfig {
  /// The regions, index order = ring order for promotion.
  std::vector<GeoRegionConfig> regions;

  /// Initial primary (home) region.
  int primary = 0;

  /// Bounded-staleness target: the lag the shipper is provisioned to hold.
  /// Validation enforces ship_interval <= staleness_target.
  sim::Duration staleness_target = sim::millis(500);

  /// Delay between an append and the shipping of its batch.
  sim::Duration ship_interval = sim::millis(100);
};

/// What a geo read reports beyond the stamp-level ExecResult.
struct GeoReadResult {
  ExecResult exec;
  /// Region that served the read.
  int region = -1;
  /// Age of the oldest write not yet applied at the serving region when the
  /// read was routed (0 for strong reads and fully caught-up replicas).
  sim::Duration staleness = 0;
};

/// N regional stamps + inter-region links + the geo replication log.
class GeoCluster {
 public:
  GeoCluster(sim::Simulation& sim, GeoConfig cfg);
  ~GeoCluster();
  GeoCluster(const GeoCluster&) = delete;
  GeoCluster& operator=(const GeoCluster&) = delete;

  /// Arms fault injection: link + server faults on every regional stamp,
  /// and — when the plan schedules region outages — a driver that executes
  /// the region-outage schedule (outage -> downtime -> restore/failback).
  void enable_faults(faults::FaultPlan& plan);

  /// A write from a client homed in `client_region`: routed to the current
  /// primary region (paying the inter-region hop when the client is
  /// remote), committed synchronously there, then appended to the geo log
  /// for asynchronous shipping. Throws RegionMovedError when the client's
  /// cached geo map predates a failover.
  sim::Task<ExecResult> write(netsim::Nic& client, int client_region,
                              std::uint64_t partition_hash, RequestCost cost);

  /// A read with the given consistency mode (see ReadConsistency).
  sim::Task<GeoReadResult> read(netsim::Nic& client, int client_region,
                                std::uint64_t partition_hash,
                                RequestCost cost, ReadConsistency mode);

  /// Takes `region` down now (whole-stamp loss). If it was the primary, the
  /// next healthy region is promoted: the geo map version bumps (clients
  /// redirect), the log truncates to the promoted region's high-water mark,
  /// and the lost suffix is exported as RPO. Exposed for tests and chaos
  /// controllers; the plan-driven region driver uses the same entry point.
  void force_region_outage(int region);

  /// Brings `region` back: chain-CRC verification of its applied log
  /// prefix, ledger reconciliation (geo scrub) against the current
  /// authority, synchronous catch-up shipping of everything it missed, and
  /// — when it was the original primary — handing the primary role back (a
  /// second geo-map bump and redirect round).
  sim::Task<void> force_region_restore(int region);

  /// One ledger-reconciliation pass: converges `region`'s replica store to
  /// the current primary's committed state (copy-back through the stamp's
  /// replica-commit path), healing stale, divergent and torn copies.
  sim::Task<void> geo_scrub(int region);

  /// Ships until every up region has applied every committed entry (test
  /// and shutdown helper; the drill calls it before reading final lag).
  sim::Task<void> catch_up();

  // ------------------------------------------------------------ topology ----
  int region_count() const noexcept {
    return static_cast<int>(regions_.size());
  }
  StorageCluster& region(int i) noexcept {
    return *regions_[static_cast<std::size_t>(i)];
  }
  const std::string& region_name(int i) const noexcept {
    return cfg_.regions[static_cast<std::size_t>(i)].name;
  }
  bool region_up(int i) const noexcept {
    return region_up_[static_cast<std::size_t>(i)] != 0;
  }
  int primary() const noexcept { return primary_; }
  netsim::GeoLink& link(int from, int to) noexcept {
    return *links_[static_cast<std::size_t>(from * region_count() + to)];
  }
  const GeoConfig& config() const noexcept { return cfg_; }
  faults::FaultPlan* fault_plan() const noexcept { return faults_; }

  // ------------------------------------------------------- log / lag state ----
  /// Age of the oldest committed-but-unapplied write at `region` for
  /// `bucket` (0 when caught up).
  sim::Duration staleness(int region, int bucket) const noexcept;
  /// Worst staleness across all buckets at `region`.
  sim::Duration max_staleness(int region) const noexcept;
  /// Total committed-but-unapplied entries at `region` right now.
  std::int64_t replication_lag(int region) const noexcept;

  // ------------------------------------------------------------- counters ----
  /// Writes acknowledged at a failed primary but never shipped — lost at
  /// failover (the RPO, accumulated across all failovers).
  std::int64_t rpo_lost_writes() const noexcept { return rpo_lost_writes_; }
  /// Worst staleness-at-failover observed (RPO expressed as time).
  sim::Duration max_staleness_at_failover() const noexcept {
    return max_staleness_at_failover_;
  }
  /// Failover -> first successful operation at the promoted primary (the
  /// RTO of the most recent failover; 0 before any failover completed).
  sim::Duration last_rto() const noexcept { return last_rto_; }
  /// Batches that had to be re-shipped after a geo-link drop.
  std::int64_t redeliveries() const noexcept { return redeliveries_; }
  /// Primary promotions (region failovers) executed.
  std::int64_t region_failovers() const noexcept { return region_failovers_; }
  /// Primary roles handed back to the original primary after catch-up.
  std::int64_t region_failbacks() const noexcept { return region_failbacks_; }
  /// Clients redirected because their cached geo map predated a failover.
  std::int64_t stale_geo_redirects() const noexcept {
    return stale_geo_redirects_;
  }
  /// (region, bucket) applied positions rolled back at failover because
  /// they were ahead of the promoted region (divergence).
  std::int64_t divergent_resets() const noexcept { return divergent_resets_; }
  /// Replica copies healed by the geo ledger scrub.
  std::int64_t geo_scrub_repairs() const noexcept {
    return geo_scrub_repairs_;
  }
  /// Per-bucket chain-CRC verifications run during failback reconciliation.
  std::int64_t chain_verifications() const noexcept {
    return chain_verifications_;
  }
  /// Geo log entries appended (acknowledged writes entering the shipper).
  std::int64_t log_appends() const noexcept { return log_appends_; }

 private:
  /// One entry of the per-bucket geo log. `chain` is a CRC32C accumulated
  /// over (previous chain, seq, crc): the failback reconciliation recomputes
  /// it over the survivor's prefix to prove the log was applied in sequence
  /// without corruption before trusting the high-water mark.
  struct GeoEntry {
    std::uint64_t seq = 0;  // 1-based within the bucket
    std::uint64_t object_id = 0;
    std::uint64_t gen = 0;  // ledger generation committed at home
    std::uint32_t crc = 0;
    std::uint32_t chain = 0;
    std::int64_t bytes = 0;
    int home_server = 0;
    sim::TimePoint committed_at = 0;
  };

  /// Promotion cost paid when the primary role moves (failover or
  /// failback): ops arriving inside the handoff window wait it out.
  static constexpr sim::Duration kRegionFailoverLatency = sim::millis(100);

  /// Max log entries per shipped batch (per bucket, per destination).
  static constexpr int kShipBatchMax = 64;

  static GeoConfig validated(GeoConfig cfg);

  int buckets() const noexcept {
    return static_cast<int>(committed_seq_.size());
  }
  /// Routes the caller to the current primary: geo-map staleness check
  /// (RegionMovedError redirect), failover-window wait, inter-region hop.
  sim::Task<int> route_to_primary(netsim::Nic& client, int client_region);
  /// Records the first successful post-failover operation (the RTO).
  void note_primary_success();
  /// Appends an acknowledged write to the bucket's log and arms shipping.
  void append_to_log(int bucket, std::uint64_t object_id, int home_server,
                     std::uint64_t gen, std::uint32_t crc,
                     std::int64_t bytes);
  /// Arms an event-driven ship task for (region, bucket) unless one is
  /// already pending or there is nothing to ship.
  void arm_shipping(int region, int bucket);
  /// The ship task: waits ship_interval, then ships batches until the
  /// destination caught up (or the topology changed under it).
  sim::Task<void> ship_loop(int region, int bucket);
  /// Ships one batch [applied+1 .. min(committed, applied+batch_max)] from
  /// the current primary to `region`. Returns false on a link drop (the
  /// caller re-ships). Advances applied_seq_/applied_chain_ on success.
  sim::Task<bool> ship_batch(int region, int bucket);
  /// Synchronous catch-up of one region (used by restore; retries drops).
  sim::Task<void> catch_up_region(int region);
  /// Verifies `region`'s applied chain CRC against a from-scratch replay of
  /// the log prefix. Aborts (assert) on mismatch — a broken chain means the
  /// simulation itself corrupted the log, never an injected fault.
  void verify_chain(int region);
  /// Executes the plan's region-outage schedule.
  sim::Task<void> region_driver();

  sim::Simulation& sim_;
  GeoConfig cfg_;
  faults::FaultPlan* faults_ = nullptr;
  std::vector<std::unique_ptr<StorageCluster>> regions_;
  /// Dense (from * n + to) matrix; diagonal entries are null.
  std::vector<std::unique_ptr<netsim::GeoLink>> links_;
  std::vector<char> region_up_;
  int primary_ = 0;
  const int initial_primary_ = 0;

  // Geo map versioning (the cross-region redirect protocol): bumped on
  // every promotion; clients cache the version they last saw. Keyed by NIC
  // identity, never iterated — cannot affect event order.
  std::uint64_t geo_version_ = 1;
  std::unordered_map<const netsim::Nic*, std::uint64_t> client_geo_versions_;
  /// Ops arriving before this instant wait out the promotion handoff.
  sim::TimePoint geo_unavailable_until_ = 0;

  // The geo log. Index = bucket; entry seq is 1-based, so log_[b][s-1] is
  // the entry with seq s. Kept whole for the life of the run (drill-scale
  // workloads; trimming would complicate failover truncation for no
  // observable gain).
  std::vector<std::vector<GeoEntry>> log_;
  std::vector<std::uint64_t> committed_seq_;
  /// applied_seq_[region][bucket]; the primary's row tracks committed.
  std::vector<std::vector<std::uint64_t>> applied_seq_;
  std::vector<std::vector<std::uint32_t>> applied_chain_;
  /// One pending ship task max per (region, bucket).
  std::vector<std::vector<char>> ship_pending_;

  // RTO measurement state.
  sim::TimePoint outage_at_ = 0;
  bool rto_pending_ = false;

  std::int64_t rpo_lost_writes_ = 0;
  sim::Duration max_staleness_at_failover_ = 0;
  sim::Duration last_rto_ = 0;
  std::int64_t redeliveries_ = 0;
  std::int64_t region_failovers_ = 0;
  std::int64_t region_failbacks_ = 0;
  std::int64_t stale_geo_redirects_ = 0;
  std::int64_t divergent_resets_ = 0;
  std::int64_t geo_scrub_repairs_ = 0;
  std::int64_t chain_verifications_ = 0;
  std::int64_t log_appends_ = 0;
};

}  // namespace cluster
