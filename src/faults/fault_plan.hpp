// Deterministic, seeded fault injection for the simulated cloud.
//
// A FaultPlan is a pure schedule: every decision (does this transfer drop?
// which server crashes next? how long is this latency spike?) derives from
// a seeded sim::Random, so two runs with the same seed inject byte-identical
// fault sequences. Determinism rests on two properties:
//
//  1. The server-crash schedule is materialized eagerly at construction from
//     its own forked RNG stream, so it cannot be perturbed by how many link
//     faults the workload happens to draw.
//  2. Link-fault decisions consume exactly one RNG draw per consulted
//     transfer (plus one more only when a latency spike fires), and
//     transfers are executed in the scheduler's (at, seq) total order — so
//     the draw sequence is itself a deterministic function of the seed.
//
// With a default-constructed FaultConfig the plan is disabled: no RNG is
// ever consulted, no events are scheduled, and the simulation is
// byte-identical to one without a plan.
#pragma once

#include <cstdint>
#include <vector>

#include "simcore/random.hpp"
#include "simcore/simulation.hpp"
#include "simcore/time.hpp"

namespace faults {

struct FaultConfig {
  std::uint64_t seed = 0xFA'017;

  // ------------------------------------------- link faults (per transfer) ----
  /// Probability that a transfer is lost (client observes TimeoutError
  /// after `drop_timeout`; the operation is not applied).
  double drop_probability = 0;
  /// Probability that a transfer's payload is retransmitted (the flow pays
  /// its occupancy twice; the transport dedupes, so no semantic effect).
  double duplicate_probability = 0;
  /// Probability of a latency spike on a transfer's propagation path.
  double latency_spike_probability = 0;
  /// Probability that a transfer's payload arrives with flipped bits. The
  /// transfer completes with normal timing; whether the damage is *detected*
  /// depends on the receiving layer's checksums (the cluster verifies
  /// integrity-tracked payloads, see cluster/replica_store.hpp).
  double corruption_probability = 0;
  /// How long a client waits before declaring a lost message timed out.
  sim::Duration drop_timeout = sim::seconds(2);

  // ---------------------------------------------------- server faults ----
  /// Total partition-server crashes to inject (0 disables the crash driver).
  int server_crashes = 0;
  /// Mean (exponential) interval between crash injections.
  sim::Duration crash_mean_interval = sim::seconds(30);
  /// How long a crashed server stays down before restarting. Crashes are
  /// injected sequentially, so at most one server is down at a time.
  sim::Duration server_downtime = sim::seconds(5);

  // ---------------------------------------------------- region faults ----
  // Whole-region (stamp) outages, executed by the geo layer's outage driver
  // (cluster/geo_replication.hpp). Like server crashes, the schedule is
  // materialized eagerly at construction from its own forked stream, so the
  // number of link or geo-link draws a workload makes can never perturb
  // outage timing. Outages are injected sequentially (at most one region is
  // down at a time).
  /// Total region outages to inject (0 disables the region-outage driver).
  int region_outages = 0;
  /// Mean (exponential) interval between region outages.
  sim::Duration region_outage_mean_interval = sim::seconds(30);
  /// How long a lost region stays down before it is restored.
  sim::Duration region_downtime = sim::seconds(5);
  /// Pins every scheduled outage to one region index (-1 draws the victim
  /// from the forked stream). Drills that must lose the *primary* region at
  /// a deterministic target pin it here; the victim draw is consumed either
  /// way so the schedule's timing is identical.
  int region_outage_victim = -1;

  // ------------------------------------- geo link faults (per batch) ----
  // Inter-region links are long-haul: they lose whole replication batches
  // (the shipper redelivers next round), but intra-batch corruption is
  // already covered by the end-to-end checksums the entries carry. One draw
  // per shipped batch, from a dedicated stream.
  /// Probability that a shipped replication batch is lost in transit.
  double geo_drop_probability = 0;

  bool link_faults_enabled() const noexcept {
    return drop_probability > 0 || duplicate_probability > 0 ||
           latency_spike_probability > 0 || corruption_probability > 0;
  }
  bool server_faults_enabled() const noexcept { return server_crashes > 0; }
  bool region_faults_enabled() const noexcept { return region_outages > 0; }
  bool geo_link_faults_enabled() const noexcept {
    return geo_drop_probability > 0;
  }
  bool enabled() const noexcept {
    return link_faults_enabled() || server_faults_enabled() ||
           region_faults_enabled() || geo_link_faults_enabled();
  }
};

enum class FaultKind : std::uint8_t {
  // ------------------------------------------------------------ injections --
  kDrop,
  kDuplicate,
  kLatencySpike,
  kServerCrash,
  kServerRestart,
  /// A transfer's payload was corrupted in flight.
  kBitFlip,
  /// A crash interrupted a replica commit mid-write, leaving a partial
  /// (checksum-invalid) copy on that replica.
  kTornWrite,
  // ------------------------------------------- detections and repairs ------
  /// A checksum verification caught corrupt data (on the wire or on a torn
  /// replica) before it could reach a client.
  kChecksumMismatch,
  /// A replica was found holding a different generation than the committed
  /// one (a write that died before acknowledging, or a missed commit).
  kReplicaDivergence,
  /// A bad replica was re-synced inline on the read path.
  kReadRepair,
  /// A bad replica was re-synced by the background anti-entropy scrubber.
  kScrubRepair,
  // ----------------------------------------------------- geo / regions -----
  /// An entire region (stamp) went dark.
  kRegionOutage,
  /// A lost region came back and rejoined the geo cluster.
  kRegionRestore,
  /// The primary role moved to a secondary region (the lost region was the
  /// primary). detail = the promoted region's index.
  kRegionFailover,
  /// The primary role moved back to the original region after reconciliation.
  kRegionFailback,
  /// A shipped inter-region replication batch was lost in transit (the
  /// shipper redelivers it next round). detail = payload bytes.
  kGeoBatchDrop,
};

/// One injected fault, as recorded in the plan's log. The log is part of
/// the determinism contract: identical seeds must yield identical logs.
struct FaultRecord {
  sim::TimePoint at = 0;
  FaultKind kind{};
  /// Link faults: payload bytes of the affected transfer.
  /// Server faults / integrity events: index of the affected server.
  std::int64_t detail = 0;
  bool operator==(const FaultRecord&) const = default;
};

/// Outcome of one link-fault consultation.
enum class LinkFault : std::uint8_t {
  kNone,
  kDrop,
  kDuplicate,
  kLatencySpike,
  kBitFlip,
};

class FaultPlan {
 public:
  FaultPlan(sim::Simulation& sim, const FaultConfig& cfg = {})
      : sim_(&sim), cfg_(cfg), link_rng_(cfg.seed) {
    // Fork the crash stream off the link stream *before* any link draws,
    // then materialize the whole crash schedule up front.
    sim::Random crash_rng = link_rng_.fork();
    crash_schedule_.reserve(static_cast<std::size_t>(cfg.server_crashes));
    for (int i = 0; i < cfg.server_crashes; ++i) {
      CrashEvent ev;
      ev.after_previous = static_cast<sim::Duration>(crash_rng.exponential(
          static_cast<double>(cfg.crash_mean_interval)));
      ev.victim_raw = crash_rng.next_u64();
      crash_schedule_.push_back(ev);
    }
    // A third independent stream decides whether a crash-interrupted commit
    // lands torn. Forked here (construction time) so the number of link
    // draws a workload makes cannot perturb torn decisions, and vice versa.
    torn_rng_ = link_rng_.fork();
    // Geo streams fork only when their feature is configured: a plan without
    // region outages or geo-link faults leaves link_rng_'s state — and hence
    // every pre-geo draw sequence — byte-identical to a pre-geo build.
    if (cfg.region_faults_enabled()) {
      sim::Random region_rng = link_rng_.fork();
      region_schedule_.reserve(static_cast<std::size_t>(cfg.region_outages));
      for (int i = 0; i < cfg.region_outages; ++i) {
        RegionOutageEvent ev;
        ev.after_previous = static_cast<sim::Duration>(region_rng.exponential(
            static_cast<double>(cfg.region_outage_mean_interval)));
        // The victim draw is consumed even when the config pins the victim,
        // so pinning never shifts outage timing.
        ev.victim_raw = region_rng.next_u64();
        region_schedule_.push_back(ev);
      }
    }
    if (cfg.geo_link_faults_enabled()) geo_rng_ = link_rng_.fork();
  }

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  const FaultConfig& config() const noexcept { return cfg_; }
  bool enabled() const noexcept { return cfg_.enabled(); }

  /// Consulted once per network transfer. Draws exactly one uniform value
  /// (the four probabilities partition [0, 1)); non-kNone outcomes are
  /// appended to the log. A plan with corruption_probability == 0 maps the
  /// same draws to the same outcomes as a pre-corruption plan.
  LinkFault draw_link_fault(std::int64_t bytes) {
    if (!cfg_.link_faults_enabled()) return LinkFault::kNone;
    const double u = link_rng_.next_double();
    double edge = cfg_.drop_probability;
    if (u < edge) {
      record(FaultKind::kDrop, bytes);
      return LinkFault::kDrop;
    }
    edge += cfg_.duplicate_probability;
    if (u < edge) {
      record(FaultKind::kDuplicate, bytes);
      return LinkFault::kDuplicate;
    }
    edge += cfg_.latency_spike_probability;
    if (u < edge) {
      record(FaultKind::kLatencySpike, bytes);
      return LinkFault::kLatencySpike;
    }
    edge += cfg_.corruption_probability;
    if (u < edge) {
      // Flipping bits in a zero-byte control hop has nothing to damage.
      if (bytes <= 0) return LinkFault::kNone;
      record(FaultKind::kBitFlip, bytes);
      return LinkFault::kBitFlip;
    }
    return LinkFault::kNone;
  }

  /// Duration of the latency spike just drawn (call only after
  /// draw_link_fault returned kLatencySpike; consumes one RNG draw).
  sim::Duration draw_spike_duration() {
    const auto d = static_cast<sim::Duration>(link_rng_.exponential(
        static_cast<double>(kLatencySpikeMean)));
    return d > 0 ? d : sim::kNanosecond;
  }

  /// Whether a commit that a crash just interrupted lands torn (partially
  /// written) rather than not at all. Consumes one draw from the dedicated
  /// torn stream; call only when a crash actually interrupted a commit.
  bool draw_torn_write() {
    return torn_rng_.next_double() < kTornWriteProbability;
  }

  /// The precomputed crash schedule, executed by the cluster's crash driver.
  struct CrashEvent {
    sim::Duration after_previous = 0;
    /// Reduced modulo the server count at execution time (the plan does not
    /// know the topology).
    std::uint64_t victim_raw = 0;
  };
  const std::vector<CrashEvent>& crash_schedule() const noexcept {
    return crash_schedule_;
  }

  /// Consulted once per shipped inter-region replication batch. Draws
  /// exactly one uniform value from the dedicated geo stream; a drop is
  /// logged.
  LinkFault draw_geo_link_fault(std::int64_t bytes) {
    if (!cfg_.geo_link_faults_enabled()) return LinkFault::kNone;
    if (geo_rng_.next_double() < cfg_.geo_drop_probability) {
      record(FaultKind::kGeoBatchDrop, bytes);
      return LinkFault::kDrop;
    }
    return LinkFault::kNone;
  }

  /// The precomputed region-outage schedule, executed by the geo layer's
  /// outage driver (cluster/geo_replication.hpp).
  struct RegionOutageEvent {
    sim::Duration after_previous = 0;
    /// Reduced modulo the region count at execution time, unless the config
    /// pins region_outage_victim.
    std::uint64_t victim_raw = 0;
  };
  const std::vector<RegionOutageEvent>& region_schedule() const noexcept {
    return region_schedule_;
  }

  /// Appends a fault to the log, stamped with the current virtual time.
  void record(FaultKind kind, std::int64_t detail) {
    log_.push_back(FaultRecord{sim_->now(), kind, detail});
  }

  const std::vector<FaultRecord>& log() const noexcept { return log_; }

  std::int64_t count(FaultKind kind) const noexcept {
    std::int64_t n = 0;
    for (const FaultRecord& r : log_) n += (r.kind == kind) ? 1 : 0;
    return n;
  }

 private:
  /// Mean of the (exponential) latency-spike duration.
  static constexpr sim::Duration kLatencySpikeMean = sim::millis(20);
  /// Probability that a replica write interrupted by a crash lands *torn*
  /// (partially written, checksum invalid) instead of not at all. Only
  /// consulted when a crash actually interrupts a commit, from its own
  /// forked RNG stream.
  static constexpr double kTornWriteProbability = 0.75;

  sim::Simulation* sim_;
  FaultConfig cfg_;
  sim::Random link_rng_;
  sim::Random torn_rng_;
  sim::Random geo_rng_;
  std::vector<CrashEvent> crash_schedule_;
  std::vector<RegionOutageEvent> region_schedule_;
  std::vector<FaultRecord> log_;
};

}  // namespace faults
