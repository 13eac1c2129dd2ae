#include "cluster/geo_replication.hpp"

#include <algorithm>
#include <stdexcept>

#include "azure/common/checksum.hpp"
#include "obs/observer.hpp"

namespace cluster {
namespace {

/// Chain CRC32C step: accumulates (seq, crc) onto the previous chain value.
/// The failback reconciliation replays this over the survivor's log prefix;
/// a mismatch means the simulation corrupted its own log (a logic error,
/// never an injected fault) and aborts loudly in every build type.
std::uint32_t chain_step(std::uint32_t prev, std::uint64_t seq,
                         std::uint32_t crc) {
  return azure::Crc32c()
      .update_u64(prev)
      .update_u64(seq)
      .update_u64(crc)
      .value();
}

}  // namespace

GeoConfig GeoCluster::validated(GeoConfig cfg) {
  if (cfg.regions.empty()) {
    throw std::invalid_argument("GeoConfig: at least one region required");
  }
  const int n = static_cast<int>(cfg.regions.size());
  if (cfg.primary < 0 || cfg.primary >= n) {
    throw std::invalid_argument("GeoConfig: primary out of range");
  }
  if (cfg.ship_interval <= 0 || cfg.ship_interval > cfg.staleness_target) {
    throw std::invalid_argument(
        "GeoConfig: need 0 < ship_interval <= staleness_target (the bounded-"
        "staleness contract is provisioned by the shipping cadence)");
  }
  const ClusterConfig& first = cfg.regions.front().cluster;
  for (const GeoRegionConfig& rc : cfg.regions) {
    if (rc.cluster.partition_servers != first.partition_servers ||
        rc.cluster.balancer.buckets_per_server !=
            first.balancer.buckets_per_server) {
      throw std::invalid_argument(
          "GeoConfig: every region must share the partition geometry "
          "(partition_servers, buckets_per_server) — the geo log is keyed "
          "by bucket and objects keep one home server index in all stamps");
    }
  }
  return cfg;
}

GeoCluster::GeoCluster(sim::Simulation& sim, GeoConfig cfg)
    : sim_(sim),
      cfg_(validated(std::move(cfg))),
      primary_(cfg_.primary),
      initial_primary_(cfg_.primary) {
  const int n = static_cast<int>(cfg_.regions.size());
  regions_.reserve(static_cast<std::size_t>(n));
  for (const GeoRegionConfig& rc : cfg_.regions) {
    regions_.push_back(std::make_unique<StorageCluster>(sim_, rc.cluster));
  }
  links_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (int from = 0; from < n; ++from) {
    for (int to = 0; to < n; ++to) {
      if (from == to) continue;
      links_[static_cast<std::size_t>(from * n + to)] =
          std::make_unique<netsim::GeoLink>(sim_);
    }
  }
  region_up_.assign(static_cast<std::size_t>(n), 1);
  const int buckets = regions_.front()->partition_map().buckets();
  log_.resize(static_cast<std::size_t>(buckets));
  committed_seq_.assign(static_cast<std::size_t>(buckets), 0);
  applied_seq_.assign(
      static_cast<std::size_t>(n),
      std::vector<std::uint64_t>(static_cast<std::size_t>(buckets), 0));
  applied_chain_.assign(
      static_cast<std::size_t>(n),
      std::vector<std::uint32_t>(static_cast<std::size_t>(buckets), 0));
  ship_pending_.assign(
      static_cast<std::size_t>(n),
      std::vector<char>(static_cast<std::size_t>(buckets), 0));
}

GeoCluster::~GeoCluster() = default;

void GeoCluster::enable_faults(faults::FaultPlan& plan) {
  faults_ = &plan;
  for (auto& region : regions_) region->enable_faults(plan);
  if (plan.config().region_faults_enabled() && region_count() > 1) {
    sim_.spawn(region_driver());
  }
}

// --------------------------------------------------------------- routing ----

sim::Task<int> GeoCluster::route_to_primary(netsim::Nic& client,
                                            int client_region) {
  if (region_count() > 1) {
    // Cross-region redirect protocol (mirrors the stamp-level stale-map
    // path): a client whose cached geo-map version predates a failover gets
    // a typed, retryable redirect carrying the fresh version instead of an
    // execution against the demoted region. geo_version_ starts at 1 and
    // only moves on promotion, so the check is dead until a failover.
    std::uint64_t& cached = client_geo_versions_[&client];
    if (geo_version_ > 1 && cached < geo_version_) {
      cached = geo_version_;
      ++stale_geo_redirects_;
      co_await sim_.delay(StorageCluster::kFrontendLatency);
      if (obs::Observer* const o = sim_.observer(); o != nullptr) {
        o->metrics().counter("geo.stale_redirects").add(1);
      }
      throw RegionMovedError(
          "geo map is stale: primary moved to region " +
          std::to_string(primary_) + " (" + region_name(primary_) +
          "), geo map version " + std::to_string(geo_version_));
    }
    cached = geo_version_;
  }
  if (!region_up(primary_)) {
    throw ConnectionResetError(
        "no healthy region: the primary is down and nothing was promoted");
  }
  // A promotion in progress briefly stalls the whole geo endpoint (DNS/
  // traffic-manager repointing); arrivals inside the window wait it out.
  if (geo_unavailable_until_ > sim_.now()) {
    co_await sim_.delay_until(geo_unavailable_until_);
  }
  const int p = primary_;
  if (client_region != p) co_await link(client_region, p).hop();
  co_return p;
}

void GeoCluster::note_primary_success() {
  if (!rto_pending_) return;
  rto_pending_ = false;
  last_rto_ = sim_.now() - outage_at_;
  if (obs::Observer* const o = sim_.observer(); o != nullptr) {
    o->metrics().histogram("geo.rto").record(last_rto_);
  }
}

// ------------------------------------------------------------- data path ----

sim::Task<ExecResult> GeoCluster::write(netsim::Nic& client,
                                        int client_region,
                                        std::uint64_t partition_hash,
                                        RequestCost cost) {
  const int p = co_await route_to_primary(client, client_region);
  StorageCluster& home = *regions_[static_cast<std::size_t>(p)];
  ExecResult res = co_await home.execute(client, partition_hash, cost);
  if (!region_up(p) || p != primary_) {
    // The region was lost while serving: the stamp committed locally but
    // the ack dies with the region, and the log authority has moved on. The
    // write must NOT enter the (possibly truncated) geo log — it is exactly
    // the kind of unacknowledged, unreplicated mutation the failover drill
    // counts as lost.
    throw ConnectionResetError("region " + region_name(p) +
                               " was lost while serving the request");
  }
  const int bucket = home.partition_map().bucket_of(partition_hash);
  const int home_server = home.partition_map().default_owner(bucket);
  // The shipped generation mirrors the home ledger for tracked objects so a
  // redelivered batch can never regress a secondary's ledger; untracked
  // writes just consume the bucket sequence.
  std::uint64_t gen = committed_seq_[static_cast<std::size_t>(bucket)] + 1;
  if (cost.object_id != 0) {
    if (ReplicaStore::Entry* e = home.replica_store().find(cost.object_id);
        e != nullptr && e->committed_gen > 0) {
      gen = e->committed_gen;
    }
  }
  const std::int64_t bytes =
      cost.object_bytes > 0 ? cost.object_bytes : cost.disk_bytes;
  append_to_log(bucket, cost.object_id, home_server, gen, cost.content_crc,
                bytes);
  note_primary_success();
  if (obs::Observer* const o = sim_.observer(); o != nullptr) {
    o->metrics().counter("geo.writes").add(1);
  }
  if (client_region != p) co_await link(p, client_region).hop();
  co_return res;
}

sim::Task<GeoReadResult> GeoCluster::read(netsim::Nic& client,
                                          int client_region,
                                          std::uint64_t partition_hash,
                                          RequestCost cost,
                                          ReadConsistency mode) {
  GeoReadResult out;
  if (mode == ReadConsistency::kStrong) {
    const int p = co_await route_to_primary(client, client_region);
    out.exec = co_await regions_[static_cast<std::size_t>(p)]->execute(
        client, partition_hash, cost);
    out.region = p;
    if (p == primary_) note_primary_success();
    if (obs::Observer* const o = sim_.observer(); o != nullptr) {
      o->metrics().counter("geo.reads.strong").add(1);
    }
    if (client_region != p) co_await link(p, client_region).hop();
    co_return out;
  }
  // Eventual: serve region-local when the local region is up, else fall
  // back to the primary (paying the hop). No geo-version check — an
  // eventual read does not care which region holds the primary role.
  int serve = client_region;
  if (!region_up(serve)) {
    serve = primary_;
    if (!region_up(serve)) {
      throw ConnectionResetError("no healthy region to serve the read");
    }
    co_await link(client_region, serve).hop();
  }
  StorageCluster& stamp = *regions_[static_cast<std::size_t>(serve)];
  const int bucket = stamp.partition_map().bucket_of(partition_hash);
  out.staleness = staleness(serve, bucket);
  out.exec = co_await stamp.execute(client, partition_hash, cost);
  out.region = serve;
  if (serve == primary_) note_primary_success();
  if (obs::Observer* const o = sim_.observer(); o != nullptr) {
    o->metrics().counter("geo.reads.eventual").add(1);
    o->metrics().histogram("geo.read_staleness").record(out.staleness);
  }
  if (serve != client_region) co_await link(serve, client_region).hop();
  co_return out;
}

// ------------------------------------------------------------- log state ----

sim::Duration GeoCluster::staleness(int region, int bucket) const noexcept {
  const std::uint64_t applied = applied_seq_[static_cast<std::size_t>(region)]
                                            [static_cast<std::size_t>(bucket)];
  if (applied >= committed_seq_[static_cast<std::size_t>(bucket)]) return 0;
  // Oldest unapplied entry: seq applied+1 lives at index applied.
  return sim_.now() - log_[static_cast<std::size_t>(bucket)]
                          [static_cast<std::size_t>(applied)]
                              .committed_at;
}

sim::Duration GeoCluster::max_staleness(int region) const noexcept {
  sim::Duration worst = 0;
  for (int b = 0; b < buckets(); ++b) {
    worst = std::max(worst, staleness(region, b));
  }
  return worst;
}

std::int64_t GeoCluster::replication_lag(int region) const noexcept {
  std::int64_t lag = 0;
  for (int b = 0; b < buckets(); ++b) {
    lag += static_cast<std::int64_t>(
        committed_seq_[static_cast<std::size_t>(b)] -
        applied_seq_[static_cast<std::size_t>(region)]
                    [static_cast<std::size_t>(b)]);
  }
  return lag;
}

void GeoCluster::append_to_log(int bucket, std::uint64_t object_id,
                               int home_server, std::uint64_t gen,
                               std::uint32_t crc, std::int64_t bytes) {
  auto& bucket_log = log_[static_cast<std::size_t>(bucket)];
  GeoEntry e;
  e.seq = ++committed_seq_[static_cast<std::size_t>(bucket)];
  e.object_id = object_id;
  e.gen = gen;
  e.crc = crc;
  e.bytes = bytes;
  e.home_server = home_server;
  e.committed_at = sim_.now();
  e.chain = chain_step(bucket_log.empty() ? 0 : bucket_log.back().chain,
                       e.seq, e.crc);
  bucket_log.push_back(e);
  ++log_appends_;
  // The primary's applied row tracks committed by definition (it authored
  // the entry); the chain doubles as the authority value failback verifies.
  applied_seq_[static_cast<std::size_t>(primary_)]
             [static_cast<std::size_t>(bucket)] = e.seq;
  applied_chain_[static_cast<std::size_t>(primary_)]
               [static_cast<std::size_t>(bucket)] = e.chain;
  if (obs::Observer* const o = sim_.observer(); o != nullptr) {
    o->metrics().counter("geo.log_appends").add(1);
  }
  for (int r = 0; r < region_count(); ++r) arm_shipping(r, bucket);
}

// -------------------------------------------------------------- shipping ----

void GeoCluster::arm_shipping(int region, int bucket) {
  if (region == primary_ || !region_up(region)) return;
  char& pending = ship_pending_[static_cast<std::size_t>(region)]
                               [static_cast<std::size_t>(bucket)];
  if (pending != 0) return;
  if (applied_seq_[static_cast<std::size_t>(region)]
                  [static_cast<std::size_t>(bucket)] >=
      committed_seq_[static_cast<std::size_t>(bucket)]) {
    return;
  }
  pending = 1;
  sim_.spawn(ship_loop(region, bucket));
}

sim::Task<void> GeoCluster::ship_loop(int region, int bucket) {
  // Event-driven, finite: chains batches while the destination lags, exits
  // when caught up or the topology changed (region or primary down, region
  // promoted). Appends arriving while the task is alive extend its work;
  // appends after it exits arm a fresh task. Never parks on a gate, so a
  // drained simulation always terminates.
  for (;;) {
    co_await sim_.delay(cfg_.ship_interval);
    if (!region_up(region) || region == primary_ || !region_up(primary_) ||
        applied_seq_[static_cast<std::size_t>(region)]
                    [static_cast<std::size_t>(bucket)] >=
            committed_seq_[static_cast<std::size_t>(bucket)]) {
      break;
    }
    co_await ship_batch(region, bucket);
  }
  ship_pending_[static_cast<std::size_t>(region)]
              [static_cast<std::size_t>(bucket)] = 0;
}

sim::Task<bool> GeoCluster::ship_batch(int region, int bucket) {
  const int src = primary_;
  const std::uint64_t applied =
      applied_seq_[static_cast<std::size_t>(region)]
                  [static_cast<std::size_t>(bucket)];
  const std::uint64_t hi =
      std::min(committed_seq_[static_cast<std::size_t>(bucket)],
               applied + static_cast<std::uint64_t>(kShipBatchMax));
  if (applied >= hi) co_return true;
  std::int64_t batch_bytes = 0;
  for (std::uint64_t s = applied + 1; s <= hi; ++s) {
    batch_bytes += log_[static_cast<std::size_t>(bucket)]
                       [static_cast<std::size_t>(s - 1)]
                           .bytes;
  }
  const bool delivered =
      co_await link(src, region).carry(batch_bytes, faults_);
  if (!delivered) {
    ++redeliveries_;
    if (obs::Observer* const o = sim_.observer(); o != nullptr) {
      o->metrics().counter("geo.redeliveries").add(1);
    }
    co_return false;
  }
  // Re-check everything after the await: a failover may have truncated the
  // log, a concurrent shipper may have advanced applied, the destination
  // may have died. The applied watermark is monotone — redelivered or
  // overlapping batches can never rewind it.
  for (;;) {
    std::uint64_t& cur = applied_seq_[static_cast<std::size_t>(region)]
                                     [static_cast<std::size_t>(bucket)];
    const std::uint64_t next = cur + 1;
    if (next > hi ||
        next > committed_seq_[static_cast<std::size_t>(bucket)]) {
      break;
    }
    if (!region_up(region) || region == primary_) break;
    // Copy, not reference: the apply below suspends, and a concurrent
    // append can reallocate the bucket's log vector (or a failover truncate
    // it) while this task is parked.
    const GeoEntry e = log_[static_cast<std::size_t>(bucket)]
                           [static_cast<std::size_t>(next - 1)];
    co_await regions_[static_cast<std::size_t>(region)]->apply_geo_write(
        e.object_id, e.home_server, e.gen, e.crc, e.bytes);
    if (!region_up(region) || region == primary_) break;
    // A failover during the apply may have truncated the log below e.seq
    // (and new writes may have re-filled the slot with a different entry).
    // Advancing the watermark with the stale copy would corrupt the chain;
    // leave it where it is and let the re-armed shipper resync.
    if (committed_seq_[static_cast<std::size_t>(bucket)] < e.seq ||
        log_[static_cast<std::size_t>(bucket)][static_cast<std::size_t>(
            e.seq - 1)].chain != e.chain) {
      break;
    }
    std::uint64_t& after = applied_seq_[static_cast<std::size_t>(region)]
                                       [static_cast<std::size_t>(bucket)];
    if (after < e.seq) {
      after = e.seq;
      applied_chain_[static_cast<std::size_t>(region)]
                   [static_cast<std::size_t>(bucket)] = e.chain;
    }
  }
  co_return true;
}

sim::Task<void> GeoCluster::catch_up_region(int region) {
  for (int b = 0; b < buckets(); ++b) {
    // Claim the bucket so no event-driven shipper double-ships while the
    // synchronous catch-up drains it.
    char& pending = ship_pending_[static_cast<std::size_t>(region)]
                                 [static_cast<std::size_t>(b)];
    const char was_pending = pending;
    pending = 1;
    while (region_up(region) && region != primary_ && region_up(primary_) &&
           applied_seq_[static_cast<std::size_t>(region)]
                       [static_cast<std::size_t>(b)] <
               committed_seq_[static_cast<std::size_t>(b)]) {
      co_await ship_batch(region, b);
    }
    pending = was_pending;
  }
}

sim::Task<void> GeoCluster::catch_up() {
  for (int r = 0; r < region_count(); ++r) {
    if (r == primary_ || !region_up(r)) continue;
    co_await catch_up_region(r);
  }
}

// ------------------------------------------------------ outage / failover ----

void GeoCluster::force_region_outage(int region) {
  if (!region_up(region)) return;
  region_up_[static_cast<std::size_t>(region)] = 0;
  if (faults_ != nullptr) {
    faults_->record(faults::FaultKind::kRegionOutage, region);
  }
  obs::Observer* const o = sim_.observer();
  if (o != nullptr) o->metrics().counter("geo.region_outages").add(1);
  if (region != primary_) return;

  // Promote the next healthy region in ring order.
  int promoted = -1;
  for (int k = 1; k < region_count(); ++k) {
    const int c = (region + k) % region_count();
    if (region_up(c)) {
      promoted = c;
      break;
    }
  }
  if (promoted < 0) return;  // total geo outage: ops throw until a restore

  // The promoted region's high-water mark becomes the truth. Everything the
  // dead primary committed beyond it is lost — the RPO of asynchronous
  // geo-replication — and regions that were *ahead* of the new truth (the
  // victim itself, or a faster secondary) roll their watermarks back and
  // count as divergent until the scrub reconciles their ledgers.
  std::int64_t lost_total = 0;
  for (int b = 0; b < buckets(); ++b) {
    auto& bucket_log = log_[static_cast<std::size_t>(b)];
    const std::uint64_t keep =
        applied_seq_[static_cast<std::size_t>(promoted)]
                    [static_cast<std::size_t>(b)];
    const std::uint64_t lost =
        committed_seq_[static_cast<std::size_t>(b)] - keep;
    if (lost > 0) {
      lost_total += static_cast<std::int64_t>(lost);
      const sim::Duration stale =
          sim_.now() -
          bucket_log[static_cast<std::size_t>(keep)].committed_at;
      max_staleness_at_failover_ = std::max(max_staleness_at_failover_, stale);
      if (o != nullptr) {
        o->metrics().histogram("geo.staleness_at_failover").record(stale);
      }
      bucket_log.resize(static_cast<std::size_t>(keep));
      committed_seq_[static_cast<std::size_t>(b)] = keep;
    }
    for (int r = 0; r < region_count(); ++r) {
      std::uint64_t& a = applied_seq_[static_cast<std::size_t>(r)]
                                     [static_cast<std::size_t>(b)];
      if (a > keep) {
        a = keep;
        applied_chain_[static_cast<std::size_t>(r)]
                     [static_cast<std::size_t>(b)] =
            keep > 0 ? bucket_log[static_cast<std::size_t>(keep - 1)].chain
                     : 0;
        ++divergent_resets_;
        if (o != nullptr) {
          o->metrics().counter("geo.divergent_resets").add(1);
        }
      }
    }
  }
  rpo_lost_writes_ += lost_total;
  if (lost_total == 0 && o != nullptr) {
    // Mark the zero-loss failover in the histogram so replays distinguish
    // "no failover" from "failover with empty pipeline".
    o->metrics().histogram("geo.staleness_at_failover").record(0);
  }

  primary_ = promoted;
  ++geo_version_;
  ++region_failovers_;
  outage_at_ = sim_.now();
  rto_pending_ = true;
  geo_unavailable_until_ = sim_.now() + kRegionFailoverLatency;
  if (faults_ != nullptr) {
    faults_->record(faults::FaultKind::kRegionFailover, promoted);
  }
  if (o != nullptr) {
    o->metrics().counter("geo.region_failovers").add(1);
    o->metrics().counter("geo.rpo_lost_writes").add(lost_total);
    o->metrics().gauge("geo.primary").set(promoted);
    o->metrics().gauge("geo.map_version").set(
        static_cast<std::int64_t>(geo_version_));
  }
  // Re-arm shipping from the new primary: surviving secondaries whose ship
  // tasks exited against the old topology pick up where their watermark is.
  for (int r = 0; r < region_count(); ++r) {
    for (int b = 0; b < buckets(); ++b) arm_shipping(r, b);
  }
}

void GeoCluster::verify_chain(int region) {
  for (int b = 0; b < buckets(); ++b) {
    ++chain_verifications_;
    const std::uint64_t applied =
        applied_seq_[static_cast<std::size_t>(region)]
                    [static_cast<std::size_t>(b)];
    std::uint32_t chain = 0;
    for (std::uint64_t s = 1; s <= applied; ++s) {
      const GeoEntry& e =
          log_[static_cast<std::size_t>(b)][static_cast<std::size_t>(s - 1)];
      chain = chain_step(chain, e.seq, e.crc);
      if (chain != e.chain) {
        throw std::logic_error(
            "geo log chain CRC mismatch at bucket " + std::to_string(b) +
            " seq " + std::to_string(s) + " — the log was corrupted");
      }
    }
    if (chain != applied_chain_[static_cast<std::size_t>(region)]
                               [static_cast<std::size_t>(b)]) {
      throw std::logic_error(
          "geo applied-chain mismatch at region " + std::to_string(region) +
          " bucket " + std::to_string(b) +
          " — the region applied entries out of sequence");
    }
  }
  if (obs::Observer* const o = sim_.observer(); o != nullptr) {
    o->metrics().counter("geo.chain_verifications").add(buckets());
  }
}

sim::Task<void> GeoCluster::geo_scrub(int region) {
  // Ledger reconciliation against the current authority (the primary's
  // store): every tracked object's committed (gen, crc, bytes) is forced
  // onto the target region, healing stale, torn and divergent copies via
  // the stamp's replica-commit path. Unlike apply_geo_write this may *roll
  // back* a ledger — a failed-over old primary holds generations the new
  // authority never acknowledged, and they must not survive failback.
  StorageCluster& auth = *regions_[static_cast<std::size_t>(primary_)];
  StorageCluster& target = *regions_[static_cast<std::size_t>(region)];
  obs::Observer* const o = sim_.observer();
  for (auto& [object_id, src] : auth.replica_store().entries()) {
    if (src.committed_gen == 0) continue;
    co_await sim_.delay(StorageCluster::kScrubCheckTime);
    ReplicaStore::Entry& dst = target.replica_store().open(object_id,
                                                           src.home);
    for (int r = 0; r < kReplicas; ++r) {
      auto& rep = dst.replicas[static_cast<std::size_t>(r)];
      const bool good = !rep.torn && rep.gen == src.committed_gen &&
                        rep.crc == src.committed_crc;
      if (good) continue;
      PartitionServer& host =
          target.server(target.replica_store().server_of(dst, r));
      if (!host.up()) continue;  // stays bad for the next pass
      co_await host.replica_commit(src.bytes);
      if (!host.up()) continue;  // crashed mid-repair
      rep.gen = src.committed_gen;
      rep.crc = src.committed_crc;
      rep.torn = false;
      ++geo_scrub_repairs_;
      if (faults_ != nullptr) {
        faults_->record(faults::FaultKind::kScrubRepair, host.index());
      }
      if (o != nullptr) o->metrics().counter("geo.scrub_repairs").add(1);
    }
    dst.committed_gen = src.committed_gen;
    dst.committed_crc = src.committed_crc;
    dst.bytes = src.bytes;
    dst.next_gen = std::max(dst.next_gen, src.next_gen);
  }
}

sim::Task<void> GeoCluster::force_region_restore(int region) {
  if (region_up(region)) co_return;
  region_up_[static_cast<std::size_t>(region)] = 1;
  if (faults_ != nullptr) {
    faults_->record(faults::FaultKind::kRegionRestore, region);
  }
  obs::Observer* const o = sim_.observer();
  if (o != nullptr) o->metrics().counter("geo.region_restores").add(1);
  if (!region_up(primary_)) {
    // Total outage: the returning region is the only survivor — it resumes
    // as the authority over exactly what it had applied.
    primary_ = region;
    ++geo_version_;
    ++region_failovers_;
    if (faults_ != nullptr) {
      faults_->record(faults::FaultKind::kRegionFailover, region);
    }
    if (o != nullptr) {
      o->metrics().counter("geo.region_failovers").add(1);
      o->metrics().gauge("geo.primary").set(region);
    }
    co_return;
  }
  // Failback reconciliation, in order: (1) prove the survivor's log prefix
  // and this region's applied watermark are internally consistent (chain
  // CRC), (2) converge the region's replica ledger onto the authority's
  // committed state (the PR 3 scrub machinery), (3) ship everything it
  // missed while down.
  verify_chain(region);
  co_await geo_scrub(region);
  co_await catch_up_region(region);
  if (region == initial_primary_ && primary_ != region &&
      region_up(region)) {
    primary_ = region;
    ++geo_version_;
    ++region_failbacks_;
    geo_unavailable_until_ = sim_.now() + kRegionFailoverLatency;
    if (faults_ != nullptr) {
      faults_->record(faults::FaultKind::kRegionFailback, region);
    }
    if (o != nullptr) {
      o->metrics().counter("geo.region_failbacks").add(1);
      o->metrics().gauge("geo.primary").set(region);
      o->metrics().gauge("geo.map_version").set(
          static_cast<std::int64_t>(geo_version_));
    }
    // The demoted region keeps shipping targets honest: re-arm everything
    // that lags the (unchanged) log under the restored authority.
    for (int r = 0; r < region_count(); ++r) {
      for (int b = 0; b < buckets(); ++b) arm_shipping(r, b);
    }
  }
}

sim::Task<void> GeoCluster::region_driver() {
  for (const faults::FaultPlan::RegionOutageEvent& ev :
       faults_->region_schedule()) {
    co_await sim_.delay(ev.after_previous);
    const int victim =
        faults_->config().region_outage_victim >= 0
            ? faults_->config().region_outage_victim % region_count()
            : static_cast<int>(ev.victim_raw %
                               static_cast<std::uint64_t>(region_count()));
    force_region_outage(victim);
    co_await sim_.delay(faults_->config().region_downtime);
    co_await force_region_restore(victim);
  }
}

}  // namespace cluster
