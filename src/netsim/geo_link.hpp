// Inter-region (long-haul) link model: one direction of a WAN path between
// two storage stamps, with its own propagation latency and bandwidth.
//
// Unlike the intra-datacenter Network (network.hpp), a GeoLink is
// *directional* — east->west and west->east traffic occupy separate pipes —
// and it carries *batches* rather than request/response transfers: the geo
// replication shipper moves sealed log batches and the client redirect path
// pays the latency only. Fault draws come from the owning fault plan's
// dedicated geo stream (FaultPlan::draw_geo_link_fault), one per batch, so
// inter-region shipping never perturbs intra-stamp link draws.
#pragma once

#include <cstdint>

#include "faults/fault_plan.hpp"
#include "obs/observer.hpp"
#include "simcore/rate_limiter.hpp"
#include "simcore/simulation.hpp"
#include "simcore/task.hpp"
#include "simcore/time.hpp"

namespace netsim {

/// One direction of an inter-region path. carry() moves a replication batch
/// (occupancy + latency, consulting the geo fault stream); hop() pays the
/// one-way latency only (control traffic: redirects, strong-read routing).
class GeoLink {
 public:
  /// One-way propagation delay across the long-haul path, a realistic WAN
  /// one-way.
  static constexpr sim::Duration kLatency = sim::millis(30);

  explicit GeoLink(sim::Simulation& sim)
      : sim_(sim), pipe_(sim, kBytesPerSec, kBurstBytes) {}

  GeoLink(const GeoLink&) = delete;
  GeoLink& operator=(const GeoLink&) = delete;

  /// Ships `bytes` across the link. Returns false when the geo fault stream
  /// dropped the batch — the occupancy is paid (the bytes left the sending
  /// region) but the batch never arrives, and the caller must redeliver.
  sim::Task<bool> carry(std::int64_t bytes, faults::FaultPlan* plan) {
    faults::LinkFault fault = faults::LinkFault::kNone;
    if (plan != nullptr) fault = plan->draw_geo_link_fault(bytes);
    if (bytes > 0) co_await pipe_.acquire(static_cast<double>(bytes));
    if (fault == faults::LinkFault::kDrop) {
      ++dropped_batches_;
      if (obs::Observer* const o = sim_.observer(); o != nullptr) {
        o->metrics().counter("geo.link_drops").add(1);
      }
      co_return false;
    }
    co_await sim_.delay(kLatency);
    ++batches_;
    bytes_moved_ += bytes;
    if (obs::Observer* const o = sim_.observer(); o != nullptr) {
      o->metrics().counter("geo.link_batches").add(1);
      o->metrics().counter("geo.link_bytes").add(bytes);
    }
    co_return true;
  }

  /// One-way control hop: latency only, no occupancy, no fault draw (the
  /// redirect protocol retries at the client; losing a redirect is
  /// indistinguishable from a slower one at flow level).
  sim::Task<void> hop() { co_await sim_.delay(kLatency); }

  std::int64_t batches() const noexcept { return batches_; }
  std::int64_t bytes_moved() const noexcept { return bytes_moved_; }
  std::int64_t dropped_batches() const noexcept { return dropped_batches_; }

 private:
  /// Provisioned bandwidth of each direction (bytes/s).
  static constexpr double kBytesPerSec = 1.0 * 1024 * 1024 * 1024;
  /// Instantaneous burst credit in bytes.
  static constexpr double kBurstBytes = 256 * 1024.0;

  sim::Simulation& sim_;
  sim::FlowLimiter pipe_;
  std::int64_t batches_ = 0;
  std::int64_t bytes_moved_ = 0;
  std::int64_t dropped_batches_ = 0;
};

}  // namespace netsim
