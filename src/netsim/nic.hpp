// Network endpoint model: a NIC with independent uplink/downlink bandwidth
// and a fixed serialization latency.
#pragma once

#include <cstdint>

#include "simcore/rate_limiter.hpp"
#include "simcore/simulation.hpp"
#include "simcore/time.hpp"

namespace netsim {

struct NicConfig {
  double uplink_bytes_per_sec;
  double downlink_bytes_per_sec;
  sim::Duration latency = sim::micros(50);
  /// Instantaneous burst credit in bytes (lets small control packets pass
  /// without queueing behind an idle pipe).
  double burst_bytes = 64 * 1024.0;
};

/// NIC bandwidth of every server in the stamp (partition, SQL database and
/// cache servers), each direction (bytes/s).
inline constexpr double kServerNicBytesPerSec = 800.0 * 1024 * 1024;

/// One endpoint's network interface. Transfers through a NIC occupy the
/// relevant direction's pipe for bytes/bandwidth of virtual time.
class Nic {
 public:
  Nic(sim::Simulation& sim, const NicConfig& cfg)
      : cfg_(cfg),
        up_(sim, cfg.uplink_bytes_per_sec, cfg.burst_bytes),
        down_(sim, cfg.downlink_bytes_per_sec, cfg.burst_bytes) {}

  const NicConfig& config() const noexcept { return cfg_; }

  /// Awaitable: pushes `bytes` out of this endpoint.
  auto send(std::int64_t bytes) noexcept {
    bytes_sent_ += bytes;
    return up_.acquire(static_cast<double>(bytes));
  }

  /// Awaitable: receives `bytes` into this endpoint.
  auto receive(std::int64_t bytes) noexcept {
    return down_.acquire(static_cast<double>(bytes));
  }

  std::int64_t bytes_sent() const noexcept { return bytes_sent_; }

 private:
  NicConfig cfg_;
  sim::FlowLimiter up_;
  sim::FlowLimiter down_;
  std::int64_t bytes_sent_ = 0;
};

}  // namespace netsim
