// Datacenter network model: store-and-forward transfers between NICs over a
// switched fabric with a fixed propagation latency.
//
// The model intentionally stays at flow level (no packets): a transfer pays
// the sender's uplink occupancy, the fabric propagation delay, then the
// receiver's downlink occupancy. This is the standard fluid approximation
// used by datacenter simulators and is exact for the long sequential
// transfers the benchmarks issue.
#pragma once

#include <cstdint>
#include <string>

#include "faults/errors.hpp"
#include "faults/fault_plan.hpp"
#include "netsim/nic.hpp"
#include "obs/observer.hpp"
#include "simcore/simulation.hpp"
#include "simcore/task.hpp"
#include "simcore/time.hpp"

namespace netsim {

/// One-way propagation + switching delay inside the datacenter.
inline constexpr sim::Duration kPropagation = sim::micros(250);

class Network {
 public:
  explicit Network(sim::Simulation& sim) : sim_(sim) {}

  sim::Simulation& simulation() const noexcept { return sim_; }

  /// Installs (or clears, with nullptr) the fault plan consulted on every
  /// transfer. With no plan — or a disabled one — transfer timing and event
  /// sequences are byte-identical to a fault-free build.
  void set_fault_plan(faults::FaultPlan* plan) noexcept { plan_ = plan; }
  faults::FaultPlan* fault_plan() const noexcept { return plan_; }

  /// Transfers `bytes` from `src` to `dst` (0 bytes = a control message that
  /// only pays NIC latency + propagation). Returns true when the payload
  /// arrived with flipped bits: timing is identical to a clean transfer —
  /// the damage is only observable to layers that checksum the payload.
  ///
  /// Under an active fault plan a transfer may additionally
  ///  * be dropped — the sender's occupancy is paid but the message never
  ///    arrives; the caller observes faults::TimeoutError after the plan's
  ///    drop_timeout (the flow-level rendering of a lost packet train);
  ///  * be duplicated — the payload pays its link occupancy twice (a
  ///    retransmission; the transport dedupes, so no semantic effect);
  ///  * hit a latency spike — extra propagation delay on this hop.
  sim::Task<bool> transfer_checked(Nic& src, Nic& dst, std::int64_t bytes,
                                   obs::TraceContext trace = {}) {
    faults::LinkFault fault = faults::LinkFault::kNone;
    if (plan_ != nullptr) fault = plan_->draw_link_fault(bytes);
    obs::Observer* const o = sim_.observer();
    obs::SpanHandle span{};
    if (o != nullptr) span = o->begin(trace, sim_.now());

    if (bytes > 0) co_await src.send(bytes);
    if (fault == faults::LinkFault::kDrop) {
      co_await sim_.delay(plan_->config().drop_timeout);
      if (o != nullptr) {
        o->metrics().counter("net.dropped").add(1);
        o->end(span, obs::SpanKind::kNetTransfer, 0, -1, bytes,
               /*error=*/true, sim_.now());
      }
      throw faults::TimeoutError("transfer lost in the network (" +
                                 std::to_string(bytes) + " bytes)");
    }
    if (fault == faults::LinkFault::kDuplicate && bytes > 0) {
      co_await src.send(bytes);  // retransmission occupies the uplink again
    }
    sim::Duration propagation = kPropagation;
    if (fault == faults::LinkFault::kLatencySpike) {
      propagation += plan_->draw_spike_duration();
    }
    co_await sim_.delay(src.config().latency + propagation +
                        dst.config().latency);
    if (bytes > 0) {
      co_await dst.receive(bytes);
      if (fault == faults::LinkFault::kDuplicate) co_await dst.receive(bytes);
    }
    ++transfers_;
    bytes_moved_ += bytes;
    if (o != nullptr) {
      o->metrics().counter("net.transfers").add(1);
      o->metrics().counter("net.bytes").add(bytes);
      o->end(span, obs::SpanKind::kNetTransfer, 0, -1, bytes,
             /*error=*/false, sim_.now());
    }
    co_return fault == faults::LinkFault::kBitFlip;
  }

  /// transfer_checked for callers that carry no payload checksum (corrupt
  /// arrivals are indistinguishable from clean ones to them).
  sim::Task<void> transfer(Nic& src, Nic& dst, std::int64_t bytes,
                           obs::TraceContext trace = {}) {
    (void)co_await transfer_checked(src, dst, bytes, trace);
  }

  std::int64_t transfers() const noexcept { return transfers_; }
  std::int64_t bytes_moved() const noexcept { return bytes_moved_; }

 private:
  sim::Simulation& sim_;
  faults::FaultPlan* plan_ = nullptr;
  std::int64_t transfers_ = 0;
  std::int64_t bytes_moved_ = 0;
};

}  // namespace netsim
