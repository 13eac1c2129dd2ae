// Backend-agnostic object storage (arbiter-style): one interface over
// simulated object stores with genuinely different contracts. The scenario
// runner (bench/scenario_runner.hpp) reaches objects only through it; which
// backend serves a spec is data (`"backend"` key), not code.
//
// Contract surface:
//  * op semantics differences stay visible through the interface: Azure
//    deletes of absent blobs are misses (404), S3 deletes are idempotent
//    successes (204); Azure listings are consistent, S3 listings lag
//    writes by a visibility window;
//  * throttle differences surface as typed errors: the Azure account gate
//    raises ServerBusyError, the S3 per-prefix caps raise SlowDownError
//    (a ServerBusyError subclass, so client backoff stays uniform).
//
// Queue, table and SQL do not differ by backend: they run on the Azure
// stamp azure() returns, which the s3 backend does not have.
//
// Every method is a lazy sim::Task running on the driver's simulation; the
// caller supplies the client NIC and all names, so drivers stay free of
// workload policy (fanout, retry, think time all live in the runner).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cluster/config.hpp"
#include "faults/fault_plan.hpp"
#include "framework/scenario.hpp"
#include "netsim/nic.hpp"
#include "simcore/task.hpp"

namespace sim {
class Simulation;
}

namespace storage {

class AzureDriver;

/// Uniform per-operation outcome. `bytes` is what the mix table accounts
/// (payload moved); `items` counts listed/scanned entries; `miss` marks a
/// read of an absent key (or a get on an empty queue) — not an error.
struct OpResult {
  std::int64_t bytes = 0;
  std::int64_t items = 0;
  bool miss = false;
};

class Driver {
 public:
  virtual ~Driver() = default;
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// The Azure stamp serving queue, table and SQL: the driver itself on
  /// `azure`, its fast tier on `tiered`, null on `s3`.
  AzureDriver* azure() const noexcept { return azure_; }

  /// Creates the bucket the object ops use. Called once by the runner
  /// before populating (retry policy is the caller's).
  virtual sim::Task<void> prepare_objects(netsim::Nic& nic) = 0;

  virtual sim::Task<OpResult> object_write(netsim::Nic& nic, std::string key,
                                           std::int64_t bytes) = 0;
  virtual sim::Task<OpResult> object_read(netsim::Nic& nic,
                                          std::string key) = 0;
  virtual sim::Task<OpResult> object_list(netsim::Nic& nic) = 0;
  virtual sim::Task<OpResult> object_delete(netsim::Nic& nic,
                                            std::string key) = 0;

 protected:
  explicit Driver(AzureDriver* azure) noexcept : azure_(azure) {}

 private:
  AzureDriver* azure_;
};

/// Builds the driver `sc.backend` names, shaped by the spec's cluster /
/// fault / tiering sections, on the caller's simulation. The returned
/// driver owns its whole backend (cluster, services, fault plan).
std::unique_ptr<Driver> make_driver(sim::Simulation& sim,
                                    const framework::Scenario& sc);

/// Modelled listing-response footprint per entry (name + properties in the
/// enumeration response): what a listing moves on the wire and what the
/// mix table accounts for a list op, on every backend.
inline constexpr std::int64_t kListEntryBytes = 64;

/// The stamp shape the spec's `cluster` section asks for (partition
/// servers, balancer) under the backend's throttle `mode`.
cluster::ClusterConfig cluster_config(const framework::Scenario& sc,
                                      cluster::ThrottleMode mode);

/// The spec's `faults` section as a fault-plan config.
faults::FaultConfig fault_config(const framework::Scenario& sc);

}  // namespace storage
