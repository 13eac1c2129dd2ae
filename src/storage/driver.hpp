// Backend-agnostic storage driver layer (arbiter-style):
// one uniform interface over simulated backends with genuinely different
// contracts. The scenario runner (bench/scenario_runner.hpp) speaks only
// this interface; which backend serves a spec is data (`"backend"` key),
// not code.
//
// Contract surface:
//  * capability flags (framework::BackendCaps) declare what a backend can
//    do — the parser rejects mixes that name a missing service, and calls
//    into an unimplemented group raise a typed CapabilityError;
//  * op semantics differences stay visible through the interface: Azure
//    deletes of absent blobs are misses (404), S3 deletes are idempotent
//    successes (204); Azure listings are consistent, S3 listings lag
//    writes by a visibility window;
//  * throttle differences surface as typed errors: the Azure account gate
//    raises ServerBusyError, the S3 per-prefix caps raise SlowDownError
//    (a ServerBusyError subclass, so client backoff stays uniform).
//
// Every method is a lazy sim::Task running on the driver's simulation; the
// caller supplies the client NIC and all names, so drivers stay free of
// workload policy (fanout, retry, think time all live in the runner).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cluster/config.hpp"
#include "cluster/errors.hpp"
#include "faults/fault_plan.hpp"
#include "framework/scenario.hpp"
#include "netsim/nic.hpp"
#include "simcore/task.hpp"

namespace sim {
class Simulation;
}

namespace storage {

/// Raised when a driver method outside the backend's capability set is
/// called anyway (the parser prevents this for spec-driven runs; direct
/// driver users get the typed error instead of UB).
class CapabilityError : public cluster::StorageError {
 public:
  explicit CapabilityError(const std::string& what)
      : cluster::StorageError(what) {}
};

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
  Driver() = default;
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  virtual const char* name() const noexcept = 0;
  virtual const framework::BackendCaps& caps() const noexcept = 0;

  // ----------------------------------------------------- setup hooks ----
  // Called once by the runner before populating (retry policy is the
  // caller's). Base implementations of unsupported groups throw
  // CapabilityError on first await.
  virtual sim::Task<void> prepare_objects(netsim::Nic& nic);
  virtual sim::Task<void> prepare_queue(netsim::Nic& nic, std::string queue);
  virtual sim::Task<void> prepare_table(netsim::Nic& nic);
  virtual sim::Task<void> prepare_sql(netsim::Nic& nic);

  // ----------------------------------------------------- object ops ----
  virtual sim::Task<OpResult> object_write(netsim::Nic& nic, std::string key,
                                           std::int64_t bytes);
  virtual sim::Task<OpResult> object_read(netsim::Nic& nic, std::string key);
  virtual sim::Task<OpResult> object_list(netsim::Nic& nic);
  virtual sim::Task<OpResult> object_delete(netsim::Nic& nic,
                                            std::string key);

  // ------------------------------------------------------ queue ops ----
  /// One message onto one queue (pub/sub fanout loops in the runner).
  virtual sim::Task<OpResult> queue_put(netsim::Nic& nic, std::string queue,
                                        std::int64_t bytes);
  virtual sim::Task<OpResult> queue_get(netsim::Nic& nic, std::string queue);
  virtual sim::Task<OpResult> queue_peek(netsim::Nic& nic, std::string queue);

  // ------------------------------------------------------ table ops ----
  virtual sim::Task<OpResult> table_read(netsim::Nic& nic,
                                         std::string partition,
                                         std::string row);
  virtual sim::Task<OpResult> table_insert(netsim::Nic& nic,
                                           std::string partition,
                                           std::string row,
                                           std::int64_t bytes);
  virtual sim::Task<OpResult> table_update(netsim::Nic& nic,
                                           std::string partition,
                                           std::string row,
                                           std::int64_t bytes);
  virtual sim::Task<OpResult> table_scan(netsim::Nic& nic,
                                         std::string partition);
  virtual sim::Task<OpResult> table_rmw(netsim::Nic& nic,
                                        std::string partition,
                                        std::string row, std::int64_t bytes);

  // -------------------------------------------------------- sql ops ----
  virtual sim::Task<OpResult> sql_read(netsim::Nic& nic, std::uint64_t key);
  virtual sim::Task<OpResult> sql_write(netsim::Nic& nic, std::uint64_t key,
                                        std::int64_t bytes);
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
