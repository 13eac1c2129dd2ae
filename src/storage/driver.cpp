#include "storage/driver.hpp"

#include "storage/azure_driver.hpp"
#include "storage/s3_driver.hpp"
#include "storage/tiered_driver.hpp"

namespace storage {
namespace {

// Lazy tasks run synchronously up to the first suspension when awaited, so
// a plain throw in the body surfaces exactly at the caller's co_await.
[[noreturn]] void unsupported(const Driver& d, const char* group) {
  throw CapabilityError(std::string("backend '") + d.name() + "' has no " +
                        group + " service");
}

}  // namespace

sim::Task<void> Driver::prepare_objects(netsim::Nic&) {
  unsupported(*this, "object");
}
sim::Task<void> Driver::prepare_queue(netsim::Nic&, std::string) {
  unsupported(*this, "queue");
}
sim::Task<void> Driver::prepare_table(netsim::Nic&) {
  unsupported(*this, "table");
}
sim::Task<void> Driver::prepare_sql(netsim::Nic&) {
  unsupported(*this, "sql");
}
sim::Task<OpResult> Driver::object_write(netsim::Nic&, std::string,
                                         std::int64_t) {
  unsupported(*this, "object");
}
sim::Task<OpResult> Driver::object_read(netsim::Nic&, std::string) {
  unsupported(*this, "object");
}
sim::Task<OpResult> Driver::object_list(netsim::Nic&) {
  unsupported(*this, "object");
}
sim::Task<OpResult> Driver::object_delete(netsim::Nic&, std::string) {
  unsupported(*this, "object");
}
sim::Task<OpResult> Driver::queue_put(netsim::Nic&, std::string,
                                      std::int64_t) {
  unsupported(*this, "queue");
}
sim::Task<OpResult> Driver::queue_get(netsim::Nic&, std::string) {
  unsupported(*this, "queue");
}
sim::Task<OpResult> Driver::queue_peek(netsim::Nic&, std::string) {
  unsupported(*this, "queue");
}
sim::Task<OpResult> Driver::table_read(netsim::Nic&, std::string,
                                       std::string) {
  unsupported(*this, "table");
}
sim::Task<OpResult> Driver::table_insert(netsim::Nic&, std::string,
                                         std::string, std::int64_t) {
  unsupported(*this, "table");
}
sim::Task<OpResult> Driver::table_update(netsim::Nic&, std::string,
                                         std::string, std::int64_t) {
  unsupported(*this, "table");
}
sim::Task<OpResult> Driver::table_scan(netsim::Nic&, std::string) {
  unsupported(*this, "table");
}
sim::Task<OpResult> Driver::table_rmw(netsim::Nic&, std::string, std::string,
                                      std::int64_t) {
  unsupported(*this, "table");
}
sim::Task<OpResult> Driver::sql_read(netsim::Nic&, std::uint64_t) {
  unsupported(*this, "sql");
}
sim::Task<OpResult> Driver::sql_write(netsim::Nic&, std::uint64_t,
                                      std::int64_t) {
  unsupported(*this, "sql");
}

std::unique_ptr<Driver> make_driver(sim::Simulation& sim,
                                    const framework::Scenario& sc) {
  switch (sc.backend) {
    case framework::BackendKind::kAzure:
      return std::make_unique<AzureDriver>(sim, sc);
    case framework::BackendKind::kS3:
      return std::make_unique<S3Driver>(sim, sc);
    case framework::BackendKind::kTiered:
      return std::make_unique<TieredDriver>(sim, sc);
  }
  return std::make_unique<AzureDriver>(sim, sc);
}

cluster::ClusterConfig cluster_config(const framework::Scenario& sc,
                                      cluster::ThrottleMode mode) {
  cluster::ClusterConfig cc;
  cc.partition_servers = sc.cluster.partition_servers;
  cc.balancer.enabled = sc.cluster.balancer;
  cc.throttle_mode = mode;
  return cc;
}

faults::FaultConfig fault_config(const framework::Scenario& sc) {
  faults::FaultConfig fc;
  fc.seed = sc.faults.seed;
  fc.drop_probability = sc.faults.drop_probability;
  fc.duplicate_probability = sc.faults.duplicate_probability;
  fc.latency_spike_probability = sc.faults.latency_spike_probability;
  fc.corruption_probability = sc.faults.corruption_probability;
  fc.server_crashes = sc.faults.server_crashes;
  return fc;
}

}  // namespace storage
