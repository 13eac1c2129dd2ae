// The paper's Azure-style stamp behind the storage::Driver interface:
// consistent list-after-write and the per-account 5,000 tx/s gate
// (ServerBusyError on overrun). Besides the object ops it serves queue,
// table and SQL, which no other backend models: the runner reaches them
// through Driver::azure(). Op bodies are the exact storage calls the
// scenario runner made before the driver layer existed, so the default
// backend's cost profile is unchanged.
#pragma once

#include <cstdint>
#include <string>

#include "azure/cloud_storage_account.hpp"
#include "azure/environment.hpp"
#include "azure/sql/sql_service.hpp"
#include "storage/driver.hpp"

namespace storage {

class AzureDriver final : public Driver {
 public:
  AzureDriver(sim::Simulation& sim, const framework::Scenario& sc);

  sim::Task<void> prepare_objects(netsim::Nic& nic) override;
  sim::Task<OpResult> object_write(netsim::Nic& nic, std::string key,
                                   std::int64_t bytes) override;
  sim::Task<OpResult> object_read(netsim::Nic& nic, std::string key) override;
  sim::Task<OpResult> object_list(netsim::Nic& nic) override;
  sim::Task<OpResult> object_delete(netsim::Nic& nic,
                                    std::string key) override;

  // Called once by the runner before populating, like prepare_objects.
  sim::Task<void> prepare_queue(netsim::Nic& nic, std::string queue);
  sim::Task<void> prepare_table(netsim::Nic& nic);
  sim::Task<void> prepare_sql(netsim::Nic& nic);

  /// One message onto one queue (pub/sub fanout loops in the runner).
  sim::Task<OpResult> queue_put(netsim::Nic& nic, std::string queue,
                                std::int64_t bytes);
  sim::Task<OpResult> queue_get(netsim::Nic& nic, std::string queue);
  sim::Task<OpResult> queue_peek(netsim::Nic& nic, std::string queue);

  sim::Task<OpResult> table_read(netsim::Nic& nic, std::string partition,
                                 std::string row);
  sim::Task<OpResult> table_insert(netsim::Nic& nic, std::string partition,
                                   std::string row, std::int64_t bytes);
  sim::Task<OpResult> table_update(netsim::Nic& nic, std::string partition,
                                   std::string row, std::int64_t bytes);
  sim::Task<OpResult> table_scan(netsim::Nic& nic, std::string partition);
  sim::Task<OpResult> table_rmw(netsim::Nic& nic, std::string partition,
                                std::string row, std::int64_t bytes);

  sim::Task<OpResult> sql_read(netsim::Nic& nic, std::uint64_t key);
  sim::Task<OpResult> sql_write(netsim::Nic& nic, std::uint64_t key,
                                std::int64_t bytes);

  /// Maps the spec's cluster/fault sections onto a CloudConfig (figure
  /// mode builds its stamp from it too).
  static azure::CloudConfig cloud_config(const framework::Scenario& sc);

 private:
  azure::TableEntity make_entity(std::string partition, std::string row,
                                 std::int64_t bytes) const;

  azure::CloudEnvironment env_;
};

}  // namespace storage
