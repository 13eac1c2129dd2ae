// S3-like backend behind the uniform storage::Driver interface: objects
// only, eventual list-after-write, idempotent deletes, per-prefix 503
// SlowDown throttling (its cluster runs ThrottleMode::kPrefixSlowdown and
// no account gate). It has no Azure stamp, so azure() is null: the parser
// and the runner reject a queue, table or sql mix entry on it.
#pragma once

#include <cstdint>
#include <string>

#include "cluster/storage_cluster.hpp"
#include "faults/fault_plan.hpp"
#include "storage/driver.hpp"
#include "storage/s3_object_service.hpp"

namespace storage {

class S3Driver final : public Driver {
 public:
  S3Driver(sim::Simulation& sim, const framework::Scenario& sc);

  sim::Task<void> prepare_objects(netsim::Nic& nic) override;

  sim::Task<OpResult> object_write(netsim::Nic& nic, std::string key,
                                   std::int64_t bytes) override;
  sim::Task<OpResult> object_read(netsim::Nic& nic, std::string key) override;
  sim::Task<OpResult> object_list(netsim::Nic& nic) override;
  sim::Task<OpResult> object_delete(netsim::Nic& nic,
                                    std::string key) override;

 private:
  faults::FaultPlan fault_plan_;
  cluster::StorageCluster cluster_;
  S3ObjectService s3_;
};

}  // namespace storage
