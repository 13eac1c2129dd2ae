#include "storage/driver.hpp"

#include "storage/azure_driver.hpp"
#include "storage/s3_driver.hpp"
#include "storage/tiered_driver.hpp"

namespace storage {

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
