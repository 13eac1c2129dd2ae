// CloudEnvironment: one simulated Azure deployment — the storage cluster
// plus the three storage services. Client code connects through
// CloudStorageAccount (see cloud_storage_account.hpp).
#pragma once

#include "azure/blob/blob_service.hpp"
#include "azure/cache/cache_service.hpp"
#include "azure/queue/queue_service.hpp"
#include "azure/sql/sql_service.hpp"
#include "azure/table/table_service.hpp"
#include <memory>

#include "cluster/config.hpp"
#include "cluster/load_balancer.hpp"
#include "cluster/storage_cluster.hpp"
#include "faults/fault_plan.hpp"
#include "simcore/simulation.hpp"

namespace azure {

struct CloudConfig {
  cluster::ClusterConfig cluster;
  BlobServiceConfig blob;
  QueueServiceConfig queue;
  /// Deterministic fault injection. The default config is disabled: no RNG
  /// draw, no extra event — byte-identical to a fault-free deployment.
  faults::FaultConfig faults;
};

class CloudEnvironment {
 public:
  explicit CloudEnvironment(sim::Simulation& sim, const CloudConfig& cfg = {})
      : sim_(sim),
        fault_plan_(sim, cfg.faults),
        cluster_(sim, cfg.cluster),
        blob_(cluster_, cfg.blob),
        queue_(cluster_, cfg.queue),
        table_(cluster_),
        cache_(sim, cluster_.network()),
        sql_(sim, cluster_.network()) {
    if (fault_plan_.enabled()) cluster_.enable_faults(fault_plan_);
    if (cfg.cluster.balancer.enabled) {
      balancer_ = std::make_unique<cluster::LoadBalancer>(cluster_);
      balancer_->start();
    }
  }

  CloudEnvironment(const CloudEnvironment&) = delete;
  CloudEnvironment& operator=(const CloudEnvironment&) = delete;

  sim::Simulation& simulation() noexcept { return sim_; }
  cluster::StorageCluster& storage_cluster() noexcept { return cluster_; }
  faults::FaultPlan& fault_plan() noexcept { return fault_plan_; }
  BlobService& blob_service() noexcept { return blob_; }
  QueueService& queue_service() noexcept { return queue_; }
  TableService& table_service() noexcept { return table_; }
  CacheService& cache_service() noexcept { return cache_; }
  sql::SqlService& sql_service() noexcept { return sql_; }
  /// The partition-map load balancer; null unless
  /// cfg.cluster.balancer.enabled.
  cluster::LoadBalancer* load_balancer() noexcept { return balancer_.get(); }

 private:
  sim::Simulation& sim_;
  faults::FaultPlan fault_plan_;
  cluster::StorageCluster cluster_;
  BlobService blob_;
  QueueService queue_;
  TableService table_;
  CacheService cache_;
  sql::SqlService sql_;
  std::unique_ptr<cluster::LoadBalancer> balancer_;
};

}  // namespace azure
