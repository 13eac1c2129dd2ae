// The metadata request every container, queue and table lifecycle call
// (create, delete, exists, list, properties) makes, shared by the blob,
// queue and table services.
#pragma once

#include <cstdint>
#include <string_view>

#include "cluster/storage_cluster.hpp"
#include "netsim/nic.hpp"
#include "obs/observer.hpp"
#include "simcore/task.hpp"
#include "simcore/time.hpp"

namespace azure {

/// Server work of one metadata request.
inline constexpr sim::Duration kMetadataCpu = sim::micros(300);

/// One 256-byte round trip to the partition owning `part_hash`, traced as
/// `span`. A write also appends 512 bytes to the partition's log and
/// replicates them.
inline sim::Task<void> metadata_op(cluster::StorageCluster& cluster,
                                   netsim::Nic& client,
                                   std::uint64_t part_hash, bool write,
                                   std::string_view span) {
  obs::OpScope op(cluster.simulation(), span);
  cluster::RequestCost cost;
  cost.request_bytes = 256;
  cost.response_bytes = 256;
  cost.server_cpu = kMetadataCpu;
  cost.replicate = write;
  cost.disk_bytes = write ? 512 : 0;
  op.stage();
  co_await cluster.execute(client, part_hash, cost);
}

}  // namespace azure
