#include "storage/tiered_driver.hpp"

#include <utility>

namespace storage {

TieredDriver::TieredDriver(sim::Simulation& sim,
                           const framework::Scenario& sc)
    // Fast tier constructs first so its cluster/balancer events enqueue
    // ahead of the capacity tier's — construction order is part of the
    // deterministic event schedule.
    : Driver(&fast_),
      fast_(sim, sc),
      capacity_(sim, sc),
      split_bytes_(sc.tier_split_bytes) {}

sim::Task<void> TieredDriver::prepare_objects(netsim::Nic& nic) {
  co_await fast_.prepare_objects(nic);
  co_await capacity_.prepare_objects(nic);
}

sim::Task<OpResult> TieredDriver::object_write(netsim::Nic& nic,
                                               std::string key,
                                               std::int64_t bytes) {
  const Tier target = bytes >= split_bytes_ ? Tier::kCapacity : Tier::kFast;
  auto it = placement_.find(key);
  if (it != placement_.end() && it->second != target) {
    // Overwrite crossed the size threshold: the object moves tiers, so the
    // stale copy in the old tier must go first (otherwise listings would
    // show the key twice and a later delete would leave an orphan).
    co_await tier(it->second).object_delete(nic, key);
  }
  const OpResult r = co_await tier(target).object_write(nic, key, bytes);
  placement_.insert_or_assign(std::move(key), target);
  co_return r;
}

sim::Task<OpResult> TieredDriver::object_read(netsim::Nic& nic,
                                              std::string key) {
  const auto it = placement_.find(key);
  // Unknown keys default to the fast tier, which reports the miss.
  const Tier t = it != placement_.end() ? it->second : Tier::kFast;
  co_return co_await tier(t).object_read(nic, std::move(key));
}

sim::Task<OpResult> TieredDriver::object_list(netsim::Nic& nic) {
  // A tiered listing pays both tiers' index walks; the capacity half lags
  // recent writes, so the merged view is only eventually consistent.
  const OpResult fast = co_await fast_.object_list(nic);
  const OpResult cap = co_await capacity_.object_list(nic);
  co_return OpResult{.bytes = fast.bytes + cap.bytes,
                     .items = fast.items + cap.items};
}

sim::Task<OpResult> TieredDriver::object_delete(netsim::Nic& nic,
                                                std::string key) {
  const auto it = placement_.find(key);
  const Tier t = it != placement_.end() ? it->second : Tier::kFast;
  if (it != placement_.end()) placement_.erase(it);
  co_return co_await tier(t).object_delete(nic, std::move(key));
}

}  // namespace storage
