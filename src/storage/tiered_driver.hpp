// Tiered blob placement behind the uniform storage::Driver interface: an
// Azure-style fast tier and an S3-like capacity tier in one simulation.
// Object writes route by size (>= tier_split_bytes lands on the capacity
// tier); an overwrite whose size crosses the threshold migrates the key
// (delete from the old tier, write to the new). Reads and deletes follow
// the recorded placement. Listings merge both tiers — and therefore
// inherit the capacity tier's eventual consistency. The fast tier is the
// Azure stamp azure() returns, so queue/table/sql run on it unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "storage/azure_driver.hpp"
#include "storage/driver.hpp"
#include "storage/s3_driver.hpp"

namespace storage {

class TieredDriver final : public Driver {
 public:
  TieredDriver(sim::Simulation& sim, const framework::Scenario& sc);

  sim::Task<void> prepare_objects(netsim::Nic& nic) override;

  sim::Task<OpResult> object_write(netsim::Nic& nic, std::string key,
                                   std::int64_t bytes) override;
  sim::Task<OpResult> object_read(netsim::Nic& nic, std::string key) override;
  sim::Task<OpResult> object_list(netsim::Nic& nic) override;
  sim::Task<OpResult> object_delete(netsim::Nic& nic,
                                    std::string key) override;

 private:
  enum class Tier { kFast, kCapacity };
  Driver& tier(Tier t) noexcept {
    return t == Tier::kFast ? static_cast<Driver&>(fast_)
                            : static_cast<Driver&>(capacity_);
  }

  AzureDriver fast_;
  S3Driver capacity_;
  std::int64_t split_bytes_;
  /// Where each key lives (keyed lookups only — never iterated, so the
  /// unordered container cannot affect event order).
  std::unordered_map<std::string, Tier> placement_;
};

}  // namespace storage
