// Tiered blob placement behind the uniform storage::Driver interface: an
// Azure-style fast tier and an S3-like capacity tier in one simulation.
// Object writes route by size (>= tier_split_bytes lands on the capacity
// tier); an overwrite whose size crosses the threshold migrates the key
// (delete from the old tier, write to the new). Reads and deletes follow
// the recorded placement. Listings merge both tiers — and therefore
// inherit the capacity tier's eventual consistency. Queue/table/sql ops
// ride the fast tier unchanged.
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

  const char* name() const noexcept override { return "tiered"; }
  const framework::BackendCaps& caps() const noexcept override {
    return caps_;
  }

  AzureDriver& fast_tier() noexcept { return fast_; }
  /// Keys migrated between tiers by size-crossing overwrites.
  std::int64_t migrations() const noexcept { return migrations_; }

  sim::Task<void> prepare_objects(netsim::Nic& nic) override;
  sim::Task<void> prepare_queue(netsim::Nic& nic, std::string queue) override;
  sim::Task<void> prepare_table(netsim::Nic& nic) override;
  sim::Task<void> prepare_sql(netsim::Nic& nic) override;

  sim::Task<OpResult> object_write(netsim::Nic& nic, std::string key,
                                   std::int64_t bytes) override;
  sim::Task<OpResult> object_read(netsim::Nic& nic, std::string key) override;
  sim::Task<OpResult> object_list(netsim::Nic& nic) override;
  sim::Task<OpResult> object_delete(netsim::Nic& nic,
                                    std::string key) override;

  sim::Task<OpResult> queue_put(netsim::Nic& nic, std::string queue,
                                std::int64_t bytes) override;
  sim::Task<OpResult> queue_get(netsim::Nic& nic, std::string queue) override;
  sim::Task<OpResult> queue_peek(netsim::Nic& nic,
                                 std::string queue) override;

  sim::Task<OpResult> table_read(netsim::Nic& nic, std::string partition,
                                 std::string row) override;
  sim::Task<OpResult> table_insert(netsim::Nic& nic, std::string partition,
                                   std::string row,
                                   std::int64_t bytes) override;
  sim::Task<OpResult> table_update(netsim::Nic& nic, std::string partition,
                                   std::string row,
                                   std::int64_t bytes) override;
  sim::Task<OpResult> table_scan(netsim::Nic& nic,
                                 std::string partition) override;
  sim::Task<OpResult> table_rmw(netsim::Nic& nic, std::string partition,
                                std::string row, std::int64_t bytes) override;

  sim::Task<OpResult> sql_read(netsim::Nic& nic, std::uint64_t key) override;
  sim::Task<OpResult> sql_write(netsim::Nic& nic, std::uint64_t key,
                                std::int64_t bytes) override;

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
  std::int64_t migrations_ = 0;
  framework::BackendCaps caps_;
};

}  // namespace storage
