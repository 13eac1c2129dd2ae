#include "storage/s3_driver.hpp"

#include <utility>

namespace storage {
namespace {

constexpr const char* kBucket = "b";

}  // namespace

// The spec's `throttle: queue` ablation has no S3 analogue: this backend
// always meters per prefix.
S3Driver::S3Driver(sim::Simulation& sim, const framework::Scenario& sc)
    : Driver(nullptr),
      fault_plan_(sim, fault_config(sc)),
      cluster_(sim,
               cluster_config(sc, cluster::ThrottleMode::kPrefixSlowdown)),
      s3_(cluster_) {
  if (fault_plan_.enabled()) cluster_.enable_faults(fault_plan_);
}

sim::Task<void> S3Driver::prepare_objects(netsim::Nic& nic) {
  co_await s3_.create_bucket(nic, kBucket);
}

sim::Task<OpResult> S3Driver::object_write(netsim::Nic& nic, std::string key,
                                           std::int64_t bytes) {
  co_await s3_.put_object(nic, kBucket, std::move(key),
                          azure::Payload::synthetic(bytes));
  co_return OpResult{.bytes = bytes};
}

sim::Task<OpResult> S3Driver::object_read(netsim::Nic& nic, std::string key) {
  try {
    const azure::Payload p =
        co_await s3_.get_object(nic, kBucket, std::move(key));
    co_return OpResult{.bytes = p.size()};
  } catch (const NoSuchKeyError&) {
    co_return OpResult{.miss = true};
  }
}

sim::Task<OpResult> S3Driver::object_list(netsim::Nic& nic) {
  const std::vector<std::string> keys =
      co_await s3_.list_objects(nic, kBucket);
  const std::int64_t n = static_cast<std::int64_t>(keys.size());
  co_return OpResult{.bytes = kListEntryBytes * n, .items = n};
}

sim::Task<OpResult> S3Driver::object_delete(netsim::Nic& nic,
                                            std::string key) {
  // S3 contract: DELETE of an absent key is an idempotent 204 — never a
  // miss (the Azure backend 404s instead).
  co_await s3_.delete_object(nic, kBucket, std::move(key));
  co_return OpResult{};
}

}  // namespace storage
