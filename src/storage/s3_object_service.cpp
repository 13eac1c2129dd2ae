#include "storage/s3_object_service.hpp"

#include "azure/common/checksum.hpp"
#include "cluster/hash.hpp"
#include "obs/observer.hpp"
#include "storage/driver.hpp"

namespace storage {
namespace {

/// Service salt for integrity object ids (keeps S3 objects distinct from
/// any Azure-service object sharing a partition hash).
constexpr std::uint64_t kS3ObjectSalt = 0x53'3A'0B'7E'C7'51'D0'00ull;

}  // namespace

std::string S3ObjectService::prefix_of(const std::string& key) {
  const std::size_t slash = key.rfind('/');
  return slash == std::string::npos ? std::string() : key.substr(0, slash);
}

S3ObjectService::Bucket& S3ObjectService::require_bucket(
    const std::string& bucket) {
  auto it = buckets_.find(bucket);
  if (it == buckets_.end()) {
    throw NoSuchBucketError("no such bucket: " + bucket);
  }
  return it->second;
}

std::uint64_t S3ObjectService::throttle_prefix(const std::string& bucket,
                                               const std::string& key) const {
  // Never 0: a zero hash would read as "exempt" to the cluster's
  // per-prefix windows.
  const std::uint64_t h = cluster::partition_hash(bucket, prefix_of(key));
  return h != 0 ? h : 1;
}

std::uint64_t S3ObjectService::object_id(std::uint64_t part_hash) const {
  const std::uint64_t id = azure::mix_u64(kS3ObjectSalt, part_hash);
  return id != 0 ? id : 1;
}

sim::Task<void> S3ObjectService::create_bucket(netsim::Nic& client,
                                               std::string bucket) {
  obs::OpScope op(cluster_.simulation(), "s3.create_bucket");
  co_await cluster_.simulation().delay(kRequestLatency);
  cluster::RequestCost cost;
  cost.request_bytes = 256;
  cost.response_bytes = 256;
  cost.server_cpu = kRequestCpu;
  cost.replicate = true;
  cost.disk_bytes = 512;
  // Bucket operations are not metered per prefix (throttle_prefix stays 0).
  op.stage();
  co_await cluster_.execute(client, cluster::partition_hash(bucket), cost);
  buckets_.try_emplace(std::move(bucket));
}

sim::Task<void> S3ObjectService::put_object(netsim::Nic& client,
                                            std::string bucket,
                                            std::string key,
                                            azure::Payload data) {
  obs::OpScope op(cluster_.simulation(), "s3.put", data.size());
  require_bucket(bucket);
  co_await cluster_.simulation().delay(kRequestLatency);
  const std::uint64_t part_hash = cluster::partition_hash(bucket, key);
  const std::uint32_t crc = azure::payload_crc(data);
  cluster::RequestCost cost;
  cost.request_bytes = data.size();
  cost.disk_bytes = data.size();
  cost.server_cpu = kRequestCpu;
  cost.replicate = true;
  cost.object_id = object_id(part_hash);
  cost.content_crc = crc;
  cost.throttle_prefix = throttle_prefix(bucket, key);
  cost.prefix_read = false;
  op.stage();
  co_await cluster_.execute(client, part_hash, cost);

  Bucket& b = require_bucket(bucket);
  const sim::TimePoint now = cluster_.simulation().now();
  auto [it, inserted] = b.objects.try_emplace(std::move(key));
  ObjectData& obj = it->second;
  if (inserted || obj.deleted || obj.list_visible_at > now) {
    // New key (or a resurrection of a tombstoned one): listings converge
    // only after the visibility lag. Overwrites of a live, already-listed
    // key stay listed throughout.
    obj.list_visible_at = now + kVisibilityLag;
  }
  obj.data = std::move(data);
  obj.crc = crc;
  obj.deleted = false;
  obj.delist_at = 0;
}

sim::Task<azure::Payload> S3ObjectService::get_object(netsim::Nic& client,
                                                      std::string bucket,
                                                      std::string key) {
  obs::OpScope op(cluster_.simulation(), "s3.get");
  Bucket& b = require_bucket(bucket);
  auto it = b.objects.find(key);
  // GET is read-after-write consistent: a just-PUT key serves immediately;
  // a just-DELETEd key 404s immediately (only LIST lags).
  if (it == b.objects.end() || it->second.deleted) {
    throw NoSuchKeyError("no such key: " + bucket + "/" + key);
  }
  // Snapshot the content before suspending: a concurrent DELETE may erase
  // the map node while this request is in flight, and the response streams
  // the version the GET admitted.
  const azure::Payload data = it->second.data;
  op.set_bytes(data.size());
  co_await cluster_.simulation().delay(kRequestLatency);
  const std::uint64_t part_hash = cluster::partition_hash(bucket, key);
  cluster::RequestCost cost;
  cost.request_bytes = 256;
  cost.response_bytes = data.size();
  cost.server_cpu = kRequestCpu;
  cost.object_id = object_id(part_hash);
  cost.throttle_prefix = throttle_prefix(bucket, key);
  cost.prefix_read = true;
  op.stage();
  const cluster::ExecResult r =
      co_await cluster_.execute(client, part_hash, cost);
  op.set_server(r.served_by);
  if (r.response_corrupted) {
    op.set_error();
    throw cluster::ChecksumMismatchError(
        "downloaded object failed its ETag checksum");
  }
  co_return data;
}

sim::Task<void> S3ObjectService::delete_object(netsim::Nic& client,
                                               std::string bucket,
                                               std::string key) {
  obs::OpScope op(cluster_.simulation(), "s3.delete");
  require_bucket(bucket);
  co_await cluster_.simulation().delay(kRequestLatency);
  const std::uint64_t part_hash = cluster::partition_hash(bucket, key);
  cluster::RequestCost cost;
  cost.request_bytes = 256;
  cost.response_bytes = 256;
  cost.server_cpu = kRequestCpu;
  cost.replicate = true;
  cost.disk_bytes = 512;
  cost.throttle_prefix = throttle_prefix(bucket, key);
  cost.prefix_read = false;
  op.stage();
  co_await cluster_.execute(client, part_hash, cost);

  // Idempotent 204: deleting an absent key pays the request and succeeds.
  Bucket& b = require_bucket(bucket);
  auto it = b.objects.find(key);
  if (it == b.objects.end() || it->second.deleted) co_return;
  ObjectData& obj = it->second;
  const sim::TimePoint now = cluster_.simulation().now();
  if (obj.list_visible_at <= now) {
    // The key was being listed; listings keep showing it for the lag.
    obj.deleted = true;
    obj.delist_at = now + kVisibilityLag;
    obj.data = azure::Payload{};
    obj.crc = 0;
  } else {
    // Never became visible — erase it outright (no transient listing).
    b.objects.erase(it);
  }
}

sim::Task<std::vector<std::string>> S3ObjectService::list_objects(
    netsim::Nic& client, std::string bucket, std::string prefix) {
  obs::OpScope op(cluster_.simulation(), "s3.list");
  Bucket& b = require_bucket(bucket);
  const sim::TimePoint now = cluster_.simulation().now();
  std::vector<std::string> keys;
  // std::map iteration: lexicographic key order, like a real LIST response.
  for (auto it = prefix.empty() ? b.objects.begin()
                                : b.objects.lower_bound(prefix);
       it != b.objects.end(); ++it) {
    if (!prefix.empty() && it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    const ObjectData& obj = it->second;
    const bool listed = obj.deleted ? now < obj.delist_at
                                    : obj.list_visible_at <= now;
    if (listed) keys.push_back(it->first);
  }
  co_await cluster_.simulation().delay(kRequestLatency);
  cluster::RequestCost cost;
  cost.request_bytes = 256;
  cost.response_bytes =
      kListEntryBytes * static_cast<std::int64_t>(keys.size());
  cost.server_cpu = kListCpu;
  const std::uint64_t h = cluster::partition_hash(bucket, prefix);
  cost.throttle_prefix = h != 0 ? h : 1;
  cost.prefix_read = true;
  op.set_bytes(cost.response_bytes);
  op.stage();
  co_await cluster_.execute(client, cluster::partition_hash(bucket), cost);
  co_return keys;
}

}  // namespace storage
