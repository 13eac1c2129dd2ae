// Simulated S3-like object store: buckets of objects behind a REST façade,
// with the contract points that differ from the Azure-style services:
//
//  * object namespace only — no queues, tables, or SQL;
//  * eventual list-after-write: a PUT's key becomes LIST-visible only
//    `kVisibilityLag` after the write completes (and a DELETE keeps the key
//    listed for the same lag), while GET stays read-after-write;
//  * idempotent DELETE: deleting an absent key is a success (HTTP 204),
//    where the Azure blob service 404s;
//  * per-prefix request caps with 503 SlowDown instead of the per-account
//    transaction gate — the owning cluster must run
//    ThrottleMode::kPrefixSlowdown, and every request carries its key's
//    prefix hash so the cluster can meter reads/writes per prefix.
//
// Costs flow through the same cluster::StorageCluster request model as the
// Azure services (NIC serialization, partition routing, replication, fault
// injection, integrity tracking), so cross-backend per-op comparisons
// measure contract differences, not modelling artefacts.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "azure/common/payload.hpp"
#include "cluster/errors.hpp"
#include "cluster/storage_cluster.hpp"
#include "netsim/nic.hpp"
#include "simcore/task.hpp"
#include "simcore/time.hpp"

namespace storage {

/// Requested bucket does not exist (S3 NoSuchBucket, HTTP 404).
class NoSuchBucketError : public cluster::StorageError {
 public:
  explicit NoSuchBucketError(const std::string& what)
      : cluster::StorageError(what) {}
};

/// Requested key does not exist (S3 NoSuchKey, HTTP 404).
class NoSuchKeyError : public cluster::StorageError {
 public:
  explicit NoSuchKeyError(const std::string& what)
      : cluster::StorageError(what) {}
};

class S3ObjectService {
 public:
  explicit S3ObjectService(cluster::StorageCluster& cluster)
      : cluster_(cluster) {}

  sim::Task<void> create_bucket(netsim::Nic& client, std::string bucket);

  /// PUT Object: replaces any existing content; read-after-write for GET,
  /// but a *new* key only enters listings after kVisibilityLag.
  sim::Task<void> put_object(netsim::Nic& client, std::string bucket,
                             std::string key, azure::Payload data);

  /// GET Object. NoSuchKeyError on absent (or deleted) keys.
  sim::Task<azure::Payload> get_object(netsim::Nic& client,
                                       std::string bucket, std::string key);

  /// DELETE Object: succeeds whether or not the key exists (HTTP 204). The
  /// key keeps appearing in listings for kVisibilityLag after deletion.
  sim::Task<void> delete_object(netsim::Nic& client, std::string bucket,
                                std::string key);

  /// LIST Objects (optionally under `prefix`): the eventually-consistent
  /// view — keys written less than kVisibilityLag ago are absent, keys
  /// deleted less than kVisibilityLag ago are still present.
  sim::Task<std::vector<std::string>> list_objects(netsim::Nic& client,
                                                   std::string bucket,
                                                   std::string prefix = "");

  /// The prefix a key is rate-metered under: everything up to the last
  /// '/' ("" for top-level keys — they share the root prefix's windows).
  static std::string prefix_of(const std::string& key);

 private:
  /// Extra REST front-end latency per request, on top of the cluster's
  /// StorageCluster::kFrontendLatency (S3's HTTP/auth path has a noticeably
  /// higher first byte time than Azure's 2011-era front-end model here).
  static constexpr sim::Duration kRequestLatency = sim::millis(4);

  /// Fixed server CPU per data request.
  static constexpr sim::Duration kRequestCpu = sim::micros(300);

  /// Server CPU per LIST request (bucket-index walk).
  static constexpr sim::Duration kListCpu = sim::millis(1);

  /// How long after a PUT completes its key becomes LIST-visible (and how
  /// long a DELETEd key keeps appearing in listings).
  static constexpr sim::Duration kVisibilityLag = sim::millis(500);

  struct ObjectData {
    azure::Payload data;
    std::uint32_t crc = 0;
    /// When LIST starts including this key.
    sim::TimePoint list_visible_at = 0;
    /// Tombstone: GET 404s immediately, LIST shows the key until delist_at.
    bool deleted = false;
    sim::TimePoint delist_at = 0;
  };
  struct Bucket {
    /// Ordered for deterministic listings.
    std::map<std::string, ObjectData> objects;
  };

  Bucket& require_bucket(const std::string& bucket);
  std::uint64_t throttle_prefix(const std::string& bucket,
                                const std::string& key) const;
  std::uint64_t object_id(std::uint64_t part_hash) const;

  cluster::StorageCluster& cluster_;
  std::map<std::string, Bucket> buckets_;
};

}  // namespace storage
