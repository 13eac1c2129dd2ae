// Server-side Table storage service: schemaless entities keyed by
// (PartitionKey, RowKey), with ETag-guarded updates.
//
// Semantics from the paper and the 2011/2012 API docs:
//  * entities are bags of up to 255 (Name, Value) properties, <= 1 MB;
//  * a table has no schema — two entities may carry different properties;
//  * entities with the same PartitionKey live together on one partition
//    server; a partition serves at most 500 entities per second;
//  * updates take an ETag; "*" forces an unconditional update (the paper
//    only benchmarks unconditional updates).
//
// Timing: table mutations additionally flow through a per-partition-server
// commit journal (index + log writes), which is what makes large entities
// degrade sharply as concurrent writers multiply (Fig. 8).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "azure/common/errors.hpp"
#include "azure/common/limits.hpp"
#include "azure/common/payload.hpp"
#include "cluster/hash.hpp"
#include "cluster/storage_cluster.hpp"
#include "netsim/nic.hpp"
#include "simcore/rate_limiter.hpp"
#include "simcore/task.hpp"

namespace azure {

/// One property value. Azure tables are schemaless: any entity can hold any
/// mix of property types.
using PropertyValue =
    std::variant<std::string, std::int64_t, double, bool, Payload>;

/// A table entity: PartitionKey + RowKey plus arbitrary properties.
struct TableEntity {
  std::string partition_key;
  std::string row_key;
  std::string etag;               // set by the service
  sim::TimePoint timestamp = 0;   // set by the service
  std::map<std::string, PropertyValue> properties;

  /// Approximate serialized size (keys + property names and values).
  std::int64_t size() const;
};

/// An Entity Group Transaction (the 2011 API's batch): up to 100 operations
/// on ONE partition, executed atomically — either every operation commits
/// or none does. Total payload is limited to 4 MB.
class TableBatch {
 public:
  enum class OpKind { kInsert, kUpdate, kMerge, kDelete, kInsertOrReplace };
  struct Op {
    OpKind kind;
    TableEntity entity;     // for kDelete only the keys matter
    std::string if_match;   // update/merge/delete condition ("*" = any)
  };

  void insert(TableEntity e) {
    ops_.push_back(Op{OpKind::kInsert, std::move(e), {}});
  }
  void update(TableEntity e, std::string if_match = "*") {
    ops_.push_back(Op{OpKind::kUpdate, std::move(e), std::move(if_match)});
  }
  void merge(TableEntity e, std::string if_match = "*") {
    ops_.push_back(Op{OpKind::kMerge, std::move(e), std::move(if_match)});
  }
  void insert_or_replace(TableEntity e) {
    ops_.push_back(Op{OpKind::kInsertOrReplace, std::move(e), {}});
  }
  void erase(std::string partition_key, std::string row_key,
             std::string if_match = "*") {
    TableEntity keys;
    keys.partition_key = std::move(partition_key);
    keys.row_key = std::move(row_key);
    ops_.push_back(Op{OpKind::kDelete, std::move(keys), std::move(if_match)});
  }

  const std::vector<Op>& operations() const noexcept { return ops_; }
  bool empty() const noexcept { return ops_.empty(); }
  std::size_t size() const noexcept { return ops_.size(); }

 private:
  std::vector<Op> ops_;
};

class TableService {
 public:
  /// Server work per query, a pure point read (calibrated to 2012-era
  /// Azure table latencies of tens of milliseconds). The mutations' costs
  /// are constants in table_service.cpp; Query < Insert ~ Delete < Update
  /// (Fig. 8/9 ordering).
  static constexpr sim::Duration kQueryCpu = sim::millis(20);

  explicit TableService(cluster::StorageCluster& cluster)
      : cluster_(cluster),
        journals_(static_cast<std::size_t>(cluster.server_count())) {}

  sim::Task<void> create_table(netsim::Nic& client, std::string name);
  sim::Task<void> create_table_if_not_exists(netsim::Nic& client,
                                             std::string name);
  sim::Task<void> delete_table(netsim::Nic& client, std::string name);
  sim::Task<bool> table_exists(netsim::Nic& client, std::string name);

  /// Inserts a new entity; Conflict if (PartitionKey, RowKey) exists.
  sim::Task<void> insert(netsim::Nic& client, std::string table,
                         TableEntity entity);

  /// Point query by keys; NotFound if absent.
  sim::Task<TableEntity> query(netsim::Nic& client, std::string table,
                               std::string partition_key,
                               std::string row_key);

  /// Returns all entities of one partition (a partition scan).
  sim::Task<std::vector<TableEntity>> query_partition(
      netsim::Nic& client, std::string table,
      std::string partition_key);

  /// Replaces an existing entity. `if_match` must equal the stored ETag or
  /// be "*" for an unconditional update.
  sim::Task<void> update(netsim::Nic& client, std::string table,
                         TableEntity entity, std::string if_match);

  /// Inserts or replaces unconditionally.
  sim::Task<void> insert_or_replace(netsim::Nic& client,
                                    std::string table,
                                    TableEntity entity);

  /// Merges the given properties into an existing entity.
  sim::Task<void> merge(netsim::Nic& client, std::string table,
                        TableEntity entity, std::string if_match);

  /// Deletes an entity (ETag-guarded; "*" for unconditional).
  sim::Task<void> erase(netsim::Nic& client, std::string table,
                        std::string partition_key,
                        std::string row_key,
                        std::string if_match = "*");

  /// Executes an Entity Group Transaction atomically: all operations must
  /// target the same partition, there may be at most 100 of them with at
  /// most one operation per row key, and the total payload must fit 4 MB.
  /// On any validation or precondition failure nothing is applied.
  sim::Task<void> execute_batch(netsim::Nic& client, std::string table,
                                TableBatch batch);

 private:
  // The store: table name -> partition key -> rows in RowKey order. A
  // request resolves its partition before its first suspension and again
  // before each later use; no reference into the store is held across a
  // co_await, because a concurrent delete (of the row or of the whole
  // table) may free it in between.
  struct Partition {
    explicit Partition(sim::Simulation& sim)
        : throttle(sim, limits::kPartitionEntitiesPerSec) {}
    sim::WindowCounter throttle;  // the partition's 500 entities/s target
    std::map<std::string, TableEntity, std::less<>> rows;
  };
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct TableData {
    std::unordered_map<std::string, Partition, KeyHash, std::equal_to<>>
        partitions;
  };

  TableData& require_table(std::string_view table);
  /// The partition's state, created on first use.
  Partition& partition(TableData& t, std::string_view pk);
  /// Re-resolves a partition after a suspension: NotFoundError if the table
  /// was deleted meanwhile.
  Partition& require_partition(std::string_view table, std::string_view pk) {
    return partition(require_table(table), pk);
  }
  void validate_entity(const TableEntity& e) const;
  /// Resolves (table, pk) and charges `entities` against the partition's
  /// 500 entities/s target, or throws ServerBusyError without charging any.
  /// The returned partition is valid only until the caller's next co_await.
  Partition& admit(std::string_view table, std::string_view pk,
                   std::int64_t entities = 1);
  std::string next_etag() { return "W/\"" + std::to_string(++etag_counter_) + "\""; }

  /// The commit journal of the partition server serving `part_hash`.
  sim::FlowLimiter& journal(std::uint64_t part_hash);

  /// The one body behind insert, update, insert_or_replace and merge
  /// (`kind`): admit the entity, journal it, replicate it, then apply it to
  /// the stored row. `if_match` guards update and merge.
  sim::Task<void> write_entity(netsim::Nic& client, std::string table,
                               TableEntity entity, std::string if_match,
                               TableBatch::OpKind kind);

  cluster::StorageCluster& cluster_;
  std::map<std::string, TableData, std::less<>> tables_;
  /// One commit journal per partition server (created lazily).
  std::vector<std::unique_ptr<sim::FlowLimiter>> journals_;
  std::uint64_t etag_counter_ = 0;
};

}  // namespace azure
