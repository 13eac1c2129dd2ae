#include "azure/table/table_service.hpp"

#include <bit>
#include <set>

#include "azure/common/checksum.hpp"
#include "azure/common/metadata_op.hpp"
#include "obs/observer.hpp"

namespace azure {
namespace lim = azure::limits;

// --------------------------------------------------------------- entity ----

namespace {

/// Service salt for integrity object ids.
constexpr std::uint64_t kTableObjectSalt = 0x7AB1'E7AB'1E7A'B000ull;

/// Span of every table lifecycle request.
constexpr std::string_view kMetaSpan = "table.meta";

/// Server work per mutation (calibrated to 2012-era Azure table latencies
/// of tens of milliseconds — also what keeps ~100 sequential workers under
/// the account's 5,000 tx/s target, as in the paper). Update pays an ETag
/// check + read-modify-write; a query (TableService::kQueryCpu) is a pure
/// point read; hence Query < Insert ~ Delete < Update (Fig. 8/9 ordering).
constexpr sim::Duration kInsertCpu = sim::millis(22);
constexpr sim::Duration kUpdateCpu = sim::millis(30);
constexpr sim::Duration kDeleteCpu = sim::millis(22);

/// Per-partition-server table commit journal bandwidth. Mutations append
/// the full entity to the journal; this shared stream is what saturates
/// under many concurrent writers with 32/64 KB entities.
constexpr double kJournalBytesPerSec = 4.0 * 1024 * 1024;

/// OData/XML wire envelope per entity (the 2011 API talks AtomPub).
constexpr std::int64_t kEntityEnvelopeBytes = 1024;

std::int64_t property_size(const PropertyValue& v) {
  struct Sizer {
    std::int64_t operator()(std::string s) const {
      return static_cast<std::int64_t>(s.size());
    }
    std::int64_t operator()(std::int64_t) const { return 8; }
    std::int64_t operator()(double) const { return 8; }
    std::int64_t operator()(bool) const { return 1; }
    std::int64_t operator()(const Payload& p) const { return p.size(); }
  };
  return std::visit(Sizer{}, v);
}

/// The row a merge leaves: `row` with every property of `patch` written
/// over it.
TableEntity merged_entity(TableEntity row, const TableEntity& patch) {
  for (const auto& [name, value] : patch.properties) {
    row.properties[name] = value;
  }
  return row;
}

/// End-to-end checksum of an entity's content: keys plus every property
/// name and value (system properties — ETag, Timestamp — excluded, as they
/// are assigned server-side after the checksum is validated).
std::uint32_t entity_crc(const TableEntity& e) {
  Crc32c crc;
  crc.update(e.partition_key);
  crc.update(e.row_key);
  struct Hasher {
    Crc32c& crc;
    void operator()(const std::string& s) const { crc.update(s); }
    void operator()(std::int64_t v) const {
      crc.update_u64(static_cast<std::uint64_t>(v));
    }
    void operator()(double v) const {
      crc.update_u64(std::bit_cast<std::uint64_t>(v));
    }
    void operator()(bool v) const { crc.update_u64(v ? 1 : 0); }
    void operator()(const Payload& p) const { crc.update_u64(payload_crc(p)); }
  };
  for (const auto& [name, value] : e.properties) {
    crc.update(name);
    std::visit(Hasher{crc}, value);
  }
  return crc.value();
}

/// Per-entity integrity object id (never 0).
std::uint64_t entity_object_id(std::uint64_t part_hash,
                               std::string_view row_key) {
  const std::uint64_t id = mix_u64(
      kTableObjectSalt, mix_u64(part_hash, cluster::partition_hash(row_key)));
  return id != 0 ? id : 1;
}

}  // namespace

std::int64_t TableEntity::size() const {
  std::int64_t total = static_cast<std::int64_t>(partition_key.size()) +
                       static_cast<std::int64_t>(row_key.size()) + 8 /*ts*/;
  for (const auto& [name, value] : properties) {
    total += static_cast<std::int64_t>(name.size()) + property_size(value);
  }
  return total;
}

// -------------------------------------------------------------- helpers ----

TableService::TableData& TableService::require_table(std::string_view table) {
  const auto it = tables_.find(table);
  if (it == tables_.end()) {
    throw NotFoundError("table not found: " + std::string(table));
  }
  return it->second;
}

TableService::Partition& TableService::partition(TableData& t,
                                                 std::string_view pk) {
  auto it = t.partitions.find(pk);
  if (it == t.partitions.end()) {
    it = t.partitions.try_emplace(std::string(pk), cluster_.simulation())
             .first;
  }
  return it->second;
}

void TableService::validate_entity(const TableEntity& e) const {
  if (e.partition_key.empty() || e.row_key.empty()) {
    throw InvalidArgumentError("PartitionKey and RowKey are required");
  }
  // 3 system properties (PartitionKey, RowKey, Timestamp) count toward 255.
  if (static_cast<int>(e.properties.size()) + 3 >
      lim::kMaxPropertiesPerEntity) {
    throw InvalidArgumentError("entity exceeds 255 properties");
  }
  if (e.size() > lim::kMaxEntityBytes) {
    throw InvalidArgumentError("entity exceeds 1 MB");
  }
}

TableService::Partition& TableService::admit(std::string_view table,
                                             std::string_view pk,
                                             std::int64_t entities) {
  Partition& p = partition(require_table(table), pk);
  if (!p.throttle.try_consume(entities)) {
    if (obs::Observer* const o = cluster_.simulation().observer();
        o != nullptr) {
      o->metrics().counter("table.throttle_rejects").add(1);
    }
    throw ServerBusyError("table '" + std::string(table) + "' partition '" +
                          std::string(pk) +
                          "' exceeded 500 entities per second");
  }
  return p;
}

sim::FlowLimiter& TableService::journal(std::uint64_t part_hash) {
  // Routed through the partition map: when the balancer (or crash failover)
  // moves the partition's bucket, its log appends follow it to the new
  // serving server's journal rather than staying pinned to the static home.
  auto& journal =
      journals_[static_cast<std::size_t>(cluster_.server_index(part_hash))];
  if (!journal) {
    journal = std::make_unique<sim::FlowLimiter>(
        cluster_.simulation(), kJournalBytesPerSec,
        /*burst=*/32 * 1024.0);
  }
  return *journal;
}

// ------------------------------------------------------- table lifecycle ----

sim::Task<void> TableService::create_table(netsim::Nic& client,
                                           std::string name) {
  co_await metadata_op(cluster_, client, cluster::partition_hash(name), true,
                       kMetaSpan);
  auto [it, inserted] = tables_.try_emplace(name);
  (void)it;
  if (!inserted) throw ConflictError("table already exists: " + name);
}

sim::Task<void> TableService::create_table_if_not_exists(
    netsim::Nic& client, std::string name) {
  co_await metadata_op(cluster_, client, cluster::partition_hash(name), true,
                       kMetaSpan);
  tables_.try_emplace(name);
}

sim::Task<void> TableService::delete_table(netsim::Nic& client,
                                           std::string name) {
  co_await metadata_op(cluster_, client, cluster::partition_hash(name), true,
                       kMetaSpan);
  if (tables_.erase(name) == 0) {
    throw NotFoundError("table not found: " + name);
  }
}

sim::Task<bool> TableService::table_exists(netsim::Nic& client,
                                           std::string name) {
  co_await metadata_op(cluster_, client, cluster::partition_hash(name), false,
                       kMetaSpan);
  co_return tables_.count(name) > 0;
}

// ------------------------------------------------------------ operations ----

sim::Task<void> TableService::insert(netsim::Nic& client,
                                     std::string table,
                                     TableEntity entity) {
  return write_entity(client, std::move(table), std::move(entity), {},
                      TableBatch::OpKind::kInsert);
}

sim::Task<void> TableService::update(netsim::Nic& client,
                                     std::string table,
                                     TableEntity entity,
                                     std::string if_match) {
  return write_entity(client, std::move(table), std::move(entity),
                      std::move(if_match), TableBatch::OpKind::kUpdate);
}

sim::Task<void> TableService::insert_or_replace(netsim::Nic& client,
                                                std::string table,
                                                TableEntity entity) {
  return write_entity(client, std::move(table), std::move(entity), {},
                      TableBatch::OpKind::kInsertOrReplace);
}

sim::Task<void> TableService::merge(netsim::Nic& client,
                                    std::string table,
                                    TableEntity entity,
                                    std::string if_match) {
  return write_entity(client, std::move(table), std::move(entity),
                      std::move(if_match), TableBatch::OpKind::kMerge);
}

sim::Task<void> TableService::write_entity(netsim::Nic& client,
                                           std::string table,
                                           TableEntity entity,
                                           std::string if_match,
                                           TableBatch::OpKind kind) {
  using OpKind = TableBatch::OpKind;
  obs::OpScope op(cluster_.simulation(),
                  kind == OpKind::kInsert   ? "table.insert"
                  : kind == OpKind::kUpdate ? "table.update"
                  : kind == OpKind::kMerge  ? "table.merge"
                                            : "table.insert_or_replace");
  validate_entity(entity);
  admit(table, entity.partition_key);
  const std::uint64_t part_hash =
      cluster::partition_hash(table, entity.partition_key);

  const std::int64_t wire = entity.size() + kEntityEnvelopeBytes;
  op.set_bytes(wire);
  co_await journal(part_hash).acquire(static_cast<double>(wire));
  // A merge versions the merged result: its candidate checksum comes from
  // the current state (the precondition checks re-run after the awaits).
  std::uint32_t crc = entity_crc(entity);
  if (kind == OpKind::kMerge) {
    const auto& rows = require_partition(table, entity.partition_key).rows;
    if (const auto pre = rows.find(entity.row_key); pre != rows.end()) {
      crc = entity_crc(merged_entity(pre->second, entity));
    }
  }
  cluster::RequestCost cost;
  cost.request_bytes = wire;
  cost.disk_bytes = wire;
  // Update, merge and replace pay an ETag check + read-modify-write.
  cost.server_cpu = kind == OpKind::kInsert ? kInsertCpu : kUpdateCpu;
  cost.replicate = true;
  cost.object_id = entity_object_id(part_hash, entity.row_key);
  cost.content_crc = crc;
  op.stage();
  co_await cluster_.execute(client, part_hash, cost);

  auto& rows = require_partition(table, entity.partition_key).rows;
  const auto it = rows.lower_bound(entity.row_key);
  const bool exists = it != rows.end() && it->first == entity.row_key;
  if (kind == OpKind::kInsert && exists) {
    throw ConflictError("entity already exists: " + entity.partition_key +
                        "/" + entity.row_key);
  }
  if (kind == OpKind::kUpdate || kind == OpKind::kMerge) {
    if (!exists) {
      throw NotFoundError("entity not found: " + entity.partition_key + "/" +
                          entity.row_key);
    }
    if (if_match != "*" && it->second.etag != if_match) {
      throw PreconditionFailedError(kind == OpKind::kUpdate
                                        ? "ETag mismatch on update"
                                        : "ETag mismatch on merge");
    }
  }
  if (kind == OpKind::kMerge) {
    // The merged result must still fit the limits; check it before the row
    // changes, so a failed merge leaves the row as it was.
    TableEntity merged = merged_entity(it->second, entity);
    validate_entity(merged);
    merged.etag = next_etag();
    merged.timestamp = cluster_.simulation().now();
    it->second = std::move(merged);
    co_return;
  }
  entity.etag = next_etag();
  entity.timestamp = cluster_.simulation().now();
  if (exists) {
    it->second = std::move(entity);
  } else {
    std::string row_key = entity.row_key;
    rows.emplace_hint(it, std::move(row_key), std::move(entity));
  }
}

sim::Task<TableEntity> TableService::query(netsim::Nic& client,
                                           std::string table,
                                           std::string partition_key,
                                           std::string row_key) {
  obs::OpScope op(cluster_.simulation(), "table.query");
  std::int64_t wire = kEntityEnvelopeBytes;
  bool found = false;
  {
    const auto& rows = admit(table, partition_key).rows;
    if (const auto it = rows.find(row_key); it != rows.end()) {
      found = true;
      wire += it->second.size();
    }
  }
  const std::uint64_t part_hash = cluster::partition_hash(table, partition_key);

  op.set_bytes(wire);
  cluster::RequestCost cost;
  cost.request_bytes = 512;
  cost.response_bytes = wire;
  cost.server_cpu = kQueryCpu;
  cost.object_id = entity_object_id(part_hash, row_key);
  op.stage();
  const cluster::ExecResult r =
      co_await cluster_.execute(client, part_hash, cost);
  op.set_server(r.served_by);
  if (r.response_corrupted) {
    op.set_error();
    throw ChecksumMismatchError("queried entity failed its checksum");
  }

  // Looked up again: the row (or its table) may have been deleted during the
  // round trip, and a concurrent replace returns the replacing entity.
  if (found) {
    const auto& rows = require_partition(table, partition_key).rows;
    if (const auto it = rows.find(row_key); it != rows.end()) {
      co_return it->second;
    }
  }
  throw NotFoundError("entity not found: " + partition_key + "/" + row_key);
}

sim::Task<std::vector<TableEntity>> TableService::query_partition(
    netsim::Nic& client, std::string table,
    std::string partition_key) {
  obs::OpScope op(cluster_.simulation(), "table.query_partition");
  std::vector<TableEntity> out;
  std::int64_t wire = kEntityEnvelopeBytes;
  for (const auto& [row_key, e] : admit(table, partition_key).rows) {
    out.push_back(e);
    wire += e.size() + 64;
  }
  // Partition scans and entity group transactions span many entities, each
  // its own integrity object — they stay untracked (no single object id
  // describes them). Their per-entity writes/reads are covered by the
  // point-operation paths.
  cluster::RequestCost cost;
  cost.request_bytes = 512;
  cost.response_bytes = wire;
  cost.server_cpu =
      kQueryCpu + static_cast<sim::Duration>(out.size()) * sim::micros(50);
  op.set_bytes(wire);
  op.stage();
  co_await cluster_.execute(
      client, cluster::partition_hash(table, partition_key), cost);
  co_return out;
}

sim::Task<void> TableService::erase(netsim::Nic& client,
                                    std::string table,
                                    std::string partition_key,
                                    std::string row_key,
                                    std::string if_match) {
  obs::OpScope op(cluster_.simulation(), "table.delete");
  admit(table, partition_key);
  const std::uint64_t part_hash = cluster::partition_hash(table, partition_key);

  co_await journal(part_hash).acquire(512.0);
  cluster::RequestCost cost;
  cost.request_bytes = 512;
  cost.disk_bytes = 512;
  cost.server_cpu = kDeleteCpu;
  cost.replicate = true;
  cost.object_id = entity_object_id(part_hash, row_key);
  cost.content_crc = 0;  // tombstone version
  op.stage();
  co_await cluster_.execute(client, part_hash, cost);

  auto& rows = require_partition(table, partition_key).rows;
  const auto it = rows.find(row_key);
  if (it == rows.end()) {
    throw NotFoundError("entity not found: " + partition_key + "/" + row_key);
  }
  if (if_match != "*" && it->second.etag != if_match) {
    throw PreconditionFailedError("ETag mismatch on delete");
  }
  rows.erase(it);
}

sim::Task<void> TableService::execute_batch(netsim::Nic& client,
                                            std::string table,
                                            TableBatch batch) {
  obs::OpScope batch_scope(cluster_.simulation(), "table.batch");
  using OpKind = TableBatch::OpKind;
  if (batch.empty()) {
    throw InvalidArgumentError("batch must contain at least one operation");
  }
  if (batch.size() > 100) {
    throw InvalidArgumentError("batch exceeds 100 operations");
  }
  const std::string& pk = batch.operations().front().entity.partition_key;
  std::int64_t total_wire = kEntityEnvelopeBytes;
  {
    std::set<std::string> row_keys;
    for (const auto& op : batch.operations()) {
      if (op.entity.partition_key != pk) {
        throw InvalidArgumentError(
            "entity group transactions must target a single partition");
      }
      if (!row_keys.insert(op.entity.row_key).second) {
        throw InvalidArgumentError(
            "at most one operation per row key in a batch");
      }
      if (op.kind == OpKind::kDelete) {
        if (op.entity.partition_key.empty() || op.entity.row_key.empty()) {
          throw InvalidArgumentError("PartitionKey and RowKey are required");
        }
      } else {
        validate_entity(op.entity);
      }
      total_wire += op.entity.size() + 128;
    }
  }
  if (total_wire > 4ll << 20) {
    throw InvalidArgumentError("batch payload exceeds 4 MB");
  }

  // Every entity in the group counts against the partition's 500/s target,
  // atomically: the whole batch is admitted or rejected.
  admit(table, pk, static_cast<std::int64_t>(batch.size()));
  const std::uint64_t part_hash = cluster::partition_hash(table, pk);

  co_await journal(part_hash).acquire(static_cast<double>(total_wire));
  cluster::RequestCost cost;
  cost.request_bytes = total_wire;
  cost.disk_bytes = total_wire;
  cost.server_cpu =
      kInsertCpu + static_cast<sim::Duration>(batch.size()) * sim::millis(1);
  cost.replicate = true;
  batch_scope.set_bytes(total_wire);
  batch_scope.stage();
  co_await cluster_.execute(client, part_hash, cost);

  // Atomic commit: first verify every precondition against the current
  // state (no suspension points below), then apply every mutation. A
  // failure between the two loops leaves the table untouched.
  auto& rows = require_partition(table, pk).rows;
  for (const auto& op : batch.operations()) {
    const auto it = rows.find(op.entity.row_key);
    switch (op.kind) {
      case OpKind::kInsert:
        if (it != rows.end()) {
          throw ConflictError("entity already exists: " + op.entity.row_key);
        }
        break;
      case OpKind::kUpdate:
      case OpKind::kMerge:
      case OpKind::kDelete:
        if (it == rows.end()) {
          throw NotFoundError("entity not found: " + op.entity.row_key);
        }
        if (op.if_match != "*" && it->second.etag != op.if_match) {
          throw PreconditionFailedError("ETag mismatch in batch on " +
                                        op.entity.row_key);
        }
        if (op.kind == OpKind::kMerge) {
          validate_entity(merged_entity(it->second, op.entity));
        }
        break;
      case OpKind::kInsertOrReplace:
        break;
    }
  }
  for (const auto& op : batch.operations()) {
    switch (op.kind) {
      case OpKind::kInsert:
      case OpKind::kUpdate:
      case OpKind::kInsertOrReplace: {
        TableEntity e = op.entity;
        e.etag = next_etag();
        e.timestamp = cluster_.simulation().now();
        rows.insert_or_assign(op.entity.row_key, std::move(e));
        break;
      }
      case OpKind::kMerge: {
        TableEntity& target = rows.find(op.entity.row_key)->second;
        target = merged_entity(std::move(target), op.entity);
        target.etag = next_etag();
        target.timestamp = cluster_.simulation().now();
        break;
      }
      case OpKind::kDelete:
        rows.erase(op.entity.row_key);
        break;
    }
  }
}

}  // namespace azure
