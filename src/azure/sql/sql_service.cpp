#include "azure/sql/sql_service.hpp"

namespace azure::sql {
namespace {

bool value_matches_type(const Value& v, ColumnType type) {
  switch (type) {
    case ColumnType::kInt:
      return std::holds_alternative<std::int64_t>(v);
    case ColumnType::kReal:
      return std::holds_alternative<double>(v);
    case ColumnType::kText:
      return std::holds_alternative<std::string>(v);
    case ColumnType::kBool:
      return std::holds_alternative<bool>(v);
  }
  return false;
}

int compare(const Value& a, const Value& b) {
  // Values of the same alternative compare with the variant's ordering.
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

}  // namespace

// ------------------------------------------------------------- helpers ----

SqlService::Database& SqlService::require_database(const std::string& name) {
  auto it = databases_.find(name);
  if (it == databases_.end()) {
    throw NotFoundError("database not found: " + name);
  }
  return *it->second;
}

SqlService::Table& SqlService::require_table(Database& db,
                                             const std::string& table) {
  auto it = db.tables.find(table);
  if (it == db.tables.end()) {
    throw NotFoundError("table not found: " + table);
  }
  return it->second;
}

void SqlService::validate_row(const Table& t, const Row& row) const {
  if (row.size() != t.schema.size()) {
    throw InvalidArgumentError("row arity does not match the schema");
  }
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (!value_matches_type(row[i], t.schema[i].type)) {
      throw InvalidArgumentError("type mismatch in column '" +
                                 t.schema[i].name + "'");
    }
  }
}

std::int64_t SqlService::row_bytes(const Row& row) {
  std::int64_t total = 16;  // row header
  for (const auto& v : row) {
    if (const auto* s = std::get_if<std::string>(&v)) {
      total += static_cast<std::int64_t>(s->size()) + 8;
    } else {
      total += 8;
    }
  }
  return total;
}

bool SqlService::matches(const Table& t, const Row& row,
                         const Predicate& p) {
  std::size_t column = t.schema.size();
  for (std::size_t i = 0; i < t.schema.size(); ++i) {
    if (t.schema[i].name == p.column) {
      column = i;
      break;
    }
  }
  if (column == t.schema.size()) {
    throw InvalidArgumentError("unknown column in predicate: " + p.column);
  }
  const Value& v = row[column];
  if (v.index() != p.operand.index()) {
    throw InvalidArgumentError("predicate operand type mismatch on '" +
                               p.column + "'");
  }
  const int c = compare(v, p.operand);
  switch (p.op) {
    case Predicate::Op::kEq:
      return c == 0;
    case Predicate::Op::kNe:
      return c != 0;
    case Predicate::Op::kLt:
      return c < 0;
    case Predicate::Op::kLe:
      return c <= 0;
    case Predicate::Op::kGt:
      return c > 0;
    case Predicate::Op::kGe:
      return c >= 0;
  }
  return false;
}

sim::Task<sim::ResourceLease> SqlService::begin(netsim::Nic& client,
                                                Database& db,
                                                std::int64_t request_bytes,
                                                sim::Duration cpu) {
  auto connection = co_await db.connections.acquire();
  co_await network_.transfer(client, nic_, request_bytes);
  co_await sim_.delay(cpu);
  co_return connection;
}

// -------------------------------------------------------------- schema ----

sim::Task<void> SqlService::create_database(netsim::Nic& client,
                                            std::string name,
                                            Edition edition) {
  co_await network_.transfer(client, nic_, 512);
  co_await sim_.delay(kConnectCpu);
  auto [it, inserted] = databases_.try_emplace(name, nullptr);
  if (!inserted) throw ConflictError("database already exists: " + name);
  it->second = std::make_unique<Database>(sim_, edition);
}

sim::Task<void> SqlService::drop_database(netsim::Nic& client,
                                          std::string name) {
  co_await network_.transfer(client, nic_, 256);
  co_await sim_.delay(kConnectCpu);
  if (databases_.erase(name) == 0) {
    throw NotFoundError("database not found: " + name);
  }
}

sim::Task<void> SqlService::create_table(netsim::Nic& client,
                                         std::string database,
                                         std::string table,
                                         std::vector<Column> schema) {
  if (schema.empty()) {
    throw InvalidArgumentError("a table needs at least its primary key");
  }
  Database& db = require_database(database);
  auto lease = co_await begin(client, db, 1024, kWriteCpu);
  co_await sim_.delay(kReplicaCommit);
  auto [it, inserted] = db.tables.try_emplace(table);
  if (!inserted) throw ConflictError("table already exists: " + table);
  it->second.schema = std::move(schema);
}

// ---------------------------------------------------------------- data ----

sim::Task<void> SqlService::insert(netsim::Nic& client, std::string database,
                                   std::string table, Row row) {
  Database& db = require_database(database);
  Table& t = require_table(db, table);
  validate_row(t, row);
  const std::int64_t bytes = row_bytes(row);
  if (db.bytes + bytes > edition_cap_bytes(db.edition)) {
    throw InvalidArgumentError(
        "database full: edition size cap reached (upgrade the edition)");
  }
  auto lease = co_await begin(client, db, bytes + 256, kWriteCpu);
  co_await sim_.delay(kReplicaCommit);
  Value key = row.front();
  if (!t.rows.emplace(std::move(key), std::move(row)).second) {
    throw ConflictError("duplicate primary key in " + table);
  }
  db.bytes += bytes;
}

sim::Task<std::optional<Row>> SqlService::select_by_key(netsim::Nic& client,
                                                        std::string database,
                                                        std::string table,
                                                        Value key) {
  Database& db = require_database(database);
  Table& t = require_table(db, table);
  auto lease = co_await begin(client, db, 256, kPointLookupCpu);
  auto it = t.rows.find(key);
  if (it == t.rows.end()) {
    co_await network_.transfer(nic_, client, 64);
    co_return std::nullopt;
  }
  co_await network_.transfer(nic_, client, row_bytes(it->second) + 64);
  co_return it->second;
}

sim::Task<std::vector<Row>> SqlService::select_where(netsim::Nic& client,
                                                     std::string database,
                                                     std::string table,
                                                     Predicate predicate) {
  Database& db = require_database(database);
  Table& t = require_table(db, table);
  // A scan costs per-row CPU on the server.
  const auto scan_cpu = static_cast<sim::Duration>(
      static_cast<double>(t.rows.size()) *
      static_cast<double>(kPerRowScanCpu));
  auto lease = co_await begin(client, db, 512, kPointLookupCpu + scan_cpu);
  std::vector<Row> out;
  std::int64_t wire = 64;
  for (const auto& [key, row] : t.rows) {
    if (matches(t, row, predicate)) {
      out.push_back(row);
      wire += row_bytes(row);
    }
  }
  co_await network_.transfer(nic_, client, wire);
  co_return out;
}

sim::Task<bool> SqlService::update_by_key(netsim::Nic& client,
                                          std::string database,
                                          std::string table, Value key,
                                          Row row) {
  Database& db = require_database(database);
  Table& t = require_table(db, table);
  validate_row(t, row);
  if (compare(row.front(), key) != 0) {
    throw InvalidArgumentError("updated row's primary key must match");
  }
  auto lease = co_await begin(client, db, row_bytes(row) + 256, kWriteCpu);
  co_await sim_.delay(kReplicaCommit);
  auto it = t.rows.find(key);
  if (it == t.rows.end()) co_return false;
  db.bytes += row_bytes(row) - row_bytes(it->second);
  it->second = std::move(row);
  co_return true;
}

sim::Task<std::int64_t> SqlService::delete_where(netsim::Nic& client,
                                                 std::string database,
                                                 std::string table,
                                                 Predicate predicate) {
  Database& db = require_database(database);
  Table& t = require_table(db, table);
  const auto scan_cpu = static_cast<sim::Duration>(
      static_cast<double>(t.rows.size()) *
      static_cast<double>(kPerRowScanCpu));
  auto lease = co_await begin(client, db, 512, kWriteCpu + scan_cpu);
  co_await sim_.delay(kReplicaCommit);
  std::int64_t removed = 0;
  for (auto it = t.rows.begin(); it != t.rows.end();) {
    if (matches(t, it->second, predicate)) {
      db.bytes -= row_bytes(it->second);
      it = t.rows.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  co_await network_.transfer(nic_, client, 64);
  co_return removed;
}

std::int64_t SqlService::database_bytes(const std::string& name) const {
  auto it = databases_.find(name);
  return it == databases_.end() ? 0 : it->second->bytes;
}

}  // namespace azure::sql
