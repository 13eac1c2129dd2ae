// SQL Azure model — the other service the paper defers ("We have chosen
// not to include the assessment of ... SQL-Azure functionalities in this
// study ... We plan to address both these issues").
//
// This is deliberately a *relational* store, in contrast to the schemaless
// Table storage the paper benchmarks:
//  * databases come in the 2012 editions with hard size caps (Web: 1/5 GB,
//    Business: 10..150 GB) — exceeding the cap fails writes;
//  * each database admits a bounded number of concurrent connections
//    (SQL Azure throttled at ~180), modeled as a Resource clients acquire;
//  * tables have typed schemas with a primary key; inserts are validated
//    against the schema;
//  * point lookups use the primary-key index; predicate queries scan.
//
// No SQL text parser: the API is programmatic (schema + predicate
// objects), which is what a benchmark harness needs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "azure/common/errors.hpp"
#include "netsim/network.hpp"
#include "netsim/nic.hpp"
#include "simcore/resource.hpp"
#include "simcore/simulation.hpp"
#include "simcore/task.hpp"

namespace azure::sql {

enum class Edition { kWeb1GB, kWeb5GB, kBusiness10GB, kBusiness50GB };

constexpr std::int64_t edition_cap_bytes(Edition e) {
  switch (e) {
    case Edition::kWeb1GB:
      return 1ll << 30;
    case Edition::kWeb5GB:
      return 5ll << 30;
    case Edition::kBusiness10GB:
      return 10ll << 30;
    case Edition::kBusiness50GB:
      return 50ll << 30;
  }
  return 0;
}

enum class ColumnType { kInt, kReal, kText, kBool };

struct Column {
  std::string name;
  ColumnType type;
};

/// A typed cell value.
using Value = std::variant<std::int64_t, double, std::string, bool>;

/// One row: values in schema column order.
using Row = std::vector<Value>;

/// A simple comparison predicate over one column.
struct Predicate {
  enum class Op { kEq, kNe, kLt, kLe, kGt, kGe };
  std::string column;
  Op op;
  Value operand;
};

class SqlService {
 public:
  /// Concurrent connections per database (SQL Azure throttled ~180).
  static constexpr int kMaxConnections = 180;
  /// Server work per point lookup.
  static constexpr sim::Duration kPointLookupCpu = sim::millis(2);

  SqlService(sim::Simulation& sim, netsim::Network& network)
      : sim_(sim),
        network_(network),
        nic_(sim, netsim::NicConfig{netsim::kServerNicBytesPerSec,
                                    netsim::kServerNicBytesPerSec,
                                    sim::micros(30)}) {}

  // ------------------------------------------------------------- schema --
  sim::Task<void> create_database(netsim::Nic& client, std::string name,
                                  Edition edition);
  sim::Task<void> drop_database(netsim::Nic& client, std::string name);

  /// Creates a table; the first column is the primary key.
  sim::Task<void> create_table(netsim::Nic& client, std::string database,
                               std::string table, std::vector<Column> schema);

  // --------------------------------------------------------------- data --
  /// Inserts one row (validated against the schema; PK must be unique).
  sim::Task<void> insert(netsim::Nic& client, std::string database,
                         std::string table, Row row);

  /// Point lookup by primary key (index seek).
  sim::Task<std::optional<Row>> select_by_key(netsim::Nic& client,
                                              std::string database,
                                              std::string table, Value key);

  /// Predicate scan; returns matching rows.
  sim::Task<std::vector<Row>> select_where(netsim::Nic& client,
                                           std::string database,
                                           std::string table,
                                           Predicate predicate);

  /// Updates one row by primary key. Returns whether a row matched.
  sim::Task<bool> update_by_key(netsim::Nic& client, std::string database,
                                std::string table, Value key, Row row);

  /// Deletes rows matching the predicate; returns how many.
  sim::Task<std::int64_t> delete_where(netsim::Nic& client,
                                       std::string database,
                                       std::string table,
                                       Predicate predicate);

  /// Current logical size of a database.
  std::int64_t database_bytes(const std::string& name) const;

 private:
  /// Server work per statement.
  static constexpr sim::Duration kConnectCpu = sim::millis(15);
  static constexpr sim::Duration kPerRowScanCpu = sim::micros(4);
  static constexpr sim::Duration kWriteCpu = sim::millis(5);
  /// SQL Azure keeps 3 replicas with synchronous commit, like storage.
  static constexpr sim::Duration kReplicaCommit = sim::millis(3);

  struct Table {
    std::vector<Column> schema;
    std::map<Value, Row> rows;  // keyed by primary key
  };
  struct Database {
    Database(sim::Simulation& sim, Edition ed)
        : edition(ed), connections(sim, kMaxConnections) {}
    Edition edition;
    sim::Resource connections;
    std::map<std::string, Table> tables;
    std::int64_t bytes = 0;
  };

  Database& require_database(const std::string& name);
  static Table& require_table(Database& db, const std::string& table);
  void validate_row(const Table& t, const Row& row) const;
  static std::int64_t row_bytes(const Row& row);
  static bool matches(const Table& t, const Row& row, const Predicate& p);

  /// Connection + request transfer + server work, shared by every op.
  sim::Task<sim::ResourceLease> begin(netsim::Nic& client, Database& db,
                                      std::int64_t request_bytes,
                                      sim::Duration cpu);

  sim::Simulation& sim_;
  netsim::Network& network_;
  netsim::Nic nic_;
  std::map<std::string, std::unique_ptr<Database>> databases_;
};

}  // namespace azure::sql
