// AzureBench Table storage benchmark — Algorithm 5 of the paper.
//
// Each worker inserts `entities` rows into its own partition
// (PartitionKey = roleId), queries them, updates them unconditionally
// (ETag "*"), and deletes them — once for each entity size (4 KB doubling
// to 64 KB). ServerBusy responses are retried after a one-second sleep, as
// in the paper.
#pragma once

#include <cstdint>
#include <vector>

#include "azure/environment.hpp"
#include "core/collector.hpp"

namespace obs {
class Observer;
}

namespace azurebench {

struct TableBenchConfig {
  int workers = 8;
  /// Entities per worker per phase; the paper settled on 500 after 1,000
  /// triggered server-busy exceptions.
  int entities = 500;
  std::vector<std::int64_t> entity_sizes = {4 << 10, 8 << 10, 16 << 10,
                                            32 << 10, 64 << 10};
  azure::CloudConfig cloud;
  /// Optional observability sink (see BlobBenchConfig::observer).
  obs::Observer* observer = nullptr;
};

struct TableSizePoint {
  std::int64_t entity_size = 0;
  PhaseReport insert;
  PhaseReport query;
  PhaseReport update;
  PhaseReport erase;
};

struct TableBenchResult {
  std::vector<TableSizePoint> points;
  double barrier_seconds = 0;
  std::int64_t server_busy_retries = 0;
  std::uint64_t simulated_events = 0;
  /// Usage accounting (for the operating-cost model).
  std::int64_t storage_transactions = 0;
  double virtual_seconds = 0;
};

TableBenchResult run_table_benchmark(const TableBenchConfig& cfg);

}  // namespace azurebench
