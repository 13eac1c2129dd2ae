// AzureBench Queue storage benchmarks — Algorithms 3 and 4 of the paper.
#pragma once

#include <cstdint>
#include <vector>

#include "azure/environment.hpp"
#include "core/collector.hpp"

namespace obs {
class Observer;
}

namespace azurebench {

/// Algorithm 3: each worker owns a dedicated queue; 20,000 messages in
/// total are put, peeked, and gotten (get includes the delete) for each
/// message size (the sizes double from 4 KB to 64 KB; 48 KB is the usable
/// payload maximum, so the nominal 64 KB point sends 49,152-byte payloads).
struct QueueSeparateConfig {
  int workers = 8;
  std::int64_t total_messages = 20'000;
  std::vector<std::int64_t> message_sizes = {4 << 10, 8 << 10, 16 << 10,
                                             32 << 10, 64 << 10};
  azure::CloudConfig cloud;
  /// Optional observability sink (see BlobBenchConfig::observer).
  obs::Observer* observer = nullptr;
};

struct QueueSizePoint {
  std::int64_t message_size = 0;
  PhaseReport put;
  PhaseReport peek;
  PhaseReport get;  // GetMessage + DeleteMessage, as in the paper
};

struct QueueSeparateResult {
  std::vector<QueueSizePoint> points;
  double barrier_seconds = 0;
  std::uint64_t simulated_events = 0;
  /// Usage accounting (for the operating-cost model).
  std::int64_t storage_transactions = 0;
  double virtual_seconds = 0;
};

QueueSeparateResult run_queue_separate_benchmark(
    const QueueSeparateConfig& cfg);

/// Algorithm 4: all workers share a single queue; 32 KB messages; 20,000
/// total transactions split into rounds of at most 500 messages so the
/// queue's 500 msg/s target is respected; a think time between accesses
/// simulates a real application. Reported times cover only queue
/// communication (think time excluded).
struct QueueSharedConfig {
  int workers = 8;
  std::int64_t total_messages = 20'000;
  std::int64_t message_size = 32 << 10;
  std::int64_t messages_per_round = 500;
  std::vector<int> think_seconds = {1, 2, 3, 4, 5};
  std::uint64_t seed = 7;
  azure::CloudConfig cloud;
  /// Optional observability sink (see BlobBenchConfig::observer).
  obs::Observer* observer = nullptr;
};

struct QueueThinkPoint {
  int think_seconds = 0;
  /// seconds = average per-worker communication time for the op type.
  PhaseReport put;
  PhaseReport peek;
  PhaseReport get;
};

struct QueueSharedResult {
  std::vector<QueueThinkPoint> points;
  std::uint64_t simulated_events = 0;
};

QueueSharedResult run_queue_shared_benchmark(const QueueSharedConfig& cfg);

}  // namespace azurebench
