// AzureBench Blob storage benchmark — Algorithm 1 of the paper.
//
// Per repeat, the worker fleet collectively uploads one page blob and one
// block blob (chunks split evenly across workers), synchronizes through the
// queue barrier, downloads chunk-wise (random pages / sequential blocks),
// synchronizes, downloads both blobs in full, synchronizes, and deletes
// them. Reported times exclude synchronization.
#pragma once

#include <cstdint>

#include "azure/environment.hpp"
#include "core/collector.hpp"

namespace obs {
class Observer;
}

namespace azurebench {

struct BlobBenchConfig {
  int workers = 8;
  int repeats = 10;
  /// Chunk (page write / block) size; the paper uses 1 MB.
  std::int64_t chunk_bytes = 1 << 20;
  /// Chunks per blob; the paper uses 100 (a 100 MB blob).
  int chunks = 100;
  azure::CloudConfig cloud;
  std::uint64_t seed = 42;
  /// Optional observability sink attached to the run's Simulation. Null
  /// (the default) leaves every instrumentation point inert, so paper-mode
  /// event sequences are untouched.
  obs::Observer* observer = nullptr;
};

struct BlobBenchResult {
  PhaseReport page_upload;
  PhaseReport block_upload;
  PhaseReport page_random_read;   // Fig. 5: 1 MB pages at random offsets
  PhaseReport block_seq_read;     // Fig. 5: blocks one at a time, in order
  PhaseReport page_full_read;     // Fig. 4: PageBlob.openRead()
  PhaseReport block_full_read;    // Fig. 4: BlockBlob.DownloadText()
  double barrier_seconds = 0;     // measured (and excluded) sync overhead
  std::uint64_t simulated_events = 0;
  /// Usage accounting (for the operating-cost model).
  std::int64_t storage_transactions = 0;
  double virtual_seconds = 0;
};

BlobBenchResult run_blob_benchmark(const BlobBenchConfig& cfg);

}  // namespace azurebench
