// The four end-to-end workloads of the host-side benchmark, each driven
// through the simulator's public entry points only:
//
//   table96     run_table_benchmark      paper Fig. 8 at 96 workers
//   blob96      run_blob_benchmark       paper Figs. 4 and 5 at 96 workers
//   mixed_open  run_generic_scenario     hostbench/mixed_open.json
//   sharded8    run_sharded_cloud        table mode, 8 domains
//
// Every call returns the workload's simulated output rendered as one
// canonical string (the golden-digest input) plus the operation counts the
// end-to-end metrics divide by. Timing a call is the caller's job; only the
// set-up and par.speedup helpers read a host clock, because what they time
// sits inside one library call.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace obs {
class Observer;
}

namespace hostbench {

enum class Workload { kTable96, kBlob96, kMixedOpen, kSharded8 };

/// The seed the committed golden digests were recorded at.
constexpr std::uint64_t kDefaultSeed = 42;

/// Workload names in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Throws benchutil::UsageError for an unknown name.
Workload workload_by_name(std::string_view name);

/// One workload call's simulated outcome.
struct RunOutput {
  /// Byte-comparable simulated output: figure CSVs at full precision, the
  /// canonical scenario report, or the sharded parity fields.
  std::string canonical;
  /// Simulated operations completed (storage transactions for the figure
  /// workloads, LoadStats::completed for mixed_open).
  std::int64_t sim_ops = 0;
  /// Simulated operations attempted and, of those, failed, shed or
  /// dead-lettered.
  std::int64_t ops_attempted = 0;
  std::int64_t ops_failed = 0;
  /// Work counts of a traced call (empty when untraced), keyed by the
  /// per-layer metric name: netsim.transfers, cluster.requests, ...
  std::map<std::string, std::int64_t> counts;
};

/// Runs `w` once with every seed field of its public config derived from
/// `seed`. With `traced`, an obs::Observer is attached and RunOutput::counts
/// is filled.
RunOutput run_workload(Workload w, std::uint64_t seed, bool traced);

/// Host seconds of one set-up of `w`: spec parse, world construction and
/// populate, measured as a run of the same config with a minimal load
/// phase (sharded8: the call's time outside ShardedSimulation::run).
double setup_seconds(Workload w, std::uint64_t seed);

/// Host wall seconds the sharded kernel spent inside run() for sharded8's
/// decomposition at `threads` worker threads (par.speedup's numerator and
/// denominator; the sharded8 workload calls themselves use one thread).
double sharded_kernel_seconds(std::uint64_t seed, int threads);

/// The mixed_open spec text (parsed by framework::parse_scenario).
const std::string& mixed_open_spec();

/// 64-bit FNV-1a of `bytes`, rendered as 16 lowercase hex digits.
std::string digest(std::string_view bytes);

}  // namespace hostbench
