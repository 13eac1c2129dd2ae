// Timing collection for benchmark phases.
//
// Workers report (phase, repeat, start, end) spans. A phase's wall time for
// one repeat is max(end) - min(start) over workers — the paper measures the
// elapsed time of the parallel phase, excluding the synchronization
// barriers around it. Per-operation statistics are collected separately.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "fabric/vm_size.hpp"
#include "simcore/time.hpp"

namespace azurebench {

/// VM size of every benchmark's worker roles: Small instances, as in the
/// paper.
inline constexpr fabric::VmSize kWorkerVm = fabric::VmSize::kSmall;

class PhaseCollector {
 public:
  /// Records one worker's execution span of `phase` in repeat `repeat`.
  void record(const std::string& phase, int repeat, sim::TimePoint start,
              sim::TimePoint end) {
    auto& longest = spans_[{phase, repeat}];
    longest = std::max(longest, end - start);
  }

  /// Accumulated phase time across repeats. Per repeat this is the longest
  /// single worker's duration — each worker times its own work, so barrier
  /// release skew (up to the 1 s polling cadence) is excluded, exactly as
  /// the paper excludes synchronization time.
  sim::Duration wall(const std::string& phase) const {
    sim::Duration total = 0;
    for (const auto& [key, longest] : spans_) {
      if (key.first == phase) total += longest;
    }
    return total;
  }

 private:
  std::map<std::pair<std::string, int>, sim::Duration> spans_;
};

/// Aggregate throughput/time for one benchmark phase, as reported in the
/// paper's figures.
struct PhaseReport {
  std::string phase;
  double seconds = 0;      // accumulated wall time
  std::int64_t bytes = 0;  // payload moved during the phase
  std::int64_t ops = 0;    // operations performed

  /// Throughput in MiB/s. The divisor is binary (1024^2); headers and
  /// prose must say "MiB/s" to match (the paper's "MB/s" figures were
  /// produced with the same binary divisor, so numbers are comparable).
  double mib_per_sec() const {
    return seconds > 0 ? static_cast<double>(bytes) / (1024.0 * 1024.0) /
                             seconds
                       : 0;
  }
  double ms_per_op() const {
    return ops > 0 ? seconds * 1000.0 / static_cast<double>(ops) : 0;
  }
};

}  // namespace azurebench
