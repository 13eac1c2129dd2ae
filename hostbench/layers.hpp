// Per-layer unit costs: host time per call of one layer's public function,
// each timed in an isolated world built only for it. A unit cost includes
// the layers beneath it (a cluster execute pays for its netsim transfers,
// which pay for simcore events), so the costs nest rather than add up.
#pragma once

#include <string>
#include <vector>

namespace hostbench {

struct LayerCost {
  std::string name;  ///< per-layer metric name, e.g. "simcore.dispatch_ns"
  std::string unit;  ///< "ns" or "us" per call
  double value = 0;  ///< median over repetitions
};

/// Runs every unit-cost loop (a few seconds in total) in BENCHMARK.json
/// per-layer order.
std::vector<LayerCost> measure_layer_costs();

}  // namespace hostbench
