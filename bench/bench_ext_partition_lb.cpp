// Extension benchmark: the dynamic partition map's load balancer under a
// hot-spot workload. Not a paper figure — the paper's account-level targets
// assume Azure's internal range-partition balancing is invisible; this
// experiment makes that machinery explicit and measures what it buys.
//
// Workload: N clients drive requests straight at the storage cluster;
// `--hot` percent of requests hash onto one server's buckets (the hot
// ranges), the rest are uniform. With the balancer off the hot server's
// executor queue gates the whole run; with it on, the hottest buckets are
// reassigned to idle servers at epoch boundaries and stale clients pay one
// redirect each to learn the new map.
#include <climits>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/config.hpp"
#include "cluster/errors.hpp"
#include "cluster/load_balancer.hpp"
#include "cluster/storage_cluster.hpp"
#include "fabric/vm_size.hpp"
#include "netsim/nic.hpp"
#include "simcore/random.hpp"
#include "simcore/simulation.hpp"

namespace {

struct RunResult {
  double seconds = 0;        // virtual completion time of the workload
  double ops_per_sec = 0;    // completed requests / completion time
  double imbalance = 1.0;    // peak-server requests / mean
  std::int64_t moves = 0;
  std::int64_t redirects = 0;
  std::uint64_t map_version = 1;
};

RunResult run(int workers, int ops_per_worker, int hot_percent,
              bool balance) {
  sim::Simulation s;
  cluster::ClusterConfig cfg;
  cfg.executors_per_server = 4;
  cfg.account_transactions_per_sec = 1'000'000;  // isolate server capacity
  cfg.balancer.enabled = balance;
  cfg.balancer.epoch = sim::millis(100);
  cfg.balancer.offload_threshold = 1.10;
  cfg.balancer.max_moves_per_epoch = 8;
  cfg.balancer.move_unavailable = sim::millis(5);
  cfg.balancer.idle_epochs_to_exit = 2;
  cluster::StorageCluster c(s, cfg);
  cluster::LoadBalancer lb(c);
  if (balance) lb.start();

  std::vector<std::unique_ptr<netsim::Nic>> nics;
  nics.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    nics.push_back(std::make_unique<netsim::Nic>(
        s, fabric::nic_config_of(fabric::VmSize::kExtraLarge)));
  }
  sim::TimePoint done = 0;
  const double hot_p = static_cast<double>(hot_percent) / 100.0;
  for (int i = 0; i < workers; ++i) {
    s.spawn([](sim::Simulation& sim, cluster::StorageCluster& cl,
               netsim::Nic& n, int id, int ops, double hot_p,
               sim::TimePoint& finished) -> sim::Task<> {
      sim::Random rng(0xBE7C4 + static_cast<std::uint64_t>(id));
      for (int k = 0; k < ops; ++k) {
        // Hot requests land on server 3's buckets: residues 3 + 16j.
        const std::uint64_t hash =
            rng.next_double() < hot_p
                ? 3u + 16u * static_cast<std::uint64_t>(rng.uniform(0, 7))
                : rng.next_u64();
        cluster::RequestCost cost;
        cost.server_cpu = sim::millis(2);
        for (;;) {
          try {
            co_await cl.execute(n, hash, cost);
            break;
          } catch (const cluster::PartitionMovedError&) {
            // Redirect refreshed this client's cached map; retry at once.
          }
        }
      }
      finished = sim.now();  // last finisher wins
    }(s, c, *nics[static_cast<std::size_t>(i)], i, ops_per_worker, hot_p,
      done));
  }
  s.run();

  RunResult r;
  r.seconds = static_cast<double>(done) / sim::kSecond;
  const double total = static_cast<double>(workers) *
                       static_cast<double>(ops_per_worker);
  r.ops_per_sec = r.seconds > 0 ? total / r.seconds : 0;
  r.imbalance = c.load_report().imbalance();
  r.moves = c.partition_moves();
  r.redirects = c.stale_map_redirects();
  r.map_version = c.partition_map().version();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool csv = false;
  std::int64_t workers = 0;
  std::int64_t ops = 0;
  std::int64_t hot = 90;
  benchutil::parse_flags(
      argc, argv,
      {{"--smoke", &smoke, "tiny run for CI: 16 workers x 10 ops unless given"},
       {"--workers", &workers, "client count (default 64)", 1, INT_MAX},
       {"--ops", &ops, "requests per client (default 64)", 1, INT_MAX},
       {"--hot", &hot, "hot-spot percentage (default 90)", 0, 100},
       {"--csv", &csv, "CSV instead of the fixed-width table"}});
  if (workers == 0) workers = smoke ? 16 : 64;
  if (ops == 0) ops = smoke ? 10 : 64;

  benchutil::Table table({"balancer", "workers", "ops/client", "hot%",
                          "completion_s", "ops_per_s", "imbalance", "moves",
                          "redirects", "map_version"});
  for (const bool balance : {false, true}) {
    const RunResult r = run(static_cast<int>(workers), static_cast<int>(ops),
                            static_cast<int>(hot), balance);
    table.add_row({balance ? "on" : "off", std::to_string(workers),
                   std::to_string(ops), std::to_string(hot),
                   benchutil::fmt(r.seconds, 3),
                   benchutil::fmt(r.ops_per_sec, 1),
                   benchutil::fmt(r.imbalance, 2), std::to_string(r.moves),
                   std::to_string(r.redirects),
                   std::to_string(r.map_version)});
  }
  if (csv) {
    table.print_csv();
  } else {
    table.print();
  }
  return 0;
}
