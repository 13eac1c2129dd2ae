// The partition master's load balancer (Calder et al., SOSP'11 §5): a
// periodic process that samples per-bucket request counters each balancing
// epoch and reassigns the hottest buckets off overloaded servers.
//
// Decision procedure, once per epoch:
//   1. Compute each bucket's request delta since the previous epoch and each
//      healthy server's load (the sum over the buckets it owns).
//   2. Walk overloaded servers (load > offload_threshold * healthy mean) in
//      ascending index order; for each, shed its hottest buckets — hottest
//      first, bucket id breaking ties — onto the least-loaded healthy server
//      until it is back under the limit, the per-epoch move budget runs out,
//      or it is down to one bucket.
//   3. Every move pays the handoff cost: the bucket is unavailable for
//      cfg.move_unavailable, requests arriving inside the window wait it
//      out, and clients with the old map version pay one redirect.
//
// Determinism: every input (counters, health, map state) is simulation
// state, the walk orders are fixed, and the only randomness — breaking ties
// between equally loaded target servers — draws from a stream forked off
// the balancer's own seeded RNG, so balancing decisions replay
// byte-identically and never perturb any other consumer's draws.
//
// The process parks itself after cfg.idle_epochs_to_exit epochs with no
// traffic so a drained simulation can terminate (Simulation::run exits only
// when the event queue empties).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/storage_cluster.hpp"
#include "simcore/random.hpp"
#include "simcore/task.hpp"

namespace cluster {

class LoadBalancer {
 public:
  explicit LoadBalancer(StorageCluster& cluster)
      : cluster_(cluster),
        cfg_(cluster.config().balancer),
        rng_(cfg_.seed),
        decision_rng_(rng_.fork()) {}

  /// Spawns the master process. Call at most once, before Simulation::run.
  void start() { cluster_.simulation().spawn(run()); }

  std::int64_t epochs() const noexcept { return epochs_; }
  std::int64_t moves() const noexcept { return moves_; }

 private:
  sim::Task<void> run() {
    const int buckets = cluster_.partition_map().buckets();
    std::vector<std::int64_t> prev(static_cast<std::size_t>(buckets), 0);
    std::vector<std::int64_t> delta(static_cast<std::size_t>(buckets), 0);
    int idle = 0;
    for (;;) {
      co_await cluster_.simulation().delay(cfg_.epoch);
      ++epochs_;
      const std::vector<std::int64_t>& cur = cluster_.bucket_requests();
      std::int64_t total = 0;
      for (int b = 0; b < buckets; ++b) {
        delta[b] = cur[b] - prev[b];
        prev[b] = cur[b];
        total += delta[b];
      }
      if (total == 0) {
        if (++idle >= cfg_.idle_epochs_to_exit) co_return;
        continue;
      }
      idle = 0;
      rebalance(delta, total);
    }
  }

  void rebalance(const std::vector<std::int64_t>& delta, std::int64_t total) {
    const PartitionMap& map = cluster_.partition_map();
    const int servers = cluster_.server_count();

    std::vector<std::int64_t> load(static_cast<std::size_t>(servers), 0);
    std::vector<int> owned(static_cast<std::size_t>(servers), 0);
    for (int b = 0; b < map.buckets(); ++b) {
      load[static_cast<std::size_t>(map.owner(b))] += delta[b];
      ++owned[static_cast<std::size_t>(map.owner(b))];
    }
    int healthy = 0;
    for (int s = 0; s < servers; ++s) healthy += cluster_.server(s).up();
    if (healthy == 0) return;
    const double limit = cfg_.offload_threshold *
                         (static_cast<double>(total) / healthy);

    int budget = cfg_.max_moves_per_epoch;
    for (int s = 0; s < servers && budget > 0; ++s) {
      if (!cluster_.server(s).up()) continue;
      if (static_cast<double>(load[s]) <= limit) continue;

      // This server's buckets, hottest first (bucket id breaks ties).
      std::vector<int> mine = map.buckets_of(s);
      std::sort(mine.begin(), mine.end(), [&](int a, int b) {
        if (delta[a] != delta[b]) return delta[a] > delta[b];
        return a < b;
      });
      for (const int b : mine) {
        if (budget == 0) break;
        if (static_cast<double>(load[s]) <= limit) break;
        if (owned[s] <= 1) break;     // never empty a server entirely
        if (delta[b] == 0) break;     // the rest are cold; moving is churn
        const int target = pick_target(load, s);
        if (target < 0) break;
        // Don't move a bucket that would just overload the target instead.
        if (load[target] + delta[b] >= load[s]) continue;
        cluster_.move_bucket(b, target, cfg_.move_unavailable);
        load[s] -= delta[b];
        load[target] += delta[b];
        --owned[s];
        ++owned[target];
        --budget;
        ++moves_;
      }
    }
  }

  /// Least-loaded healthy server other than `from`; equally loaded
  /// candidates are tied-broken by a draw from the decision stream.
  int pick_target(const std::vector<std::int64_t>& load, int from) {
    std::int64_t best = 0;
    std::vector<int> ties;
    for (int s = 0; s < cluster_.server_count(); ++s) {
      if (s == from || !cluster_.server(s).up()) continue;
      if (ties.empty() || load[s] < best) {
        best = load[s];
        ties.assign(1, s);
      } else if (load[s] == best) {
        ties.push_back(s);
      }
    }
    if (ties.empty()) return -1;
    if (ties.size() == 1) return ties.front();
    return ties[static_cast<std::size_t>(decision_rng_.uniform(
        0, static_cast<std::int64_t>(ties.size()) - 1))];
  }

  StorageCluster& cluster_;
  BalancerConfig cfg_;
  sim::Random rng_;
  sim::Random decision_rng_;
  std::int64_t epochs_ = 0;
  std::int64_t moves_ = 0;
};

}  // namespace cluster
