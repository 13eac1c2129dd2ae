// Extension benchmark: the geo-replication region-loss drill. Not a paper
// figure — the paper benchmarks a single storage stamp. This drill builds
// two geo-replicated stamps (cluster/geo_replication.hpp) and measures what
// the paper's model cannot: the cost of *losing a region*.
//
// An open-loop Poisson session stream (1 replicated write + 1 eventual read
// per session, standard bounded retry) runs while the fault plan's region
// schedule takes the home region down mid-window and brings it back. The
// sweep varies the log-shipping interval: the longer writes sit unshipped,
// the more of them die with the region — RPO (lost acknowledged writes and
// staleness-at-failover) grows with the shipping interval, while RTO (the
// redirect-driven promotion) stays flat. Failback runs the chain-CRC verify
// + ledger scrub + catch-up reconciliation before the home region resumes.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "azure/common/retry.hpp"
#include "bench_util.hpp"
#include "cluster/config.hpp"
#include "cluster/geo_replication.hpp"
#include "fabric/vm_size.hpp"
#include "faults/fault_plan.hpp"
#include "framework/load_engine.hpp"
#include "netsim/nic.hpp"
#include "obs/observer.hpp"
#include "simcore/simulation.hpp"
#include "simcore/time.hpp"

namespace {

constexpr int kClientNics = 32;

/// The drill's provisioned staleness bound. Sized to cover the worst sweep
/// point's replication lag including one dropped-batch redelivery round
/// (2 x ship_interval + WAN transfer); the binary fails if any drill's
/// observed staleness-at-failover exceeds it, so "RPO is bounded by the
/// configured target" is checked on every run, not just eyeballed.
constexpr sim::Duration kStalenessTarget = sim::kSecond;

struct DrillResult {
  std::int64_t ship_ms = 0;
  framework::LoadStats stats;
  std::int64_t failovers = 0;
  std::int64_t failbacks = 0;
  std::int64_t rpo_lost_writes = 0;
  double staleness_at_failover_ms = 0;
  double rto_ms = 0;
  std::int64_t redirects = 0;
  std::int64_t redeliveries = 0;
  std::int64_t scrub_repairs = 0;
  std::int64_t chain_verifications = 0;
  double final_s = 0;
};

cluster::GeoConfig drill_geo(sim::Duration ship_interval) {
  cluster::GeoConfig g;
  cluster::ClusterConfig stamp;
  stamp.partition_servers = 8;
  stamp.balancer.buckets_per_server = 4;
  g.regions.push_back(cluster::GeoRegionConfig{"east", stamp});
  g.regions.push_back(cluster::GeoRegionConfig{"west", stamp});
  g.ship_interval = ship_interval;
  g.staleness_target = kStalenessTarget;
  return g;
}

faults::FaultConfig drill_faults(std::uint64_t seed) {
  faults::FaultConfig f;
  f.seed = seed;
  f.region_outages = 1;
  f.region_outage_mean_interval = sim::millis(900);
  f.region_downtime = sim::millis(800);
  f.region_outage_victim = 0;  // always the home region: the drill is the point
  f.geo_drop_probability = 0.05;
  return f;
}

sim::Task<void> drill_session(sim::Simulation& s, cluster::GeoCluster& geo,
                              netsim::Nic& nic,
                              framework::LoadEngine::Session& sess) {
  azure::RetryPolicy retry;
  retry.backoff = sim::millis(50);
  retry.max_backoff = sim::millis(400);
  retry.max_attempts = 8;
  retry.jitter_seed = static_cast<std::uint64_t>(sess.id);
  const int home = static_cast<int>(sess.id % 2);
  const std::uint64_t hash = sess.rng.next_u64();
  cluster::RequestCost wcost;
  wcost.disk_bytes = 4 * 1024;
  wcost.replicate = true;
  co_await azure::with_retry(
      s, [&] { return geo.write(nic, home, hash, wcost); }, retry);
  co_await azure::with_retry(
      s,
      [&] {
        return geo.read(nic, home, hash, cluster::RequestCost{},
                        cluster::ReadConsistency::kEventual);
      },
      retry);
}

DrillResult run_drill(sim::Duration ship_interval, std::int64_t sessions,
                      std::uint64_t seed) {
  sim::Simulation s;
  obs::Observer observer;
  s.set_observer(&observer);
  cluster::GeoCluster geo(s, drill_geo(ship_interval));
  faults::FaultPlan plan(s, drill_faults(seed));
  geo.enable_faults(plan);

  std::vector<std::unique_ptr<netsim::Nic>> nics;
  nics.reserve(kClientNics);
  for (int i = 0; i < kClientNics; ++i) {
    nics.push_back(std::make_unique<netsim::Nic>(
        s, fabric::nic_config_of(fabric::VmSize::kExtraLarge)));
  }

  framework::LoadEngineConfig ecfg;
  ecfg.arrivals.kind = framework::ArrivalConfig::Kind::kPoisson;
  ecfg.arrivals.rate_per_sec = 200.0;
  ecfg.arrivals.seed = seed ^ 0x6E0ull;
  ecfg.max_sessions = sessions;
  ecfg.max_in_flight = 64;
  ecfg.max_pending = 256;
  framework::LoadEngine engine(
      s, ecfg, [&](framework::LoadEngine::Session& sess) {
        netsim::Nic& nic =
            *nics[static_cast<std::size_t>(sess.id) % kClientNics];
        return drill_session(s, geo, nic, sess);
      });
  engine.start();
  s.run();

  DrillResult r;
  r.ship_ms = static_cast<std::int64_t>(ship_interval / sim::kMillisecond);
  r.stats = engine.stats();
  r.failovers = geo.region_failovers();
  r.failbacks = geo.region_failbacks();
  r.rpo_lost_writes = geo.rpo_lost_writes();
  r.staleness_at_failover_ms =
      sim::to_seconds(geo.max_staleness_at_failover()) * 1e3;
  r.rto_ms = sim::to_seconds(geo.last_rto()) * 1e3;
  r.redirects = geo.stale_geo_redirects();
  r.redeliveries = geo.redeliveries();
  r.scrub_repairs = geo.geo_scrub_repairs();
  r.chain_verifications = geo.chain_verifications();
  r.final_s = sim::to_seconds(s.now());
  return r;
}

const std::vector<std::string>& headers() {
  static const std::vector<std::string> h = {
      "ship_ms",    "offered",   "completed", "deadlet",  "failovers",
      "failbacks",  "rpo_writes", "stale_fo_ms", "rto_ms", "redirects",
      "redeliv",    "scrubbed",  "chain_ok",  "final_s"};
  return h;
}

std::vector<std::string> row_cells(const DrillResult& r) {
  return {std::to_string(r.ship_ms),
          std::to_string(r.stats.offered),
          std::to_string(r.stats.completed),
          std::to_string(r.stats.dead_lettered),
          std::to_string(r.failovers),
          std::to_string(r.failbacks),
          std::to_string(r.rpo_lost_writes),
          benchutil::fmt(r.staleness_at_failover_ms, 3),
          benchutil::fmt(r.rto_ms, 3),
          std::to_string(r.redirects),
          std::to_string(r.redeliveries),
          std::to_string(r.scrub_repairs),
          std::to_string(r.chain_verifications),
          benchutil::fmt(r.final_s, 3)};
}

std::string render_canonical(
    const std::vector<std::vector<std::string>>& rows) {
  std::string out;
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += row[c];
      out += (c + 1 < row.size()) ? "," : "\n";
    }
  }
  return out;
}

std::vector<DrillResult> run_sweep(const std::vector<sim::Duration>& intervals,
                                   std::int64_t sessions,
                                   std::uint64_t seed) {
  std::vector<DrillResult> results;
  results.reserve(intervals.size());
  for (const sim::Duration d : intervals) {
    results.push_back(run_drill(d, sessions, seed));
  }
  return results;
}

std::vector<std::vector<std::string>> render_rows(
    const std::vector<DrillResult>& results) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(results.size());
  for (const DrillResult& r : results) rows.push_back(row_cells(r));
  return rows;
}

void print_json(const std::vector<std::vector<std::string>>& rows) {
  std::printf("[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("  {");
    for (std::size_t c = 0; c < rows[i].size(); ++c) {
      std::printf("\"%s\": %s%s", headers()[c].c_str(), rows[i][c].c_str(),
                  (c + 1 < rows[i].size()) ? ", " : "");
    }
    std::printf("}%s\n", (i + 1 < rows.size()) ? "," : "");
  }
  std::printf("]\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool csv = false;
  bool json = false;
  bool selfcheck = false;
  std::uint64_t seed = 0x6E0D;
  std::int64_t ship_ms = 0;
  benchutil::parse_flags(
      argc, argv,
      {{"--smoke", &smoke, "two sweep points, 400 sessions (CI)"},
       {"--ship_ms", &ship_ms,
        "single shipping interval instead of the 5..250 ms sweep", 1, 60'000},
       {"--seed", &seed, "drill seed (default 0x6E0D)"},
       {"--csv", &csv, "CSV instead of the fixed-width table"},
       {"--json", &json, "JSON rows instead of the table"},
       {"--selfcheck", &selfcheck,
        "run the sweep twice, fail unless byte-identical"}});

  std::vector<sim::Duration> intervals;
  if (ship_ms > 0) {
    intervals = {sim::millis(ship_ms)};
  } else if (smoke) {
    intervals = {sim::millis(10), sim::millis(100)};
  } else {
    intervals = {sim::millis(5), sim::millis(25), sim::millis(100),
                 sim::millis(250)};
  }
  const std::int64_t sessions = smoke ? 400 : 1'000;

  const auto results = run_sweep(intervals, sessions, seed);
  const auto rows = render_rows(results);
  for (const DrillResult& r : results) {
    if (r.staleness_at_failover_ms > sim::to_seconds(kStalenessTarget) * 1e3) {
      std::fprintf(stderr,
                   "RPO bound FAILED: ship_ms=%lld staleness-at-failover "
                   "%.3f ms exceeds the %.0f ms target\n",
                   static_cast<long long>(r.ship_ms),
                   r.staleness_at_failover_ms,
                   sim::to_seconds(kStalenessTarget) * 1e3);
      return 1;
    }
  }
  if (selfcheck) {
    const auto again = render_rows(run_sweep(intervals, sessions, seed));
    if (render_canonical(rows) != render_canonical(again)) {
      std::fprintf(stderr, "selfcheck FAILED: replay diverged\n");
      return 1;
    }
    std::fprintf(stderr, "selfcheck ok: two runs byte-identical\n");
  }

  benchutil::Table table(headers());
  for (const auto& row : rows) table.add_row(row);
  if (json) {
    print_json(rows);
  } else if (csv) {
    table.print_csv();
  } else {
    table.print();
  }
  return 0;
}
