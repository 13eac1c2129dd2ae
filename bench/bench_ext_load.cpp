// Extension benchmark: open-loop saturation sweep. Not a paper figure — the
// paper's workloads are closed-loop (Section III: each of ~100 workers waits
// for its previous request), which can never overload the account target by
// more than one in-flight request per worker. This sweep drives the cluster
// with framework::LoadEngine instead: seeded Poisson arrivals whose offered
// rate scales with the session population, so the account transaction target
// (5,000 tx/s, Section IV) is actually crossed and the overload behaviour —
// queueing, ServerBusy rejections, shed arrivals, tail-latency growth — is
// measured rather than assumed.
//
// Each population P offers P sessions at P/10 arrivals per second (a 10
// virtual-second ramp). A session issues one cluster request through
// azure::with_retry under RetryPolicy::open_loop, retrying ServerBusy with
// doubling backoff up to 4 attempts; a session that exhausts its budget
// dead-letters as a throttle failure. The top of the sweep holds
// >= 100k concurrent sessions in the admission window (column peak_if) —
// the population scale ROADMAP.md targets, on one host, in virtual time.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "azure/common/retry.hpp"
#include "bench_util.hpp"
#include "cluster/config.hpp"
#include "cluster/storage_cluster.hpp"
#include "framework/load_engine.hpp"
#include "netsim/nic.hpp"
#include "obs/observer.hpp"
#include "simcore/simulation.hpp"
#include "simcore/time.hpp"

namespace {

constexpr int kClientNics = 64;
constexpr int kWindowCap = 131072;

struct PointResult {
  std::int64_t population = 0;
  framework::LoadStats stats;
  double duration_s = 0;   // virtual time of the last completion
  double ops_per_sec = 0;  // completed sessions / duration
  // Latency of *successful* sessions, arrival -> completion (ns).
  std::int64_t p50 = 0, p95 = 0, p99 = 0, p999 = 0;
};

sim::Task<void> session_body(sim::Simulation& s, cluster::StorageCluster& cl,
                             netsim::Nic& nic,
                             framework::LoadEngine::Session& sess) {
  cluster::RequestCost cost;
  cost.server_cpu = sim::micros(500);
  const std::uint64_t hash = sess.rng.next_u64();
  // A ServerBusy left after the last attempt escapes to the engine, which
  // books the throttle failure.
  co_await azure::with_retry(
      s, [&] { return cl.execute(nic, hash, cost); },
      azure::RetryPolicy::open_loop(static_cast<std::uint64_t>(sess.id)));
}

PointResult run_point(std::int64_t population, std::uint64_t seed,
                      double rate_scale) {
  sim::Simulation s;
  obs::Observer observer;
  s.set_observer(&observer);

  cluster::ClusterConfig cc;
  cc.partition_servers = 64;  // the paper deployment's server count
  cluster::StorageCluster cl(s, cc);

  std::vector<std::unique_ptr<netsim::Nic>> nics;
  nics.reserve(kClientNics);
  for (int i = 0; i < kClientNics; ++i) {
    nics.push_back(std::make_unique<netsim::Nic>(
        s, netsim::NicConfig{100e6, 100e6, sim::micros(50), 64 * 1024.0}));
  }

  framework::LoadEngineConfig ecfg;
  ecfg.arrivals.kind = framework::ArrivalConfig::Kind::kPoisson;
  ecfg.arrivals.rate_per_sec =
      static_cast<double>(population) / 10.0 * rate_scale;
  ecfg.arrivals.seed = seed;
  ecfg.max_sessions = population;
  ecfg.max_in_flight =
      static_cast<int>(std::min<std::int64_t>(population, kWindowCap));
  ecfg.max_pending = ecfg.max_in_flight;
  ecfg.session_seed = seed ^ 0xBE7Cull;
  framework::LoadEngine engine(
      s, ecfg, [&](framework::LoadEngine::Session& sess) {
        netsim::Nic& nic =
            *nics[static_cast<std::size_t>(sess.id) % kClientNics];
        return session_body(s, cl, nic, sess);
      });
  engine.start();
  s.run();

  PointResult r;
  r.population = population;
  r.stats = engine.stats();
  r.duration_s = sim::to_seconds(r.stats.last_completion);
  r.ops_per_sec = r.duration_s > 0
                      ? static_cast<double>(r.stats.completed) / r.duration_s
                      : 0;
  const obs::LatencyHistogram& h =
      observer.metrics().histogram("load.session_latency");
  r.p50 = h.quantile(0.50);
  r.p95 = h.quantile(0.95);
  r.p99 = h.quantile(0.99);
  r.p999 = h.quantile(0.999);
  return r;
}

std::vector<std::string> row_cells(const PointResult& r) {
  const framework::LoadStats& st = r.stats;
  const double busy_pct =
      st.offered > 0 ? 100.0 * static_cast<double>(st.throttle_failures) /
                           static_cast<double>(st.offered)
                     : 0;
  const double shed_pct =
      st.offered > 0 ? 100.0 * static_cast<double>(st.shed) /
                           static_cast<double>(st.offered)
                     : 0;
  return {std::to_string(r.population),
          std::to_string(st.offered),
          std::to_string(st.completed),
          std::to_string(st.shed),
          std::to_string(st.throttle_failures),
          std::to_string(st.peak_in_flight),
          benchutil::fmt(r.ops_per_sec, 1),
          benchutil::fmt(sim::to_seconds(r.p50) * 1e3, 3),
          benchutil::fmt(sim::to_seconds(r.p95) * 1e3, 3),
          benchutil::fmt(sim::to_seconds(r.p99) * 1e3, 3),
          benchutil::fmt(sim::to_seconds(r.p999) * 1e3, 3),
          benchutil::fmt(busy_pct, 2),
          benchutil::fmt(shed_pct, 2)};
}

const std::vector<std::string>& headers() {
  static const std::vector<std::string> h = {
      "population", "offered",  "completed", "shed",    "busy",
      "peak_if",    "ops_per_s", "p50_ms",   "p95_ms",  "p99_ms",
      "p999_ms",    "busy_pct",  "shed_pct"};
  return h;
}

/// One canonical string for the whole sweep — the artifact --selfcheck
/// compares byte-for-byte across two same-seed runs.
std::string render_canonical(const std::vector<std::vector<std::string>>& rows) {
  std::string out;
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += row[c];
      out += (c + 1 < row.size()) ? "," : "\n";
    }
  }
  return out;
}

std::vector<std::vector<std::string>> run_sweep(
    const std::vector<std::int64_t>& populations, std::uint64_t seed,
    double rate_scale) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(populations.size());
  for (const std::int64_t p : populations) {
    rows.push_back(row_cells(run_point(p, seed, rate_scale)));
  }
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
  std::uint64_t seed = 0x10AD;
  double rate_scale = 1.0;
  std::int64_t population = 0;
  benchutil::parse_flags(
      argc, argv,
      {{"--smoke", &smoke, "tiny populations (1k, 4k) for CI"},
       {"--population", &population,
        "single population instead of the 1k..1M sweep", 1},
       {"--rate_scale", &rate_scale,
        "multiply the offered P/10 per-second arrival rate (default 1.0)",
        1e-3, 1e3},
       {"--seed", &seed, "session seed (default 0x10AD)"},
       {"--csv", &csv, "CSV instead of the fixed-width table"},
       {"--json", &json, "JSON rows instead of the table"},
       {"--selfcheck", &selfcheck,
        "run the sweep twice, fail unless byte-identical"}});

  std::vector<std::int64_t> populations;
  if (population > 0) {
    populations = {population};
  } else if (smoke) {
    populations = {1'000, 4'000};
  } else {
    populations = {1'000, 10'000, 100'000, 1'000'000};
  }

  const auto rows = run_sweep(populations, seed, rate_scale);
  if (selfcheck) {
    const auto again = run_sweep(populations, seed, rate_scale);
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
