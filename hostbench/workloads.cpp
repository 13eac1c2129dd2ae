#include "workloads.hpp"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>

#include "bench_util.hpp"
#include "core/blob_benchmark.hpp"
#include "core/sharded_world.hpp"
#include "core/table_benchmark.hpp"
#include "framework/scenario.hpp"
#include "obs/observer.hpp"
#include "scenario_runner.hpp"
#include "strict_parse.hpp"

#ifndef HOSTBENCH_DIR
#error "HOSTBENCH_DIR must name the benchmark's source directory"
#endif

namespace hostbench {
namespace {

/// Every seed field a public config exposes gets its own stream, derived
/// from --seed with a distinct salt.
constexpr auto derive = framework::scenario_derive_seed;

/// Shortest round-trip rendering: the golden digest must see every bit of a
/// simulated value, not the two decimals the figure tables print.
std::string exact(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void seed_cloud(azure::CloudConfig& cloud, std::uint64_t seed) {
  cloud.queue.seed = derive(seed, 0x0E1);
  cloud.cluster.balancer.seed = derive(seed, 0x0E2);
  cloud.faults.seed = derive(seed, 0x0E3);
}

constexpr int kWorkers = 96;

azurebench::TableBenchConfig table_config(std::uint64_t seed) {
  azurebench::TableBenchConfig cfg;
  cfg.workers = kWorkers;
  cfg.entities = 500;
  seed_cloud(cfg.cloud, seed);
  return cfg;
}

azurebench::BlobBenchConfig blob_config(std::uint64_t seed) {
  azurebench::BlobBenchConfig cfg;
  cfg.workers = kWorkers;
  cfg.seed = seed;
  seed_cloud(cfg.cloud, seed);
  return cfg;
}

/// sharded8's calls run the sharded kernel on one thread: at four threads on
/// a shared 4-core host a call slowed up to 6x whenever another tenant held
/// a core, and the run-to-run spread of wall_s over ten seeds was 1.29. The
/// threaded cost is reported by par.speedup in the traced run instead.
constexpr int kSharded8Threads = 1;

azurebench::ShardedCloudConfig sharded_config(std::uint64_t seed,
                                              int threads) {
  azurebench::ShardedCloudConfig cfg;
  cfg.mode = azurebench::ShardedCloudConfig::Mode::kTable;
  cfg.domains = 8;
  cfg.threads = threads;
  cfg.total_servers = 64;
  cfg.total_workers = kWorkers;
  // 10x the library default: ~371k events, so one call outlasts the
  // kernel's thread start-up and the host's scheduling noise.
  cfg.ops_per_worker = 200;
  cfg.seed = seed;
  return cfg;
}

framework::Scenario mixed_open_scenario(std::uint64_t seed) {
  framework::Scenario sc = framework::parse_scenario(mixed_open_spec());
  sc.seed = seed;
  sc.arrivals.seed = derive(seed, 0x10AD);
  sc.keys.seed = derive(seed, 0x4E59);
  sc.faults.seed = derive(seed, 0xFA);
  return sc;
}

// ----------------------------------------------------------- canonical ----

std::string table_canonical(const azurebench::TableBenchResult& r) {
  benchutil::Table t({"workers", "size_KB", "insert_s", "query_s",
                      "update_s", "delete_s", "busy_retries"});
  for (const auto& p : r.points) {
    t.add_row({std::to_string(kWorkers), std::to_string(p.entity_size / 1024),
               exact(p.insert.seconds), exact(p.query.seconds),
               exact(p.update.seconds), exact(p.erase.seconds),
               std::to_string(r.server_busy_retries)});
  }
  return t.csv_string() + "barrier_s," + exact(r.barrier_seconds) +
         "\nstorage_transactions," + std::to_string(r.storage_transactions) +
         "\nvirtual_s," + exact(r.virtual_seconds) + "\n";
}

std::string blob_canonical(const azurebench::BlobBenchResult& r) {
  benchutil::Table t({"phase", "seconds", "bytes", "ops"});
  for (const azurebench::PhaseReport* p :
       {&r.page_upload, &r.block_upload, &r.page_random_read,
        &r.block_seq_read, &r.page_full_read, &r.block_full_read}) {
    t.add_row({p->phase, exact(p->seconds), std::to_string(p->bytes),
               std::to_string(p->ops)});
  }
  return t.csv_string() + "barrier_s," + exact(r.barrier_seconds) +
         "\nsimulated_events," + std::to_string(r.simulated_events) +
         "\nstorage_transactions," + std::to_string(r.storage_transactions) +
         "\nvirtual_s," + exact(r.virtual_seconds) + "\n";
}

/// Every field ShardedCloudResult::outputs_equal compares.
std::string sharded_canonical(const azurebench::ShardedCloudResult& r) {
  std::ostringstream out;
  out << "events," << r.events_executed << "\ncross_events," << r.cross_events
      << "\nfinal_time," << r.final_time << "\n";
  for (const auto& w : r.workers) {
    out << "worker," << w.puts << ',' << w.gets << ',' << w.deletes << ','
        << w.remote_ops << ',' << w.retries << "\n";
  }
  for (const auto& l : r.load) {
    out << "load," << l.offered << ',' << l.admitted << ',' << l.shed << ','
        << l.completed << ',' << l.dead_lettered << ',' << l.throttle_failures
        << ',' << l.peak_in_flight << ',' << l.peak_pending << ','
        << l.slot_high_water << ',' << l.slot_acquires << ','
        << l.slot_releases << ',' << l.first_admission << ','
        << l.last_completion << "\n";
  }
  for (const auto& [domain, rec] : r.fault_log) {
    out << "fault," << domain << ',' << rec.at << ','
        << static_cast<int>(rec.kind) << ',' << rec.detail << "\n";
  }
  out << r.figure_table << r.obs_json;
  return out.str();
}

// -------------------------------------------------------------- counts ----

/// Observer counter names → per-layer metric names.
constexpr std::pair<const char*, const char*> kCounterMap[] = {
    {"net.transfers", "netsim.transfers"},
    {"net.bytes", "netsim.bytes"},
    {"cluster.requests", "cluster.requests"},
    {"cluster.replica_commits", "cluster.replica_commits"},
    {"cluster.throttle_rejects", "cluster.throttle_rejects"},
    {"retry.backoffs", "client.retry_attempts"},
    {"load.admitted", "framework.sessions"},
};

void zero_counts(RunOutput& out) {
  for (const auto& [from, to] : kCounterMap) out.counts[to] = 0;
  out.counts["par.events"] = 0;
  out.counts["par.cross_events"] = 0;
}

void add_observer_counts(const obs::Observer& o, RunOutput& out) {
  o.metrics().for_each_counter([&](const std::string& name,
                                   const obs::Counter& c) {
    for (const auto& [from, to] : kCounterMap) {
      if (name == from) out.counts[to] += c.value();
    }
  });
}

/// The merged sharded export sums counters by name into its leading
/// `"counters":{...}` object; read the mapped ones back out of it.
void add_merged_json_counts(const std::string& json, RunOutput& out) {
  const std::size_t begin = json.find("\"counters\":{");
  if (begin == std::string::npos) return;
  const std::size_t end = json.find('}', begin);
  for (const auto& [from, to] : kCounterMap) {
    const std::string key = std::string("\"") + from + "\":";
    const std::size_t at = json.find(key, begin);
    if (at == std::string::npos || at > end) continue;
    out.counts[to] += std::strtoll(json.c_str() + at + key.size(), nullptr, 10);
  }
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"table96", "blob96",
                                                 "mixed_open", "sharded8"};
  return names;
}

Workload workload_by_name(std::string_view name) {
  const auto& names = workload_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<Workload>(i);
  }
  throw benchutil::UsageError("--workload", std::string(name),
                              "unknown workload (table96 | blob96 | "
                              "mixed_open | sharded8)");
}

const std::string& mixed_open_spec() {
  static const std::string text = [] {
    const std::string path = std::string(HOSTBENCH_DIR) + "/mixed_open.json";
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
  }();
  return text;
}

RunOutput run_workload(Workload w, std::uint64_t seed, bool traced) {
  RunOutput out;
  // Constructed only when traced: an Observer preallocates its span ring,
  // which would otherwise show in the untraced runs' peak RSS.
  std::optional<obs::Observer> observer;
  if (traced) {
    observer.emplace();
    zero_counts(out);
  }
  obs::Observer* const op = traced ? &*observer : nullptr;
  switch (w) {
    case Workload::kTable96: {
      azurebench::TableBenchConfig cfg = table_config(seed);
      cfg.observer = op;
      const auto r = azurebench::run_table_benchmark(cfg);
      out.canonical = table_canonical(r);
      out.sim_ops = out.ops_attempted = r.storage_transactions;
      // The table workload retries ServerBusy in its own loop, outside the
      // SDK retry policy that feeds retry.backoffs.
      if (traced) out.counts["client.retry_attempts"] += r.server_busy_retries;
      break;
    }
    case Workload::kBlob96: {
      azurebench::BlobBenchConfig cfg = blob_config(seed);
      cfg.observer = op;
      const auto r = azurebench::run_blob_benchmark(cfg);
      out.canonical = blob_canonical(r);
      out.sim_ops = out.ops_attempted = r.storage_transactions;
      break;
    }
    case Workload::kMixedOpen: {
      const framework::Scenario sc = mixed_open_scenario(seed);
      const benchscn::ScenarioRunResult r =
          benchscn::run_generic_scenario(sc, op);
      out.canonical = benchscn::canonical_report(sc, r);
      const framework::LoadStats& st = r.stats;
      std::int64_t errors = 0;
      for (const benchscn::MixStat& m : r.per_entry) errors += m.err;
      out.sim_ops = st.completed;
      out.ops_attempted = st.offered;
      // A session that exhausts its ServerBusy retries is booked both as a
      // mix-entry error and as a throttle dead-letter; count it once.
      out.ops_failed =
          errors + st.shed + st.dead_lettered - st.throttle_failures;
      break;
    }
    case Workload::kSharded8: {
      azurebench::ShardedCloudConfig cfg =
          sharded_config(seed, kSharded8Threads);
      cfg.observe = traced;
      const auto r = azurebench::run_sharded_cloud(cfg);
      out.canonical = sharded_canonical(r);
      for (const auto& ws : r.workers) {
        out.sim_ops += ws.puts + ws.gets + ws.deletes;
        if (traced) out.counts["client.retry_attempts"] += ws.retries;
      }
      out.ops_attempted = out.sim_ops;
      if (traced) {
        add_merged_json_counts(r.obs_json, out);
        out.counts["par.events"] =
            static_cast<std::int64_t>(r.events_executed);
        out.counts["par.cross_events"] =
            static_cast<std::int64_t>(r.cross_events);
      }
      break;
    }
  }
  if (traced) add_observer_counts(*observer, out);
  return out;
}

double setup_seconds(Workload w, std::uint64_t seed) {
  const auto t0 = std::chrono::steady_clock::now();
  switch (w) {
    case Workload::kTable96: {
      azurebench::TableBenchConfig cfg = table_config(seed);
      cfg.entity_sizes.clear();  // deploy, provision, create: no phases
      (void)azurebench::run_table_benchmark(cfg);
      return seconds_since(t0);
    }
    case Workload::kBlob96: {
      azurebench::BlobBenchConfig cfg = blob_config(seed);
      cfg.repeats = 0;
      (void)azurebench::run_blob_benchmark(cfg);
      return seconds_since(t0);
    }
    case Workload::kMixedOpen: {
      // Populate shares one sim.run() with the load, so set-up is a run of
      // the same spec whose load phase is a single session.
      framework::Scenario sc = mixed_open_scenario(seed);
      sc.operations = 1;
      (void)benchscn::run_generic_scenario(sc, nullptr);
      return seconds_since(t0);
    }
    case Workload::kSharded8: {
      azurebench::ShardedCloudConfig cfg =
          sharded_config(seed, kSharded8Threads);
      cfg.ops_per_worker = 1;
      const auto r = azurebench::run_sharded_cloud(cfg);
      return seconds_since(t0) - r.wall_seconds;
    }
  }
  return 0;
}

double sharded_kernel_seconds(std::uint64_t seed, int threads) {
  return azurebench::run_sharded_cloud(sharded_config(seed, threads))
      .wall_seconds;
}

std::string digest(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace hostbench
