// Scenario driver: interprets a declarative spec file
// (framework/scenario.hpp) instead of hard-coding one workload per binary.
// It is the only entry point for the paper's figures.
//
//   bench_scenario --spec=scenarios/ycsb_a.json
//   bench_scenario --spec=scenarios/fig4.json --csv
//   bench_scenario --smoke --selfcheck
//
// Figure-mode specs replay a paper figure (fig4–fig9) through the figN_table
// builders below; `ctest -L golden` diffs their --csv tables against the
// committed tests/golden/figN.csv. Generic-mode specs run an open-loop
// LoadEngine workload (scenario_runner.hpp).
//
// Flags (anything else is a usage error):
//   --spec=FILE    the scenario spec (required unless --smoke); `--spec FILE`
//                  works too
//   --smoke        built-in tiny four-service spec for CI
//   --backend=B    override the spec's backend (azure | s3 | tiered);
//                  generic mode only, and the mix must fit the target
//                  backend's capabilities
//   --csv          machine-diffable output: the table(s) only, as CSV
//   --selfcheck    run twice, fail (exit 1) unless byte-identical —
//                  including the obs JSON export when observability is on
//   --obs, --obs-json=FILE, --trace   observability export of the first
//                  run (bench_util.hpp)
//
// Exit codes: 0 ok, 1 selfcheck divergence, 2 usage/spec error.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/blob_benchmark.hpp"
#include "core/queue_benchmark.hpp"
#include "core/table_benchmark.hpp"
#include "framework/scenario.hpp"
#include "obs/observer.hpp"
#include "scenario_runner.hpp"

namespace {

// A little of everything, sized to finish in well under a second of wall
// time: all four services, a zipf hot spot, faults off.
constexpr const char* kSmokeSpec = R"({
  "name": "smoke",
  "description": "CI smoke: every service, tiny scale",
  "seed": 7,
  "operations": 400,
  "read_ratio": 0.6,
  "populate": 64,
  "arrivals": {"kind": "poisson", "rate_per_sec": 200.0},
  "keys": {"kind": "zipf", "space": 64, "zipf_s": 0.99},
  "values": {"bytes": 2048},
  "mix": [
    {"service": "blob", "op": "mixed", "weight": 1.0},
    {"service": "queue", "op": "mixed", "weight": 1.0},
    {"service": "table", "op": "mixed", "weight": 1.0},
    {"service": "sql", "op": "mixed", "weight": 1.0}
  ]
})";

using framework::ScenarioFigure;

/// The worker counts a figure runs: the spec's list, or the paper's
/// ten-point sweep. Fig. 7's default starts at 2: a single worker cycling
/// 20,000 messages with 1–5 s think times spans >10 virtual days — past the
/// 7-day message TTL the queue barrier depends on.
std::vector<int> figure_workers(const ScenarioFigure& f) {
  if (!f.workers.empty()) return f.workers;
  if (f.id == 7) return {2, 4, 8, 16, 32, 48, 64, 80, 96};
  return {1, 2, 4, 8, 16, 32, 48, 64, 80, 96};
}

/// Fig. 4: blob upload/download time and throughput vs. workers.
benchutil::Table fig4_table(const ScenarioFigure& f, obs::Observer* observer) {
  benchutil::Table table({"workers", "pageUp_s", "pageUp_MiBps", "blockUp_s",
                          "blockUp_MiBps", "pageDown_s", "pageDown_MiBps",
                          "blockDown_s", "blockDown_MiBps", "barrier_s"});
  for (const int workers : figure_workers(f)) {
    azurebench::BlobBenchConfig cfg;
    cfg.workers = workers;
    cfg.repeats = f.repeats;
    cfg.cloud.blob.replica_reads = !f.no_replica_reads;
    cfg.observer = observer;
    const auto r = azurebench::run_blob_benchmark(cfg);
    table.add_row({std::to_string(workers),
                   benchutil::fmt(r.page_upload.seconds),
                   benchutil::fmt(r.page_upload.mib_per_sec()),
                   benchutil::fmt(r.block_upload.seconds),
                   benchutil::fmt(r.block_upload.mib_per_sec()),
                   benchutil::fmt(r.page_full_read.seconds),
                   benchutil::fmt(r.page_full_read.mib_per_sec()),
                   benchutil::fmt(r.block_full_read.seconds),
                   benchutil::fmt(r.block_full_read.mib_per_sec()),
                   benchutil::fmt(r.barrier_seconds)});
  }
  return table;
}

/// Fig. 5: chunk-wise blob download (random pages / sequential blocks).
benchutil::Table fig5_table(const ScenarioFigure& f, obs::Observer* observer) {
  benchutil::Table table({"workers", "pageRand_s", "pageRand_MiBps",
                          "pageRand_ms/op", "blockSeq_s", "blockSeq_MiBps",
                          "blockSeq_ms/op"});
  for (const int workers : figure_workers(f)) {
    azurebench::BlobBenchConfig cfg;
    cfg.workers = workers;
    cfg.repeats = f.repeats;
    cfg.observer = observer;
    const auto r = azurebench::run_blob_benchmark(cfg);
    table.add_row({std::to_string(workers),
                   benchutil::fmt(r.page_random_read.seconds),
                   benchutil::fmt(r.page_random_read.mib_per_sec()),
                   benchutil::fmt(r.page_random_read.ms_per_op() * workers),
                   benchutil::fmt(r.block_seq_read.seconds),
                   benchutil::fmt(r.block_seq_read.mib_per_sec()),
                   benchutil::fmt(r.block_seq_read.ms_per_op() * workers)});
  }
  return table;
}

/// Fig. 6: queue storage, separate queue per worker, one series per size.
benchutil::Table fig6_table(const ScenarioFigure& f, obs::Observer* observer) {
  benchutil::Table table({"workers", "size_KB", "put_s", "peek_s", "get_s",
                          "put_ms/op", "peek_ms/op", "get_ms/op"});
  for (const int workers : figure_workers(f)) {
    azurebench::QueueSeparateConfig cfg;
    cfg.workers = workers;
    cfg.total_messages = f.messages;
    cfg.cloud.queue.model_16k_get_anomaly = !f.no_anomaly;
    cfg.observer = observer;
    const auto r = azurebench::run_queue_separate_benchmark(cfg);
    for (const auto& p : r.points) {
      table.add_row(
          {std::to_string(workers), std::to_string(p.message_size / 1024),
           benchutil::fmt(p.put.seconds), benchutil::fmt(p.peek.seconds),
           benchutil::fmt(p.get.seconds),
           benchutil::fmt(p.put.ms_per_op() * workers),
           benchutil::fmt(p.peek.ms_per_op() * workers),
           benchutil::fmt(p.get.ms_per_op() * workers)});
    }
  }
  return table;
}

/// Fig. 7: queue storage, single shared queue, one series per think time.
benchutil::Table fig7_table(const ScenarioFigure& f, obs::Observer* observer) {
  benchutil::Table table({"workers", "think_s", "put_s", "peek_s", "get_s",
                          "put_ms/op", "peek_ms/op", "get_ms/op"});
  for (const int workers : figure_workers(f)) {
    azurebench::QueueSharedConfig cfg;
    cfg.workers = workers;
    cfg.total_messages = f.messages;
    cfg.observer = observer;
    const auto r = azurebench::run_queue_shared_benchmark(cfg);
    for (const auto& p : r.points) {
      table.add_row({std::to_string(workers), std::to_string(p.think_seconds),
                     benchutil::fmt(p.put.seconds),
                     benchutil::fmt(p.peek.seconds),
                     benchutil::fmt(p.get.seconds),
                     benchutil::fmt(p.put.ms_per_op()),
                     benchutil::fmt(p.peek.ms_per_op()),
                     benchutil::fmt(p.get.ms_per_op())});
    }
  }
  return table;
}

/// Fig. 8: table storage Insert/Query/Update/Delete, one series per size.
benchutil::Table fig8_table(const ScenarioFigure& f, obs::Observer* observer) {
  benchutil::Table table({"workers", "size_KB", "insert_s", "query_s",
                          "update_s", "delete_s", "busy_retries"});
  for (const int workers : figure_workers(f)) {
    azurebench::TableBenchConfig cfg;
    cfg.workers = workers;
    cfg.entities = f.entities;
    cfg.observer = observer;
    const auto r = azurebench::run_table_benchmark(cfg);
    bool first = true;
    for (const auto& p : r.points) {
      table.add_row({std::to_string(workers),
                     std::to_string(p.entity_size / 1024),
                     benchutil::fmt(p.insert.seconds),
                     benchutil::fmt(p.query.seconds),
                     benchutil::fmt(p.update.seconds),
                     benchutil::fmt(p.erase.seconds),
                     first ? std::to_string(r.server_busy_retries) : ""});
      first = false;
    }
  }
  return table;
}

/// Fig. 9: per-operation time for table and queue storage (32 KB payloads).
benchutil::Table fig9_table(const ScenarioFigure& f, obs::Observer* observer) {
  benchutil::Table table({"workers", "tbl_insert", "tbl_query", "tbl_update",
                          "tbl_delete", "q_put", "q_peek", "q_get"});
  for (const int workers : figure_workers(f)) {
    azurebench::TableBenchConfig tcfg;
    tcfg.workers = workers;
    tcfg.entities = f.entities;
    tcfg.entity_sizes = {32 << 10};
    tcfg.observer = observer;
    const auto t = azurebench::run_table_benchmark(tcfg);
    const auto& tp = t.points.front();

    azurebench::QueueSeparateConfig qcfg;
    qcfg.workers = workers;
    qcfg.total_messages = f.messages;
    qcfg.message_sizes = {32 << 10};
    qcfg.observer = observer;
    const auto q = azurebench::run_queue_separate_benchmark(qcfg);
    const auto& qp = q.points.front();

    // Phase time is per-worker (longest worker); ops are fleet-wide, so
    // ms/op * workers = mean per-operation time.
    auto per_op = [&](const azurebench::PhaseReport& r) {
      return benchutil::fmt(r.ms_per_op() * workers);
    };
    table.add_row({std::to_string(workers), per_op(tp.insert),
                   per_op(tp.query), per_op(tp.update), per_op(tp.erase),
                   per_op(qp.put), per_op(qp.peek), per_op(qp.get)});
  }
  return table;
}

benchutil::Table figure_table(const ScenarioFigure& f,
                              obs::Observer* observer) {
  switch (f.id) {
    case 4: return fig4_table(f, observer);
    case 5: return fig5_table(f, observer);
    case 6: return fig6_table(f, observer);
    case 7: return fig7_table(f, observer);
    case 8: return fig8_table(f, observer);
    default: return fig9_table(f, observer);
  }
}

/// One full run: the canonical report string the selfcheck compares, plus
/// the tables to print.
struct RunOutput {
  std::string canonical;
  benchutil::Table table;          // figure table or mix table
  benchutil::Table extra{{}};      // generic mode: the load table
  bool has_extra = false;
};

RunOutput run_once(const framework::Scenario& sc, obs::Observer* observer) {
  if (sc.figure_mode()) {
    RunOutput out{.canonical = "",
                  .table = figure_table(*sc.figure, observer)};
    out.canonical = "scenario," + sc.name + "\n" + out.table.csv_string();
    return out;
  }
  const benchscn::ScenarioRunResult r =
      benchscn::run_generic_scenario(sc, observer);
  RunOutput out{.canonical = benchscn::canonical_report(sc, r),
                .table = benchscn::mix_table(sc, r)};
  out.extra = benchscn::load_table(r);
  out.has_extra = true;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::require_known_flags(
      argc, argv, {"--smoke", "--csv", "--selfcheck", "--obs", "--trace"},
      {"--spec", "--backend", "--obs-json"});
  const bool smoke = benchutil::flag_set(argc, argv, "--smoke");
  const bool csv = benchutil::flag_set(argc, argv, "--csv");
  const bool selfcheck = benchutil::flag_set(argc, argv, "--selfcheck");
  const benchutil::ObsFlags obs_flags = benchutil::obs_flags(argc, argv);
  const std::string spec_path = benchutil::flag_value(argc, argv, "--spec");

  framework::Scenario sc;
  try {
    if (smoke) {
      sc = framework::parse_scenario(kSmokeSpec);
    } else if (!spec_path.empty()) {
      sc = framework::load_scenario_file(spec_path);
    } else {
      std::fprintf(stderr,
                   "usage error: give --spec=FILE (or --smoke); see "
                   "scenarios/ for the pack\n");
      return 2;
    }
  } catch (const framework::ScenarioError& e) {
    std::fprintf(stderr, "scenario error: %s\n", e.what());
    return 2;
  }

  // --backend=B re-targets a generic spec at another backend without
  // editing the file (the cross-backend cost sweeps run one spec N times).
  const std::string backend_flag =
      benchutil::flag_value(argc, argv, "--backend");
  if (!backend_flag.empty()) {
    if (sc.figure_mode()) {
      std::fprintf(stderr,
                   "usage error: --backend does not apply to figure-replay "
                   "specs (figures are defined by the Azure contract)\n");
      return 2;
    }
    if (backend_flag == "azure") {
      sc.backend = framework::BackendKind::kAzure;
    } else if (backend_flag == "s3") {
      sc.backend = framework::BackendKind::kS3;
    } else if (backend_flag == "tiered") {
      sc.backend = framework::BackendKind::kTiered;
    } else {
      std::fprintf(stderr,
                   "usage error: unknown backend '%s' (azure | s3 | tiered)\n",
                   backend_flag.c_str());
      return 2;
    }
    // The parser validated the mix against the spec's own backend; the
    // override must re-check against the new one.
    for (const framework::ScenarioMixEntry& e : sc.mix) {
      if (!framework::backend_supports(sc.backend, e.service)) {
        std::fprintf(stderr,
                     "usage error: backend '%s' has no %s service — the mix "
                     "in this spec does not fit it\n",
                     framework::backend_name(sc.backend),
                     framework::service_name(e.service));
        return 2;
      }
    }
  }

  obs::Observer observer;
  const RunOutput out =
      run_once(sc, obs_flags.enabled ? &observer : nullptr);
  if (selfcheck) {
    obs::Observer replay_observer;
    const RunOutput replay =
        run_once(sc, obs_flags.enabled ? &replay_observer : nullptr);
    if (replay.canonical != out.canonical ||
        (obs_flags.enabled &&
         replay_observer.to_json() != observer.to_json())) {
      std::fprintf(stderr,
                   "selfcheck FAILED: replay of scenario '%s' diverged\n",
                   sc.name.c_str());
      return 1;
    }
  }

  if (csv) {
    out.table.print_csv();
    if (out.has_extra) {
      std::printf("\n");
      out.extra.print_csv();
    }
  } else {
    std::printf("AzureBench scenario '%s'%s%s\n", sc.name.c_str(),
                sc.description.empty() ? "" : " — ",
                sc.description.c_str());
    if (sc.figure_mode()) {
      std::printf("figure-replay mode: fig%d\n\n", sc.figure->id);
    } else {
      std::printf(
          "generic mode: backend %s, %lld ops, seed %llu, populate %lld per "
          "service\n\n",
          framework::backend_name(sc.backend),
          static_cast<long long>(sc.operations),
          static_cast<unsigned long long>(sc.seed),
          static_cast<long long>(sc.populate_count()));
    }
    out.table.print();
    if (out.has_extra) {
      std::printf("\n");
      out.extra.print();
    }
    if (selfcheck) std::printf("\nselfcheck: PASS (byte-identical replay)\n");
  }

  return benchutil::finish_obs(obs_flags, observer) ? 0 : 2;
}
