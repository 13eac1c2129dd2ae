// Generic-mode interpreter for declarative scenario specs
// (framework/scenario.hpp): one open-loop LoadEngine run against whichever
// storage backend the spec names (`"backend"` key — azure | s3 | tiered).
// Object ops go through the storage::Driver interface; queue, table and
// SQL ops go to the Azure stamp the driver serves them from. Lives in
// bench/ as a header so both the driver binary (bench_scenario.cpp) and the
// replay tests (tests/scenario_test.cpp) execute the exact same code path.
//
// Execution model:
//   setup phase  — create the containers/queues/tables/databases the mix
//                  touches and pre-populate `populate_count()` objects per
//                  service (sizes drawn from a dedicated seeded stream), so
//                  read-heavy mixes start warm instead of drowning in
//                  NotFound. Runs on the virtual clock before any arrival.
//   load phase   — LoadEngine sessions arrive per the spec's arrival
//                  process. Each session draws: mix entry, key, value size,
//                  think time — all from deterministic streams — then issues
//                  one storage operation through azure::with_retry under
//                  RetryPolicy::open_loop: ServerBusy (which covers the S3
//                  backend's 503 SlowDown subclass) retries with doubling
//                  backoff up to 4 attempts.
//
// Accounting is plain integers plus obs::LatencyHistogram (integer log2
// buckets), so the whole report — including quantiles — is a pure function
// of the spec: two runs are byte-identical, which --selfcheck and the
// `ctest -L scenario` replay tests enforce.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "azure/common/retry.hpp"
#include "bench_util.hpp"
#include "fabric/vm_size.hpp"
#include "faults/errors.hpp"
#include "framework/keygen.hpp"
#include "framework/load_engine.hpp"
#include "framework/scenario.hpp"
#include "netsim/nic.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "simcore/simulation.hpp"
#include "storage/azure_driver.hpp"
#include "storage/driver.hpp"

namespace benchscn {

/// Per-mix-entry outcome counters. "mixed" entries accumulate both of
/// their resolved directions into the same row.
struct MixStat {
  std::int64_t count = 0;  ///< operations that completed
  std::int64_t err = 0;    ///< failed after retries (busy, fault, cap, ...)
  std::int64_t miss = 0;   ///< read of an absent key / get on an empty queue
  std::int64_t bytes = 0;  ///< payload bytes moved by completed ops
  obs::LatencyHistogram latency;  ///< completed-op latency, think excluded
};

struct ScenarioRunResult {
  framework::LoadStats stats;
  std::vector<MixStat> per_entry;  ///< parallel to Scenario::mix
  double duration_s = 0;           ///< virtual time of the last completion
  double ops_per_sec = 0;
  std::uint64_t simulated_events = 0;  ///< kernel events, set-up included
};

namespace detail {

/// (service, op, read?) resolved to one concrete storage call.
enum class OpCode {
  kBlobRead,
  kBlobWrite,
  kBlobList,
  kBlobDelete,
  kQueuePut,
  kQueueGet,
  kQueuePeek,
  kTableRead,
  kTableInsert,
  kTableUpdate,
  kTableScan,
  kTableRmw,
  kSqlRead,
  kSqlWrite,
};

inline OpCode resolve_op(const framework::ScenarioMixEntry& e, bool read) {
  using S = framework::ScenarioMixEntry::Service;
  const std::string& op = e.op;
  switch (e.service) {
    case S::kBlob:
      if (op == "read" || (op == "mixed" && read)) return OpCode::kBlobRead;
      if (op == "list") return OpCode::kBlobList;
      if (op == "delete") return OpCode::kBlobDelete;
      return OpCode::kBlobWrite;
    case S::kQueue:
      if (op == "get" || (op == "mixed" && read)) return OpCode::kQueueGet;
      if (op == "peek") return OpCode::kQueuePeek;
      return OpCode::kQueuePut;
    case S::kTable:
      if (op == "read" || (op == "mixed" && read)) return OpCode::kTableRead;
      if (op == "insert") return OpCode::kTableInsert;
      if (op == "scan") return OpCode::kTableScan;
      if (op == "rmw") return OpCode::kTableRmw;
      return OpCode::kTableUpdate;
    case S::kSql:
      if (op == "read" || (op == "mixed" && read)) return OpCode::kSqlRead;
      return OpCode::kSqlWrite;
  }
  return OpCode::kTableRead;
}

constexpr int kClientNics = 16;
constexpr std::int64_t kQueueSeedCap = 1'000;

/// Populate's retry policy: the paper's fixed 1 s sleep without jitter,
/// widened to every transient error a populate op can meet (injected
/// timeouts, resets and checksum mismatches under an armed fault plan, and
/// the balancer's stale-map redirects), so the load phase starts on a warm
/// store instead of a cold miss storm.
inline constexpr azure::RetryPolicy kPopulateRetry = [] {
  azure::RetryPolicy p = azure::RetryPolicy::paper();
  p.retry_faults = true;
  return p;
}();

struct Driver {
  const framework::Scenario& sc;
  sim::Simulation s;
  std::unique_ptr<storage::Driver> backend;
  storage::AzureDriver* stamp;  // queue, table and sql; null on s3
  std::vector<std::unique_ptr<netsim::Nic>> nics;
  framework::KeyGen keygen;
  std::vector<double> cum_weight;
  std::vector<MixStat> stat;
  bool use[4] = {false, false, false, false};  // blob/queue/table/sql

  explicit Driver(const framework::Scenario& scenario)
      : sc(scenario),
        backend(storage::make_driver(s, scenario)),
        stamp(backend->azure()),
        keygen(scenario.keys) {
    for (int i = 0; i < kClientNics; ++i) {
      nics.push_back(std::make_unique<netsim::Nic>(
          s, fabric::nic_config_of(fabric::VmSize::kExtraLarge)));
    }
    stat.resize(sc.mix.size());
    double total = 0;
    for (std::size_t i = 0; i < sc.mix.size(); ++i) {
      const framework::ScenarioMixEntry& e = sc.mix[i];
      // The parser rejects these with a location; a Scenario built in code
      // gets the same typed error here, before any op runs.
      if (!framework::backend_supports(sc.backend, e.service)) {
        std::string path = "scenario.mix[";
        path += std::to_string(i);
        path += "].service";
        throw framework::ScenarioError(
            std::move(path), 0, 0,
            std::string("backend '") + framework::backend_name(sc.backend) +
                "' has no " + framework::service_name(e.service) +
                " service");
      }
      total += e.weight;
      cum_weight.push_back(total);
      use[static_cast<int>(e.service)] = true;
    }
  }

  netsim::Nic& nic_for(std::int64_t session_id) {
    return *nics[static_cast<std::size_t>(session_id) % kClientNics];
  }

  std::size_t pick_entry(sim::Random& rng) {
    const double u = rng.next_double() * cum_weight.back();
    for (std::size_t i = 0; i + 1 < cum_weight.size(); ++i) {
      if (u < cum_weight[i]) return i;
    }
    return cum_weight.size() - 1;
  }

  std::int64_t pick_bytes(sim::Random& rng) const {
    if (sc.values.lo == sc.values.hi) return sc.values.lo;
    return rng.uniform(sc.values.lo, sc.values.hi);
  }

  // prefix + insert instead of `"x" + std::to_string(...)`: GCC 12 emits a
  // -Wrestrict false positive on literal + string-rvalue concatenation.
  static std::string tagged(char tag, std::uint64_t v) {
    std::string n = std::to_string(v);
    n.insert(n.begin(), tag);
    return n;
  }
  std::string blob_name(std::uint64_t key) const { return tagged('b', key); }
  std::string queue_name(std::uint64_t key) const {
    return tagged('q', key % static_cast<std::uint64_t>(sc.queue_fanout));
  }
  std::string partition_of(std::uint64_t key) const {
    return tagged('p',
                  key / static_cast<std::uint64_t>(sc.rows_per_partition));
  }
  std::string row_of(std::uint64_t key) const { return tagged('r', key); }

  // One resolved operation, delegated to the backend. Returns bytes
  // moved; records miss via out-param so the caller keeps all the
  // per-entry accounting in one place.
  sim::Task<std::int64_t> execute(OpCode op, std::uint64_t key,
                                  std::int64_t bytes, netsim::Nic& nic,
                                  bool& miss) {
    storage::OpResult r;
    switch (op) {
      case OpCode::kBlobRead:
        r = co_await backend->object_read(nic, blob_name(key));
        break;
      case OpCode::kBlobWrite:
        r = co_await backend->object_write(nic, blob_name(key), bytes);
        break;
      case OpCode::kBlobList:
        r = co_await backend->object_list(nic);
        break;
      case OpCode::kBlobDelete:
        // Contract difference stays visible here: Azure books a delete of
        // an absent blob as a miss (404); S3 books it as a completed op
        // (idempotent 204).
        r = co_await backend->object_delete(nic, blob_name(key));
        break;
      case OpCode::kQueuePut: {
        // Pub/sub fanout: one put publishes the message to every queue.
        for (int f = 0; f < sc.queue_fanout; ++f) {
          const storage::OpResult one = co_await stamp->queue_put(
              nic, tagged('q', static_cast<std::uint64_t>(f)), bytes);
          r.bytes += one.bytes;
        }
        break;
      }
      case OpCode::kQueueGet:
        r = co_await stamp->queue_get(nic, queue_name(key));
        break;
      case OpCode::kQueuePeek:
        r = co_await stamp->queue_peek(nic, queue_name(key));
        break;
      case OpCode::kTableRead:
        r = co_await stamp->table_read(nic, partition_of(key), row_of(key));
        break;
      case OpCode::kTableInsert:
        r = co_await stamp->table_insert(nic, partition_of(key), row_of(key),
                                         bytes);
        break;
      case OpCode::kTableUpdate:
        r = co_await stamp->table_update(nic, partition_of(key), row_of(key),
                                         bytes);
        break;
      case OpCode::kTableScan:
        r = co_await stamp->table_scan(nic, partition_of(key));
        break;
      case OpCode::kTableRmw:
        r = co_await stamp->table_rmw(nic, partition_of(key), row_of(key),
                                      bytes);
        break;
      case OpCode::kSqlRead:
        r = co_await stamp->sql_read(nic, key);
        break;
      case OpCode::kSqlWrite:
        r = co_await stamp->sql_write(nic, key, bytes);
        break;
    }
    miss = r.miss;
    co_return r.bytes;
  }

  sim::Task<void> session(framework::LoadEngine::Session& sess) {
    const std::size_t ei = pick_entry(sess.rng);
    const bool read = sess.rng.bernoulli(sc.read_ratio);
    const OpCode op = resolve_op(sc.mix[ei], read);
    const std::uint64_t key = keygen.next();
    const std::int64_t bytes = pick_bytes(sess.rng);
    if (sc.think.mean > 0) {
      // mean * (1 + jitter * u), u uniform in [-1, 1).
      const double u = 2.0 * sess.rng.next_double() - 1.0;
      const double scale = 1.0 + sc.think.jitter * u;
      co_await s.delay(static_cast<sim::Duration>(
          static_cast<double>(sc.think.mean) * scale));
    }
    netsim::Nic& nic = nic_for(sess.id);
    MixStat& ms = stat[ei];
    const sim::TimePoint t0 = s.now();
    try {
      bool miss = false;
      const std::int64_t moved = co_await azure::with_retry(
          s, [&] { return execute(op, key, bytes, nic, miss); },
          azure::RetryPolicy::open_loop(static_cast<std::uint64_t>(sess.id)));
      if (miss) {
        ms.miss += 1;
      } else {
        ms.count += 1;
        ms.bytes += moved;
        ms.latency.record(s.now() - t0);
      }
    } catch (const cluster::ServerBusyError&) {
      // The Azure partition and account targets and the S3 per-prefix 503
      // SlowDown (a ServerBusyError subclass) alike, once retries run out.
      ms.err += 1;
      throw;  // the engine books the throttle failure
    } catch (const cluster::StorageError&) {
      ms.err += 1;  // conflict, precondition, cap, corruption, ...
    } catch (const faults::FaultError&) {
      ms.err += 1;  // injected drop timed out
    }
  }

  sim::Task<void> setup(framework::LoadEngine& engine) {
    using S = framework::ScenarioMixEntry::Service;
    netsim::Nic& nic = *nics[0];
    const std::int64_t pop = sc.populate_count();
    sim::Random sizes(framework::scenario_derive_seed(sc.seed, 0x5E7F));

    if (use[static_cast<int>(S::kBlob)]) {
      co_await backend->prepare_objects(nic);
      for (std::int64_t k = 0; k < pop; ++k) {
        const std::string name = blob_name(static_cast<std::uint64_t>(k));
        const std::int64_t b = pick_bytes(sizes);
        co_await azure::with_retry(
            s, [&]() { return backend->object_write(nic, name, b); },
            kPopulateRetry);
      }
    }
    if (use[static_cast<int>(S::kQueue)]) {
      const std::int64_t seed_msgs = std::min(pop, kQueueSeedCap);
      for (int f = 0; f < sc.queue_fanout; ++f) {
        const std::string q = tagged('q', static_cast<std::uint64_t>(f));
        co_await stamp->prepare_queue(nic, q);
        for (std::int64_t m = 0; m < seed_msgs; ++m) {
          const std::int64_t b = pick_bytes(sizes);
          co_await azure::with_retry(
              s, [&]() { return stamp->queue_put(nic, q, b); },
              kPopulateRetry);
        }
      }
    }
    if (use[static_cast<int>(S::kTable)]) {
      co_await stamp->prepare_table(nic);
      for (std::int64_t k = 0; k < pop; ++k) {
        const std::uint64_t kk = static_cast<std::uint64_t>(k);
        const std::string part = partition_of(kk);
        const std::string row = row_of(kk);
        const std::int64_t b = pick_bytes(sizes);
        co_await azure::with_retry(
            s, [&]() { return stamp->table_insert(nic, part, row, b); },
            kPopulateRetry);
      }
    }
    if (use[static_cast<int>(S::kSql)]) {
      co_await stamp->prepare_sql(nic);
      for (std::int64_t k = 0; k < pop; ++k) {
        const std::int64_t b = pick_bytes(sizes);
        co_await azure::with_retry(
            s,
            [&]() {
              return stamp->sql_write(nic, static_cast<std::uint64_t>(k), b);
            },
            kPopulateRetry);
      }
    }
    // Arrivals start on the post-setup clock (the engine walks forward
    // from sim.now()), so the load phase always begins on a warm store.
    engine.start();
  }
};

}  // namespace detail

inline ScenarioRunResult run_generic_scenario(const framework::Scenario& sc,
                                              obs::Observer* observer) {
  detail::Driver d(sc);
  if (observer != nullptr) d.s.set_observer(observer);

  framework::LoadEngineConfig ecfg;
  ecfg.arrivals = sc.arrivals;
  ecfg.max_sessions = sc.operations;
  ecfg.max_in_flight = sc.max_in_flight;
  ecfg.max_pending = sc.max_pending;
  ecfg.session_seed = framework::scenario_derive_seed(sc.seed, 0x5E55);
  framework::LoadEngine engine(
      d.s, ecfg,
      [&d](framework::LoadEngine::Session& sess) { return d.session(sess); });

  d.s.spawn(d.setup(engine));
  d.s.run();

  ScenarioRunResult r;
  r.stats = engine.stats();
  r.per_entry = std::move(d.stat);
  r.duration_s = sim::to_seconds(r.stats.last_completion);
  r.ops_per_sec = r.duration_s > 0
                      ? static_cast<double>(r.stats.completed) / r.duration_s
                      : 0;
  r.simulated_events = d.s.events_executed();
  return r;
}

/// Per-mix-entry outcome table (plus a totals row).
inline benchutil::Table mix_table(const framework::Scenario& sc,
                                  const ScenarioRunResult& r) {
  benchutil::Table t({"service", "op", "weight", "count", "err", "miss",
                      "MiB", "p50_ms", "p95_ms", "p99_ms", "max_ms"});
  MixStat total;
  for (std::size_t i = 0; i < sc.mix.size(); ++i) {
    const framework::ScenarioMixEntry& e = sc.mix[i];
    const MixStat& ms = r.per_entry[i];
    t.add_row({framework::service_name(e.service), e.op,
               benchutil::fmt(e.weight, 1), std::to_string(ms.count),
               std::to_string(ms.err), std::to_string(ms.miss),
               benchutil::fmt(static_cast<double>(ms.bytes) / (1024.0 * 1024.0),
                              2),
               benchutil::fmt(sim::to_millis(ms.latency.quantile(0.50)), 3),
               benchutil::fmt(sim::to_millis(ms.latency.quantile(0.95)), 3),
               benchutil::fmt(sim::to_millis(ms.latency.quantile(0.99)), 3),
               benchutil::fmt(sim::to_millis(ms.latency.max()), 3)});
    total.count += ms.count;
    total.err += ms.err;
    total.miss += ms.miss;
    total.bytes += ms.bytes;
  }
  t.add_row({"total", "-", "-", std::to_string(total.count),
             std::to_string(total.err), std::to_string(total.miss),
             benchutil::fmt(static_cast<double>(total.bytes) /
                                (1024.0 * 1024.0),
                            2),
             "-", "-", "-", "-"});
  return t;
}

/// Engine-level accounting (the open-loop invariants line).
inline benchutil::Table load_table(const ScenarioRunResult& r) {
  const framework::LoadStats& st = r.stats;
  benchutil::Table t({"offered", "completed", "shed", "dead", "throttle",
                      "peak_if", "duration_s", "ops_per_s"});
  t.add_row({std::to_string(st.offered), std::to_string(st.completed),
             std::to_string(st.shed), std::to_string(st.dead_lettered),
             std::to_string(st.throttle_failures),
             std::to_string(st.peak_in_flight),
             benchutil::fmt(r.duration_s, 3),
             benchutil::fmt(r.ops_per_sec, 1)});
  return t;
}

/// The canonical byte-comparable report: scenario name, backend, and both
/// tables as CSV. --selfcheck and the replay tests diff exactly this
/// string.
inline std::string canonical_report(const framework::Scenario& sc,
                                    const ScenarioRunResult& r) {
  std::string out = "scenario," + sc.name + "\n";
  out += std::string("backend,") + framework::backend_name(sc.backend) + "\n";
  out += mix_table(sc, r).csv_string();
  out += "\n";
  out += load_table(r).csv_string();
  return out;
}

}  // namespace benchscn
