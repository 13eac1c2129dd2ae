#include "core/sharded_world.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include "azure/cloud_storage_account.hpp"
#include "azure/common/payload.hpp"
#include "azure/common/retry.hpp"
#include "azure/environment.hpp"
#include "fabric/vm_size.hpp"
#include "netsim/domain_link.hpp"
#include "netsim/nic.hpp"
#include "obs/observer.hpp"
#include "simcore/parallel.hpp"
#include "simcore/random.hpp"
#include "simcore/task.hpp"

namespace azurebench {
namespace {

/// Everything one domain owns: a complete simulated deployment plus the
/// client endpoint driving it. Constructed on the setup thread before run();
/// referenced only by code executing inside its domain afterwards.
struct Shard {
  sim::Simulation* sim = nullptr;
  std::unique_ptr<obs::Observer> observer;
  std::unique_ptr<azure::CloudEnvironment> env;
  std::unique_ptr<netsim::Nic> nic;
  std::unique_ptr<azure::CloudStorageAccount> account;
};

/// What a served cross-shard operation reports back to its caller. Returned
/// through the RPC result instead of written into shared state, so every
/// ShardedWorkerStats entry keeps exactly one writer (its home worker).
struct RemoteResult {
  std::int64_t retries = 0;
};

struct World {
  ShardedCloudConfig cfg;
  sim::par::ShardedSimulation* shards = nullptr;
  std::vector<Shard> shard;
  /// Ring links: fwd[d] is d -> (d+1)%D, rev[d] the matching reverse
  /// direction — the request/response pair worker remote ops ride on.
  std::vector<std::unique_ptr<netsim::DomainLink>> fwd;
  std::vector<std::unique_ptr<netsim::DomainLink>> rev;
  std::vector<ShardedWorkerStats> stats;
  /// Open-loop mode: one generator engine per domain (empty otherwise).
  std::vector<std::unique_ptr<framework::LoadEngine>> engines;
};

azure::RetryPolicy worker_policy(std::uint64_t jitter_seed) {
  azure::RetryPolicy p;
  p.backoff = sim::millis(250);
  p.max_backoff = sim::seconds(2);
  p.jitter_seed = jitter_seed;
  return p;
}

// ---------------------------------------------------------- remote ops ----

/// Served inside shard `dst`: lands the caller's payload in the destination
/// shard's shared inbox (queue mode). Retries are the destination cluster's
/// business, so they happen here and travel home in the result.
sim::Task<RemoteResult> remote_queue_put(World* w, int dst, int caller_id,
                                         std::int64_t bytes) {
  Shard& sh = w->shard[static_cast<std::size_t>(dst)];
  RemoteResult r;
  const azure::RetryPolicy policy =
      worker_policy(0x5EED0000u + static_cast<std::uint64_t>(caller_id));
  auto q = sh.account->create_cloud_queue_client().get_queue_reference(
      "inbox-" + std::to_string(dst));
  co_await azure::with_retry(
      *sh.sim, [&] { return q.create_if_not_exists(); }, policy, &r.retries);
  co_await azure::with_retry(
      *sh.sim, [&] { return q.add_message(azure::Payload::synthetic(bytes)); },
      policy, &r.retries);
  co_return r;
}

/// Table-mode twin: upserts one entity into the destination shard's inbox
/// table, keyed so concurrent callers never collide.
sim::Task<RemoteResult> remote_table_put(World* w, int dst, int caller_id,
                                         int op, std::int64_t bytes) {
  Shard& sh = w->shard[static_cast<std::size_t>(dst)];
  RemoteResult r;
  const azure::RetryPolicy policy =
      worker_policy(0x5EED0000u + static_cast<std::uint64_t>(caller_id));
  auto tbl = sh.account->create_cloud_table_client().get_table_reference(
      "inbox-t-" + std::to_string(dst));
  co_await azure::with_retry(
      *sh.sim, [&] { return tbl.create_if_not_exists(); }, policy, &r.retries);
  azure::TableEntity e;
  e.partition_key = "w";
  e.partition_key += std::to_string(caller_id);
  e.row_key = std::to_string(op);
  e.properties.emplace("data", azure::Payload::synthetic(bytes));
  // The retry wrapper re-invokes the factory on every attempt — the entity
  // must be copied in, not moved, or attempt 2 submits empty keys.
  co_await azure::with_retry(
      *sh.sim, [&] { return tbl.insert_or_replace(e); }, policy, &r.retries);
  co_return r;
}

// ------------------------------------------------------------- workers ----

bool is_remote_turn(const World& w, int op) {
  return w.cfg.remote_every > 0 && w.cfg.domains > 1 &&
         (op % w.cfg.remote_every) == w.cfg.remote_every - 1;
}

/// Fig6-shaped worker: fills then drains a private queue on its home shard,
/// diverting every remote_every-th put across the inter-domain link.
sim::Task<void> queue_worker(World& w, int home, int id,
                             ShardedWorkerStats& st) {
  Shard& sh = w.shard[static_cast<std::size_t>(home)];
  sim::Random rng(w.cfg.seed * 7919 +
                  static_cast<std::uint64_t>(id));
  const azure::RetryPolicy policy =
      worker_policy(static_cast<std::uint64_t>(id));
  auto q = sh.account->create_cloud_queue_client().get_queue_reference(
      "q-" + std::to_string(id));
  co_await azure::with_retry(
      *sh.sim, [&] { return q.create_if_not_exists(); }, policy, &st.retries);
  for (int k = 0; k < w.cfg.ops_per_worker; ++k) {
    if (is_remote_turn(w, k)) {
      const int dst = (home + 1) % w.cfg.domains;
      RemoteResult r = co_await netsim::remote_call<RemoteResult>(
          *w.fwd[static_cast<std::size_t>(home)],
          *w.rev[static_cast<std::size_t>(home)], w.cfg.message_bytes, 64,
          [wp = &w, dst, id, bytes = w.cfg.message_bytes] {
            return remote_queue_put(wp, dst, id, bytes);
          });
      ++st.remote_ops;
      ++st.puts;
      st.retries += r.retries;
    } else {
      co_await azure::with_retry(
          *sh.sim,
          [&] {
            return q.add_message(
                azure::Payload::synthetic(w.cfg.message_bytes));
          },
          policy, &st.retries);
      ++st.puts;
    }
    co_await sh.sim->delay(sim::millis(rng.uniform(20, 60)));
  }
  const std::int64_t local_puts = st.puts - st.remote_ops;
  while (st.deletes < local_puts) {
    auto msg = co_await azure::with_retry(
        *sh.sim, [&] { return q.get_message(); }, policy, &st.retries);
    ++st.gets;
    if (msg) {
      co_await azure::with_retry(
          *sh.sim, [&] { return q.delete_message(*msg); }, policy,
          &st.retries);
      ++st.deletes;
    }
    co_await sh.sim->delay(sim::millis(rng.uniform(20, 60)));
  }
}

/// Fig8-shaped worker: inserts then queries back entities in a private
/// table partition, with the same remote diversion as queue mode.
sim::Task<void> table_worker(World& w, int home, int id,
                             ShardedWorkerStats& st) {
  Shard& sh = w.shard[static_cast<std::size_t>(home)];
  sim::Random rng(w.cfg.seed * 7919 +
                  static_cast<std::uint64_t>(id));
  const azure::RetryPolicy policy =
      worker_policy(static_cast<std::uint64_t>(id));
  auto tbl = sh.account->create_cloud_table_client().get_table_reference(
      "t-" + std::to_string(id));
  co_await azure::with_retry(
      *sh.sim, [&] { return tbl.create_if_not_exists(); }, policy,
      &st.retries);
  std::vector<int> local_rows;
  for (int k = 0; k < w.cfg.ops_per_worker; ++k) {
    if (is_remote_turn(w, k)) {
      const int dst = (home + 1) % w.cfg.domains;
      RemoteResult r = co_await netsim::remote_call<RemoteResult>(
          *w.fwd[static_cast<std::size_t>(home)],
          *w.rev[static_cast<std::size_t>(home)], w.cfg.message_bytes, 64,
          [wp = &w, dst, id, k, bytes = w.cfg.message_bytes] {
            return remote_table_put(wp, dst, id, k, bytes);
          });
      ++st.remote_ops;
      ++st.puts;
      st.retries += r.retries;
    } else {
      azure::TableEntity e;
      e.partition_key = "p" + std::to_string(id);
      e.row_key = std::to_string(k);
      e.properties.emplace("data",
                           azure::Payload::synthetic(w.cfg.message_bytes));
      co_await azure::with_retry(
          *sh.sim, [&] { return tbl.insert(e); }, policy, &st.retries);
      ++st.puts;
      local_rows.push_back(k);
    }
    co_await sh.sim->delay(sim::millis(rng.uniform(20, 60)));
  }
  for (const int k : local_rows) {
    co_await azure::with_retry(
        *sh.sim,
        [&] {
          std::string pk = "p";
          pk += std::to_string(id);
          return tbl.query(pk, std::to_string(k));
        },
        policy, &st.retries);
    ++st.gets;
    co_await sh.sim->delay(sim::millis(rng.uniform(20, 60)));
  }
}

// ------------------------------------------------------ open-loop load ----

/// One open-loop session: a single storage op on the session's home shard,
/// with every remote_every-th session (by arrival id, so the diversion is a
/// pure function of the id) riding the inter-domain ring instead. Retries
/// are bounded — a session that cannot land its op within the attempt
/// budget dead-letters at the engine, which is exactly the accounting the
/// chaos suite pins (completed + dead_lettered == admitted).
azure::RetryPolicy session_policy(int home, std::int64_t id) {
  azure::RetryPolicy p = worker_policy(
      (static_cast<std::uint64_t>(home) << 32) ^
      static_cast<std::uint64_t>(id));
  p.max_attempts = 4;
  return p;
}

bool is_remote_session(const World& w, std::int64_t id) {
  return w.cfg.remote_every > 0 && w.cfg.domains > 1 &&
         (id % w.cfg.remote_every) == w.cfg.remote_every - 1;
}

sim::Task<void> open_loop_session(World& w, int home,
                                  framework::LoadEngine::Session& s,
                                  ShardedWorkerStats& st) {
  Shard& sh = w.shard[static_cast<std::size_t>(home)];
  const azure::RetryPolicy policy = session_policy(home, s.id);
  if (is_remote_session(w, s.id)) {
    const int dst = (home + 1) % w.cfg.domains;
    RemoteResult r =
        w.cfg.mode == ShardedCloudConfig::Mode::kQueue
            ? co_await netsim::remote_call<RemoteResult>(
                  *w.fwd[static_cast<std::size_t>(home)],
                  *w.rev[static_cast<std::size_t>(home)],
                  w.cfg.message_bytes, 64,
                  [wp = &w, dst, home, bytes = w.cfg.message_bytes] {
                    return remote_queue_put(wp, dst, home, bytes);
                  })
            : co_await netsim::remote_call<RemoteResult>(
                  *w.fwd[static_cast<std::size_t>(home)],
                  *w.rev[static_cast<std::size_t>(home)],
                  w.cfg.message_bytes, 64,
                  [wp = &w, dst, home, op = static_cast<int>(s.id),
                   bytes = w.cfg.message_bytes] {
                    return remote_table_put(wp, dst, home, op, bytes);
                  });
    ++st.remote_ops;
    ++st.puts;
    st.retries += r.retries;
  } else if (w.cfg.mode == ShardedCloudConfig::Mode::kQueue) {
    auto q = sh.account->create_cloud_queue_client().get_queue_reference(
        "open-inbox-" + std::to_string(home));
    co_await azure::with_retry(
        *sh.sim, [&] { return q.create_if_not_exists(); }, policy,
        &st.retries);
    co_await azure::with_retry(
        *sh.sim,
        [&] {
          return q.add_message(azure::Payload::synthetic(w.cfg.message_bytes));
        },
        policy, &st.retries);
    ++st.puts;
  } else {
    auto tbl = sh.account->create_cloud_table_client().get_table_reference(
        "open-inbox-t-" + std::to_string(home));
    co_await azure::with_retry(
        *sh.sim, [&] { return tbl.create_if_not_exists(); }, policy,
        &st.retries);
    azure::TableEntity e;
    e.partition_key = "s" + std::to_string(home);
    e.row_key = std::to_string(s.id);
    e.properties.emplace("data",
                         azure::Payload::synthetic(w.cfg.message_bytes));
    co_await azure::with_retry(
        *sh.sim, [&] { return tbl.insert_or_replace(e); }, policy,
        &st.retries);
    ++st.puts;
  }
  // A dash of per-session think time (pure function of the session id's
  // stream) so sessions overlap rather than lockstep on identical costs.
  co_await sh.sim->delay(sim::micros(s.rng.uniform(50, 150)));
}

/// Builds domain `d`'s engine: per-domain Poisson arrivals (seed mixed with
/// the domain id, so every shard offers an independent but reproducible
/// stream) feeding open_loop_session bodies.
std::unique_ptr<framework::LoadEngine> make_domain_engine(
    World& w, int d, ShardedWorkerStats& st) {
  framework::LoadEngineConfig ecfg;
  ecfg.arrivals.kind = framework::ArrivalConfig::Kind::kPoisson;
  ecfg.arrivals.rate_per_sec = w.cfg.arrivals_per_sec;
  ecfg.arrivals.seed =
      w.cfg.seed ^ (0x0A9Eull + static_cast<std::uint64_t>(d) * 0x9E37ull);
  ecfg.max_sessions = w.cfg.sessions_per_domain;
  ecfg.max_in_flight = w.cfg.session_window;
  ecfg.max_pending = w.cfg.session_pending;
  ecfg.session_seed =
      w.cfg.seed ^ (0x5E55ull + static_cast<std::uint64_t>(d));
  return std::make_unique<framework::LoadEngine>(
      *w.shard[static_cast<std::size_t>(d)].sim, ecfg,
      [wp = &w, d, stp = &st](framework::LoadEngine::Session& s) {
        return open_loop_session(*wp, d, s, *stp);
      });
}

// ---------------------------------------------------- chaos controller ----

/// Runs in domain 0 and drives the fleet-wide crash schedule: victims are
/// picked from a dedicated seeded stream and the crash/restart commands
/// travel to the victim shard as cross-domain events (post() keeps the
/// delivery order deterministic even when the victim is domain 0 itself).
/// Injections are serialized — the next crash is decided only after the
/// previous victim's restart has landed — preserving the sequential fault
/// driver's "at most one server down at a time" property fleet-wide.
sim::Task<void> chaos_controller(World& w) {
  sim::Simulation& d0 = *w.shard[0].sim;
  sim::Random rng(w.cfg.seed ^ 0xC8A05ull);
  const int per_shard_servers = w.cfg.total_servers / w.cfg.domains;
  const sim::Duration lookahead = w.shards->lookahead();
  for (int c = 0; c < w.cfg.total_crashes; ++c) {
    sim::Duration gap = static_cast<sim::Duration>(
        rng.exponential(static_cast<double>(w.cfg.crash_mean_interval)));
    if (gap <= 0) gap = sim::kNanosecond;
    co_await d0.delay(gap);
    const int victim_domain = static_cast<int>(
        rng.next_u64() % static_cast<std::uint64_t>(w.cfg.domains));
    const int victim_server = static_cast<int>(
        rng.next_u64() % static_cast<std::uint64_t>(per_shard_servers));
    const sim::TimePoint at = d0.now() + lookahead;
    auto* cluster =
        &w.shard[static_cast<std::size_t>(victim_domain)]
             .env->storage_cluster();
    w.shards->post(0, victim_domain, at,
                   [cluster, victim_server] {
                     cluster->crash_server(victim_server);
                   });
    w.shards->post(0, victim_domain, at + w.cfg.server_downtime,
                   [cluster, victim_server] {
                     cluster->restart_server(victim_server);
                   });
    // Wait out the victim's downtime before scheduling the next injection.
    co_await d0.delay(lookahead + w.cfg.server_downtime);
  }
}

// ------------------------------------------------------------- outputs ----

void append_row(std::string& out, int shard, const ShardedWorkerStats& s,
                std::int64_t faults, sim::TimePoint now) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%5d %8lld %8lld %8lld %8lld %8lld %7lld %12lld\n", shard,
                static_cast<long long>(s.puts),
                static_cast<long long>(s.gets),
                static_cast<long long>(s.deletes),
                static_cast<long long>(s.retries),
                static_cast<long long>(s.remote_ops),
                static_cast<long long>(faults),
                static_cast<long long>(now / 1000));
  out += buf;
}

std::string render_figure_table(const World& w,
                                const ShardedCloudResult& r) {
  std::string out;
  const char* mode_name =
      w.cfg.mode == ShardedCloudConfig::Mode::kQueue
          ? (w.cfg.open_loop ? "queue-open" : "queue")
          : (w.cfg.open_loop ? "table-open" : "table");
  char head[200];
  if (w.cfg.open_loop) {
    std::snprintf(head, sizeof(head),
                  "sharded-cloud mode=%s domains=%d servers=%d "
                  "sessions=%lld rate=%.1f window=%d bytes=%lld seed=%llu "
                  "chaos=%d\n",
                  mode_name, w.cfg.domains, w.cfg.total_servers,
                  static_cast<long long>(w.cfg.sessions_per_domain),
                  w.cfg.arrivals_per_sec, w.cfg.session_window,
                  static_cast<long long>(w.cfg.message_bytes),
                  static_cast<unsigned long long>(w.cfg.seed),
                  w.cfg.chaos ? 1 : 0);
  } else {
    std::snprintf(head, sizeof(head),
                  "sharded-cloud mode=%s domains=%d servers=%d workers=%d "
                  "ops=%lld bytes=%lld seed=%llu chaos=%d\n",
                  mode_name, w.cfg.domains, w.cfg.total_servers,
                  w.cfg.total_workers,
                  static_cast<long long>(w.cfg.ops_per_worker),
                  static_cast<long long>(w.cfg.message_bytes),
                  static_cast<unsigned long long>(w.cfg.seed),
                  w.cfg.chaos ? 1 : 0);
  }
  out += head;
  out += "shard     puts     gets     dels  retries   remote  faults"
         "      now_us\n";
  const int workers_per_domain =
      w.cfg.open_loop ? 1 : w.cfg.total_workers / w.cfg.domains;
  ShardedWorkerStats total;
  std::int64_t total_faults = 0;
  for (int d = 0; d < w.cfg.domains; ++d) {
    ShardedWorkerStats agg;
    for (int i = 0; i < workers_per_domain; ++i) {
      const ShardedWorkerStats& s =
          r.workers[static_cast<std::size_t>(d * workers_per_domain + i)];
      agg.puts += s.puts;
      agg.gets += s.gets;
      agg.deletes += s.deletes;
      agg.remote_ops += s.remote_ops;
      agg.retries += s.retries;
    }
    const auto faults = static_cast<std::int64_t>(
        w.shard[static_cast<std::size_t>(d)].env->fault_plan().log().size());
    append_row(out, d, agg, faults,
               w.shards->domain(d).now());
    total.puts += agg.puts;
    total.gets += agg.gets;
    total.deletes += agg.deletes;
    total.remote_ops += agg.remote_ops;
    total.retries += agg.retries;
    total_faults += faults;
  }
  append_row(out, -1, total, total_faults, r.final_time);
  // Open-loop mode: one admission/outcome line per domain engine — part of
  // the byte-parity artifact, so the whole load ledger is thread-count
  // invariant, not just the op counts.
  for (std::size_t d = 0; d < r.load.size(); ++d) {
    const framework::LoadStats& ls = r.load[d];
    char lbuf[200];
    std::snprintf(lbuf, sizeof(lbuf),
                  "load %4zu offered=%lld admitted=%lld shed=%lld "
                  "completed=%lld dlq=%lld busy=%lld peak_if=%lld "
                  "peak_pend=%lld\n",
                  d, static_cast<long long>(ls.offered),
                  static_cast<long long>(ls.admitted),
                  static_cast<long long>(ls.shed),
                  static_cast<long long>(ls.completed),
                  static_cast<long long>(ls.dead_lettered),
                  static_cast<long long>(ls.throttle_failures),
                  static_cast<long long>(ls.peak_in_flight),
                  static_cast<long long>(ls.peak_pending));
    out += lbuf;
  }
  char tail[120];
  std::snprintf(tail, sizeof(tail),
                "cross=%llu lookahead_us=%lld events=%llu\n",
                static_cast<unsigned long long>(r.cross_events),
                static_cast<long long>(w.shards->lookahead() / 1000),
                static_cast<unsigned long long>(r.events_executed));
  out += tail;
  return out;
}

}  // namespace

ShardedCloudResult run_sharded_cloud(const ShardedCloudConfig& cfg) {
  if (cfg.domains < 1) {
    throw std::invalid_argument("sharded cloud needs >= 1 domain");
  }
  if (cfg.total_servers % cfg.domains != 0 ||
      cfg.total_workers % cfg.domains != 0) {
    throw std::invalid_argument(
        "total_servers and total_workers must divide evenly across domains");
  }
  if (cfg.ops_per_worker < 0 || cfg.message_bytes < 0 ||
      cfg.remote_every < 0) {
    throw std::invalid_argument("sharded cloud config out of range");
  }
  if (cfg.open_loop &&
      (cfg.arrivals_per_sec <= 0.0 || cfg.sessions_per_domain < 1 ||
       cfg.session_window < 1 || cfg.session_pending < 0)) {
    throw std::invalid_argument("open-loop load config out of range");
  }

  World w;
  w.cfg = cfg;
  sim::par::Options opt;
  opt.domains = cfg.domains;
  opt.threads = cfg.threads;
  opt.lookahead = cfg.inter_domain_latency;
  sim::par::ShardedSimulation shards(opt);
  w.shards = &shards;

  // Per-shard deployments. Fault seeds fork from one master stream at setup
  // time, so every shard's injected sequence is a pure function of
  // (cfg.seed, domain id) — independent of thread count.
  sim::Random fault_seeder(cfg.seed ^ 0xFA11ull);
  const int per_shard_servers = cfg.total_servers / cfg.domains;
  w.shard.resize(static_cast<std::size_t>(cfg.domains));
  for (int d = 0; d < cfg.domains; ++d) {
    Shard& sh = w.shard[static_cast<std::size_t>(d)];
    sh.sim = &shards.domain(d);
    if (cfg.observe) {
      sh.observer = std::make_unique<obs::Observer>();
      sh.sim->set_observer(sh.observer.get());
    }
    azure::CloudConfig cc;
    cc.cluster.partition_servers = per_shard_servers;
    cc.faults.seed = fault_seeder.next_u64();
    if (cfg.chaos) {
      cc.faults.drop_probability = cfg.drop_probability;
      cc.faults.duplicate_probability = cfg.duplicate_probability;
      cc.faults.latency_spike_probability = cfg.latency_spike_probability;
      cc.faults.drop_timeout = sim::millis(300);
      cc.cluster.balancer.enabled = true;
      cc.cluster.balancer.seed = cfg.seed ^ (0xBA1Aull + d);
    }
    sh.env = std::make_unique<azure::CloudEnvironment>(*sh.sim, cc);
    // A generously-provisioned client VM endpoint per shard, so the
    // scenario measures service behaviour rather than client NIC occupancy
    // (mirrors the sequential benchmarks' client setup).
    sh.nic = std::make_unique<netsim::Nic>(
        *sh.sim, fabric::nic_config_of(fabric::VmSize::kExtraLarge));
    sh.account =
        std::make_unique<azure::CloudStorageAccount>(*sh.env, *sh.nic);
  }

  // The inter-domain ring (only meaningful with > 1 shard).
  if (cfg.domains > 1) {
    netsim::DomainLink::Config link;
    link.latency = cfg.inter_domain_latency;
    for (int d = 0; d < cfg.domains; ++d) {
      const int next = (d + 1) % cfg.domains;
      w.fwd.push_back(
          std::make_unique<netsim::DomainLink>(shards, d, next, link));
      w.rev.push_back(
          std::make_unique<netsim::DomainLink>(shards, next, d, link));
    }
  }

  if (cfg.open_loop) {
    // Open-loop mode: one generator engine per domain replaces the worker
    // fleet; stats holds a single aggregate entry per domain (every session
    // on a shard funnels into its domain's entry, and all of them run on
    // that shard's single-threaded simulation, so one writer per entry).
    w.stats.resize(static_cast<std::size_t>(cfg.domains));
    w.engines.reserve(static_cast<std::size_t>(cfg.domains));
    for (int d = 0; d < cfg.domains; ++d) {
      w.engines.push_back(make_domain_engine(
          w, d, w.stats[static_cast<std::size_t>(d)]));
      w.engines.back()->start();
    }
  } else {
    // Workers: contiguous blocks of global ids per shard, spawned in global
    // id order so each domain's setup event sequence is fixed.
    const int workers_per_domain = cfg.total_workers / cfg.domains;
    w.stats.resize(static_cast<std::size_t>(cfg.total_workers));
    for (int i = 0; i < cfg.total_workers; ++i) {
      const int home = i / workers_per_domain;
      Shard& sh = w.shard[static_cast<std::size_t>(home)];
      ShardedWorkerStats& st = w.stats[static_cast<std::size_t>(i)];
      if (cfg.mode == ShardedCloudConfig::Mode::kQueue) {
        sh.sim->spawn(queue_worker(w, home, i, st));
      } else {
        sh.sim->spawn(table_worker(w, home, i, st));
      }
    }
  }
  if (cfg.chaos && cfg.total_crashes > 0) {
    w.shard[0].sim->spawn(chaos_controller(w));
  }

  const auto wall_start = std::chrono::steady_clock::now();
  shards.run();
  const auto wall_end = std::chrono::steady_clock::now();

  ShardedCloudResult r;
  r.events_executed = shards.events_executed();
  r.cross_events = shards.cross_events_delivered();
  r.final_time = shards.max_now();
  r.workers = std::move(w.stats);
  for (const auto& eng : w.engines) r.load.push_back(eng->stats());
  r.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();

  // Merged fleet fault log: each shard's log is already time-ordered, so a
  // stable sort on (at, domain) yields the canonical (at, domain, index)
  // order.
  for (int d = 0; d < cfg.domains; ++d) {
    for (const faults::FaultRecord& rec :
         w.shard[static_cast<std::size_t>(d)].env->fault_plan().log()) {
      r.fault_log.emplace_back(d, rec);
    }
  }
  std::stable_sort(r.fault_log.begin(), r.fault_log.end(),
                   [](const auto& a, const auto& b) {
                     if (a.second.at != b.second.at) {
                       return a.second.at < b.second.at;
                     }
                     return a.first < b.first;
                   });

  if (cfg.observe) {
    std::vector<const obs::Observer*> obs_ptrs;
    obs_ptrs.reserve(w.shard.size());
    for (const Shard& sh : w.shard) obs_ptrs.push_back(sh.observer.get());
    r.obs_json = obs::merged_to_json(obs_ptrs);
  }
  r.figure_table = render_figure_table(w, r);
  return r;
}

}  // namespace azurebench
