// Google-benchmark microbenchmarks of the DES kernel itself: host-side cost
// of event dispatch, coroutine processes, resources, and flow limiters.
// These bound how fast the figure benches can simulate the cloud.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <random>
#include <vector>

#include "simcore/rate_limiter.hpp"
#include "simcore/resource.hpp"
#include "simcore/simulation.hpp"
#include "simcore/sync.hpp"
#include "simcore/task.hpp"

#include "core/sharded_world.hpp"

namespace {

// Callback path: schedule_at runs each callable in a one-shot coroutine
// frame from the frame pool. No workload schedules callbacks; their events
// are all resumes (BM_ScheduleResume).
void BM_EventDispatch(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    for (int i = 0; i < events; ++i) {
      s.schedule_at(i, [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventDispatch)->Arg(1'000)->Arg(100'000);

// Raw coroutine-resume path, the one every workload event takes:
// schedule_resume stores the handle directly in the queue node, so this
// measures pure push/pop/resume with no frame allocated.
void BM_ScheduleResume(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    s.reserve(static_cast<std::size_t>(events));
    const auto h = std::noop_coroutine();
    for (int i = 0; i < events; ++i) s.schedule_resume(i, h);
    s.run();
    benchmark::DoNotOptimize(s.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_ScheduleResume)->Arg(1'000)->Arg(100'000);

// Queue stress: 10^6 pending events with random 40-bit timestamps, so each
// node is re-filed through many buckets of the radix queue and every re-file
// chases pool links far beyond the cache; each event is a callback, so its
// frame's allocation counts too. No workload has more than ~200 pending.
void BM_HeapStress(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  std::vector<sim::TimePoint> stamps(static_cast<std::size_t>(events));
  std::mt19937_64 rng(0xA2B3C4D5u);  // fixed seed: identical queue shapes
  for (auto& t : stamps) t = static_cast<sim::TimePoint>(rng() >> 24);
  for (auto _ : state) {
    sim::Simulation s;
    s.reserve(stamps.size());
    for (const auto t : stamps) s.schedule_at(t, [] {});
    s.run();
    benchmark::DoNotOptimize(s.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_HeapStress)->Arg(1'000'000)->Unit(benchmark::kMillisecond);

// Queue stress at the fig8 @96 (hostbench table96) shape: ~120 pending events,
// each process re-arming one delay per resume, of which `same_pct` percent
// land at the instant being executed (22 at table96). Arg 0 is the same
// shape with every push in the future.
sim::Task<void> rearm_loop(sim::Simulation& s, std::uint64_t x, int hops,
                           int same_pct) {
  for (int i = 0; i < hops; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t r = x >> 33;
    const sim::Duration d =
        static_cast<int>(r % 100) < same_pct
            ? 0
            : 1 + static_cast<sim::Duration>((r >> 8) % 20'000);
    co_await s.delay(d);
  }
}

void BM_HeapStressTableShape(benchmark::State& state) {
  constexpr int kPending = 120;
  constexpr int kHops = 2'000;
  const int same_pct = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    for (int p = 0; p < kPending; ++p) {
      s.spawn(rearm_loop(s, static_cast<std::uint64_t>(p) + 1, kHops,
                         same_pct));
    }
    s.run();
    benchmark::DoNotOptimize(s.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * kPending * (kHops + 1));
}
BENCHMARK(BM_HeapStressTableShape)
    ->Arg(0)
    ->Arg(22)
    ->Unit(benchmark::kMillisecond);

sim::Task<void> delay_loop(sim::Simulation& s, int n) {
  for (int i = 0; i < n; ++i) co_await s.delay(sim::millis(1));
}

void BM_CoroutineDelays(benchmark::State& state) {
  const int delays = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    s.spawn(delay_loop(s, delays));
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * delays);
}
BENCHMARK(BM_CoroutineDelays)->Arg(10'000);

sim::Task<void> contend(sim::Simulation& s, sim::Resource& r, int n) {
  for (int i = 0; i < n; ++i) {
    auto lease = co_await r.acquire();
    co_await s.delay(sim::micros(10));
  }
}

void BM_ResourceContention(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  constexpr int kOpsPerWorker = 100;
  for (auto _ : state) {
    sim::Simulation s;
    sim::Resource r(s, 4);
    for (int w = 0; w < workers; ++w) s.spawn(contend(s, r, kOpsPerWorker));
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * workers * kOpsPerWorker);
}
BENCHMARK(BM_ResourceContention)->Arg(8)->Arg(96);

sim::Task<void> flow(sim::FlowLimiter& l, int n) {
  for (int i = 0; i < n; ++i) co_await l.acquire(1024.0);
}

void BM_FlowLimiter(benchmark::State& state) {
  constexpr int kOps = 10'000;
  for (auto _ : state) {
    sim::Simulation s;
    sim::FlowLimiter limiter(s, 1e6);
    s.spawn(flow(limiter, kOps));
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * kOps);
}
BENCHMARK(BM_FlowLimiter);

sim::Task<void> wait_gate(sim::Gate& g) { co_await g.wait(); }

void BM_GateBroadcast(benchmark::State& state) {
  const int waiters = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    sim::Gate gate(s);
    for (int i = 0; i < waiters; ++i) s.spawn(wait_gate(gate));
    s.schedule_at(1, [&gate] { gate.set(); });
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * waiters);
}
BENCHMARK(BM_GateBroadcast)->Arg(1'000);

// ----------------------------------------------------- parallel kernel ----
// Wall-clock scaling of the sharded DES kernel on the paper's 64-server ×
// 96-worker scenario (chaos variant: link faults + fleet crash schedule).
// The decomposition is fixed at 8 domains for the thread sweep, so every
// configuration executes the byte-identical event sequence and only the
// worker-thread count varies; the domain sweep additionally measures the
// decomposition's own cost at threads == domains. UseRealTime because the
// work happens on kernel worker threads, not the benchmark thread.

azurebench::ShardedCloudConfig sharded_chaos_scenario() {
  azurebench::ShardedCloudConfig cfg;
  cfg.domains = 8;
  cfg.total_servers = 64;
  cfg.total_workers = 96;
  cfg.ops_per_worker = 20;
  cfg.chaos = true;
  return cfg;
}

void BM_ShardedCloudDomains(benchmark::State& state) {
  azurebench::ShardedCloudConfig cfg = sharded_chaos_scenario();
  cfg.domains = static_cast<int>(state.range(0));
  cfg.threads = cfg.domains;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto r = azurebench::run_sharded_cloud(cfg);
    events = r.events_executed;
    benchmark::DoNotOptimize(r.final_time);
  }
  state.counters["events"] = static_cast<double>(events);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ShardedCloudDomains)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ShardedCloudThreads(benchmark::State& state) {
  azurebench::ShardedCloudConfig cfg = sharded_chaos_scenario();
  cfg.threads = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto r = azurebench::run_sharded_cloud(cfg);
    events = r.events_executed;
    benchmark::DoNotOptimize(r.final_time);
  }
  state.counters["events"] = static_cast<double>(events);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ShardedCloudThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
