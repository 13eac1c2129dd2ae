#include "core/blob_benchmark.hpp"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "azure/cloud_storage_account.hpp"
#include "azure/common/retry.hpp"
#include "core/barrier.hpp"
#include "fabric/deployment.hpp"
#include "simcore/random.hpp"
#include "simcore/simulation.hpp"

namespace azurebench {
namespace {

constexpr const char* kContainer = "azurebench";
constexpr const char* kPageBlob = "AzureBenchPageBlob";
constexpr const char* kBlockBlob = "AzureBenchBlockBlob";

/// The figure workloads reproduce the paper's client behaviour exactly:
/// fixed 1 s sleep on ServerBusy (RetryPolicy::paper()).
template <class MakeOp>
auto paper_retry(sim::Simulation& sim, MakeOp make_op) {
  return azure::with_retry(sim, std::move(make_op),
                           azure::RetryPolicy::paper());
}

std::string block_id(int i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "blk-%06d", i);
  return buf;
}

/// Everything the workers share during one benchmark run.
struct Shared {
  const BlobBenchConfig& cfg;
  PhaseCollector collector;
  sim::Duration barrier_time = 0;
};

sim::Task<void> worker_body(fabric::RoleContext& ctx, Shared& shared) {
  const BlobBenchConfig& cfg = shared.cfg;
  auto& sim = ctx.simulation();
  auto account = ctx.account();
  auto container =
      account.create_cloud_blob_client().get_container_reference(kContainer);
  QueueBarrier barrier(account, "azurebench-sync", cfg.workers);
  sim::Random rng(cfg.seed + 1000 + static_cast<std::uint64_t>(ctx.id()));

  auto sync = [&]() -> sim::Task<void> {
    const sim::TimePoint t0 = sim.now();
    co_await barrier.arrive();
    shared.barrier_time += sim.now() - t0;
  };

  // Provisioning is idempotent; every worker does it so that no worker
  // races ahead of the barrier queue's creation.
  co_await barrier.provision();
  if (ctx.id() == 0) {
    co_await container.create_if_not_exists();
  }
  co_await sync();  // everyone waits for provisioning

  for (int repeat = 0; repeat < cfg.repeats; ++repeat) {
    auto page_blob = container.get_page_blob_reference(kPageBlob);
    auto block_blob = container.get_block_blob_reference(kBlockBlob);
    const std::int64_t blob_bytes =
        static_cast<std::int64_t>(cfg.chunks) * cfg.chunk_bytes;

    if (ctx.id() == 0) {
      co_await paper_retry(sim,
                                 [&] { return page_blob.create(blob_bytes); });
    }
    co_await sync();

    // --------------------------------------------------- page blob upload --
    // Worker i uploads chunks i, i+W, i+2W, ... (count/workers chunks each).
    {
      const sim::TimePoint t0 = sim.now();
      for (int i = ctx.id(); i < cfg.chunks; i += cfg.workers) {
        const std::int64_t offset = static_cast<std::int64_t>(i) *
                                    cfg.chunk_bytes;
        co_await paper_retry(sim, [&] {
          return page_blob.put_page(offset,
                                    azure::Payload::synthetic(cfg.chunk_bytes));
        });
      }
      shared.collector.record("page-upload", repeat, t0, sim.now());
    }
    co_await sync();  // keep sub-phase starts aligned for clean timing

    // -------------------------------------------------- block blob upload --
    {
      const sim::TimePoint t0 = sim.now();
      for (int i = ctx.id(); i < cfg.chunks; i += cfg.workers) {
        co_await paper_retry(sim, [&] {
          return block_blob.put_block(
              block_id(i), azure::Payload::synthetic(cfg.chunk_bytes));
        });
      }
      shared.collector.record("block-upload", repeat * 2, t0, sim.now());
    }
    co_await sync();
    if (ctx.id() == 0) {
      // The paper's pseudocode has every worker call PutBlockList with its
      // own ids, which would discard the other workers' blocks under real
      // commit semantics; one worker committing the full list preserves the
      // benchmark's intent (the complete blob exists for the download
      // phases). The commit is accounted to the block-upload phase.
      std::vector<std::string> ids;
      ids.reserve(static_cast<std::size_t>(cfg.chunks));
      for (int i = 0; i < cfg.chunks; ++i) ids.push_back(block_id(i));
      const sim::TimePoint t0 = sim.now();
      co_await paper_retry(sim,
                                 [&] { return block_blob.put_block_list(ids); });
      shared.collector.record("block-upload", repeat * 2 + 1, t0, sim.now());
    }
    co_await sync();

    // ----------------------------------------- random page-wise download --
    // Each worker downloads `chunks` pages at random offsets.
    {
      const sim::TimePoint t0 = sim.now();
      for (int i = 0; i < cfg.chunks; ++i) {
        const std::int64_t page =
            rng.uniform(0, cfg.chunks - 1) * cfg.chunk_bytes;
        co_await paper_retry(sim, [&] {
          return page_blob.get_page(page, cfg.chunk_bytes, /*random=*/true);
        });
      }
      shared.collector.record("page-random-read", repeat, t0, sim.now());
    }
    co_await sync();  // keep sub-phase starts aligned for clean timing

    // ------------------------------------------ sequential block download --
    {
      const sim::TimePoint t0 = sim.now();
      for (int i = 0; i < cfg.chunks; ++i) {
        co_await paper_retry(sim, [&] { return block_blob.get_block(i); });
      }
      shared.collector.record("block-seq-read", repeat, t0, sim.now());
    }
    co_await sync();

    // -------------------------------------------------- full blob reads --
    {
      const sim::TimePoint t0 = sim.now();
      co_await paper_retry(sim, [&] { return page_blob.open_read(); });
      shared.collector.record("page-full-read", repeat, t0, sim.now());
    }
    co_await sync();  // keep sub-phase starts aligned for clean timing
    {
      const sim::TimePoint t0 = sim.now();
      co_await paper_retry(sim,
                                 [&] { return block_blob.download_text(); });
      shared.collector.record("block-full-read", repeat, t0, sim.now());
    }
    co_await sync();

    if (ctx.id() == 0) {
      co_await paper_retry(sim, [&] { return page_blob.delete_blob(); });
      co_await paper_retry(sim, [&] { return block_blob.delete_blob(); });
    }
    co_await sync();
  }
}

}  // namespace

BlobBenchResult run_blob_benchmark(const BlobBenchConfig& cfg) {
  sim::Simulation simulation;
  if (cfg.observer != nullptr) simulation.set_observer(cfg.observer);
  azure::CloudEnvironment env(simulation, cfg.cloud);
  fabric::Deployment deployment(env);
  deployment.add_worker_roles(cfg.workers, kWorkerVm);

  Shared shared{cfg, {}, 0};
  deployment.start_workers([&shared](fabric::RoleContext& ctx) {
    return worker_body(ctx, shared);
  });
  simulation.run();

  const std::int64_t blob_bytes =
      static_cast<std::int64_t>(cfg.chunks) * cfg.chunk_bytes;
  const std::int64_t uploads = blob_bytes * cfg.repeats;
  const std::int64_t chunk_reads = static_cast<std::int64_t>(cfg.workers) *
                                   cfg.chunks * cfg.chunk_bytes * cfg.repeats;
  const std::int64_t full_reads =
      static_cast<std::int64_t>(cfg.workers) * blob_bytes * cfg.repeats;
  const std::int64_t upload_ops =
      static_cast<std::int64_t>(cfg.chunks) * cfg.repeats;
  const std::int64_t chunk_ops = static_cast<std::int64_t>(cfg.workers) *
                                 cfg.chunks * cfg.repeats;
  const std::int64_t full_ops =
      static_cast<std::int64_t>(cfg.workers) * cfg.repeats;

  auto report = [&](const char* phase, std::int64_t bytes,
                    std::int64_t ops) {
    return PhaseReport{phase, sim::to_seconds(shared.collector.wall(phase)),
                       bytes, ops};
  };

  BlobBenchResult result;
  result.page_upload = report("page-upload", uploads, upload_ops);
  result.block_upload = report("block-upload", uploads, upload_ops);
  result.page_random_read = report("page-random-read", chunk_reads, chunk_ops);
  result.block_seq_read = report("block-seq-read", chunk_reads, chunk_ops);
  result.page_full_read = report("page-full-read", full_reads, full_ops);
  result.block_full_read = report("block-full-read", full_reads, full_ops);
  // Average synchronization overhead per worker (excluded from phases).
  result.barrier_seconds =
      sim::to_seconds(shared.barrier_time) / cfg.workers;
  result.simulated_events = simulation.events_executed();
  result.storage_transactions = env.storage_cluster().total_requests();
  result.virtual_seconds = sim::to_seconds(simulation.now());
  return result;
}

}  // namespace azurebench
