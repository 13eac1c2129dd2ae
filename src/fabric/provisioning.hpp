// Deployment provisioning model — the paper's future work explicitly lists
// "resource provisioning times and application deployment timings".
//
// The 2011/2012 Azure deployment pipeline, as modeled here:
//   1. the application package uploads once to the fabric controller;
//   2. the fabric allocates VMs in bounded-parallelism batches;
//   3. each VM boots the guest OS and starts the role entry point.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fabric/vm_size.hpp"
#include "simcore/resource.hpp"
#include "simcore/simulation.hpp"
#include "simcore/sync.hpp"
#include "simcore/task.hpp"
#include "simcore/time.hpp"

namespace fabric {

/// Application package size and the portal/fabric upload bandwidth.
inline constexpr std::int64_t kPackageBytes = 50ll << 20;
inline constexpr double kPackageUploadBytesPerSec = 4.0 * 1024 * 1024;

/// Wall time the fabric takes to allocate one VM slot.
inline constexpr sim::Duration kVmAllocation = sim::seconds(150);

/// Extra allocation time per CPU core (bigger VMs are harder to place).
inline constexpr sim::Duration kAllocationPerCore = sim::seconds(20);

/// Guest OS boot + role host start.
inline constexpr sim::Duration kGuestBoot = sim::seconds(90);
inline constexpr sim::Duration kRoleStart = sim::seconds(30);

/// The fabric allocates at most this many VMs concurrently.
inline constexpr int kParallelAllocations = 12;

/// Result of provisioning one deployment.
struct ProvisioningReport {
  sim::Duration package_upload = 0;
  /// Per-instance ready time, measured from provisioning start.
  std::vector<sim::Duration> instance_ready;

  sim::Duration time_to_first_instance() const {
    return instance_ready.empty()
               ? 0
               : *std::min_element(instance_ready.begin(),
                                   instance_ready.end());
  }
  sim::Duration time_to_all_instances() const {
    return instance_ready.empty()
               ? 0
               : *std::max_element(instance_ready.begin(),
                                   instance_ready.end());
  }
};

/// Simulates provisioning `instances` VMs of the given size. Pure model —
/// usable standalone (for the provisioning bench) or before starting roles.
inline sim::Task<ProvisioningReport> provision_deployment(
    sim::Simulation& sim, int instances, VmSize size) {
  ProvisioningReport report;
  const sim::TimePoint start = sim.now();

  // 1. Package upload happens once for the whole deployment.
  const auto upload = static_cast<sim::Duration>(
      static_cast<double>(kPackageBytes) / kPackageUploadBytesPerSec *
      static_cast<double>(sim::kSecond));
  co_await sim.delay(upload);
  report.package_upload = sim.now() - start;

  // 2+3. Allocation batches, then boot, in parallel per instance.
  sim::Resource allocator(sim, kParallelAllocations);
  sim::WaitGroup done(sim);
  report.instance_ready.assign(static_cast<std::size_t>(instances), 0);

  struct Ctx {
    sim::Simulation& sim;
    sim::Resource& allocator;
    VmSize size;
    sim::TimePoint start;
    ProvisioningReport& report;
    sim::WaitGroup& done;
  } ctx{sim, allocator, size, start, report, done};

  auto boot_one = [](Ctx& c, int index) -> sim::Task<void> {
    {
      auto slot = co_await c.allocator.acquire();
      const auto cores = spec_of(c.size).cpu_cores;
      co_await c.sim.delay(kVmAllocation +
                           static_cast<sim::Duration>(
                               cores * static_cast<double>(
                                           kAllocationPerCore)));
    }
    co_await c.sim.delay(kGuestBoot + kRoleStart);
    c.report.instance_ready[static_cast<std::size_t>(index)] =
        c.sim.now() - c.start;
    c.done.done();
  };
  for (int i = 0; i < instances; ++i) {
    done.add();
    sim.spawn(boot_one(ctx, i));
  }
  co_await done.wait();
  co_return report;
}

}  // namespace fabric
