// Unit tests for the compute fabric (VM sizes, local storage, deployments).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "azure_test_util.hpp"
#include "fabric/deployment.hpp"
#include "fabric/vm_size.hpp"

namespace {

using azb_test::TestWorld;
using azure::Payload;
using fabric::VmSize;
using sim::Task;
using sim::TimePoint;

// --------------------------------------------------------------- vm size ----

TEST(VmSizeTest, TableOneValues) {
  const auto xs = fabric::spec_of(VmSize::kExtraSmall);
  EXPECT_EQ(xs.name, "Extra Small");
  EXPECT_EQ(xs.memory_mb, 768);
  EXPECT_EQ(xs.local_storage_gb, 20);

  const auto s = fabric::spec_of(VmSize::kSmall);
  EXPECT_EQ(s.cpu_cores, 1.0);
  EXPECT_EQ(s.local_storage_gb, 225);

  const auto m = fabric::spec_of(VmSize::kMedium);
  EXPECT_EQ(m.cpu_cores, 2.0);
  EXPECT_EQ(m.memory_mb, 3'584);

  const auto l = fabric::spec_of(VmSize::kLarge);
  EXPECT_EQ(l.cpu_cores, 4.0);
  EXPECT_EQ(l.local_storage_gb, 1'000);

  const auto xl = fabric::spec_of(VmSize::kExtraLarge);
  EXPECT_EQ(xl.cpu_cores, 8.0);
  EXPECT_EQ(xl.memory_mb, 14'336);
  EXPECT_EQ(xl.local_storage_gb, 2'040);
}

TEST(VmSizeTest, NicBandwidthScalesWithSize) {
  const auto small = fabric::nic_config_of(VmSize::kSmall);
  const auto xl = fabric::nic_config_of(VmSize::kExtraLarge);
  EXPECT_GT(xl.uplink_bytes_per_sec, small.uplink_bytes_per_sec);
  EXPECT_DOUBLE_EQ(small.uplink_bytes_per_sec, 100.0 * 1e6 / 8.0);
}

// ------------------------------------------------------------ deployment ----

TEST(DeploymentTest, WorkersRunWithDistinctIdentities) {
  TestWorld w;
  fabric::Deployment dep(w.env);
  dep.add_worker_roles(4, VmSize::kSmall);
  std::vector<int> seen;
  dep.start_workers([&seen](fabric::RoleContext& ctx) -> Task<> {
    seen.push_back(ctx.id());
    EXPECT_EQ(ctx.kind(), fabric::RoleKind::kWorker);
    EXPECT_EQ(ctx.vm_spec().name, "Small");
    co_return;
  });
  w.sim.run();
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3}));
}

TEST(DeploymentTest, WaitAllResumesAfterLastRole) {
  TestWorld w;
  fabric::Deployment dep(w.env);
  dep.add_web_role();
  dep.add_worker_roles(3);
  dep.start_web([](fabric::RoleContext& ctx) -> Task<> {
    co_await ctx.simulation().delay(sim::seconds(1));
  });
  dep.start_workers([](fabric::RoleContext& ctx) -> Task<> {
    co_await ctx.simulation().delay(sim::seconds(1 + ctx.id()));
  });
  TimePoint all_done = -1;
  w.sim.spawn([](TestWorld& t, fabric::Deployment& d,
                 TimePoint& out) -> Task<> {
    co_await d.wait_all();
    out = t.sim.now();
  }(w, dep, all_done));
  w.sim.run();
  EXPECT_EQ(all_done, sim::seconds(3));  // slowest worker: id 2
}

TEST(DeploymentTest, RolesShareTheStorageAccount) {
  TestWorld w;
  fabric::Deployment dep(w.env);
  dep.add_worker_roles(2);
  dep.start_workers([](fabric::RoleContext& ctx) -> Task<> {
    auto q = ctx.account().create_cloud_queue_client().get_queue_reference(
        "shared");
    co_await q.create_if_not_exists();
    co_await q.add_message(Payload::bytes("from-" + std::to_string(ctx.id())));
  });
  w.sim.run();
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference(
        "shared");
    EXPECT_EQ(co_await q.get_message_count(), 2);
  });
}

TEST(DeploymentTest, SmallVmNicLimitsTransferRate) {
  // A Small VM uploads at 100 Mbps = 12.5 MB/s: 25 MB takes ~2 s; an Extra
  // Large VM (800 Mbps) takes ~1/8 of that.
  auto upload_time = [](VmSize size) {
    TestWorld w;
    azb_test::run(w, [](TestWorld& t) -> Task<> {
      auto c =
          t.account.create_cloud_blob_client().get_container_reference("c");
      co_await c.create();
      co_await c.get_page_blob_reference("p").create(1ll << 30);
    });
    fabric::Deployment dep(w.env);
    dep.add_worker_roles(1, size);
    const TimePoint start = w.sim.now();
    dep.start_workers([](fabric::RoleContext& ctx) -> Task<> {
      auto blob = ctx.account()
                      .create_cloud_blob_client()
                      .get_container_reference("c")
                      .get_page_blob_reference("p");
      for (int i = 0; i < 25; ++i) {
        co_await blob.put_page(i * (1ll << 20),
                               Payload::synthetic(1 << 20));
      }
    });
    w.sim.run();
    return w.sim.now() - start;
  };
  const auto small = upload_time(VmSize::kSmall);
  const auto xl = upload_time(VmSize::kExtraLarge);
  EXPECT_GT(small, sim::seconds(1.8));
  EXPECT_LT(small, sim::seconds(3.0));
  const double ratio = static_cast<double>(small) / static_cast<double>(xl);
  // XL's NIC is 8x faster, but the 60 MB/s per-blob write cap and fixed
  // per-request costs dampen the end-to-end gain.
  EXPECT_GT(ratio, 2.5);
}

}  // namespace
