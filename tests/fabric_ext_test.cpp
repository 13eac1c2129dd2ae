// Tests for the fabric extension modules: provisioning timings and
// internal TCP endpoints (both named as unstudied/future work in the
// paper).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "azure_test_util.hpp"
#include "fabric/endpoints.hpp"
#include "fabric/provisioning.hpp"
#include "fabric/vm_size.hpp"

namespace {

using azb_test::TestWorld;
using azure::Payload;
using fabric::ProvisioningReport;
using sim::Task;
using sim::TimePoint;

// ----------------------------------------------------------- provisioning ----

ProvisioningReport provision(int instances, fabric::VmSize size) {
  sim::Simulation s;
  ProvisioningReport report;
  s.spawn([](sim::Simulation& sim, int n, fabric::VmSize sz,
             ProvisioningReport& out) -> Task<> {
    out = co_await fabric::provision_deployment(sim, n, sz);
  }(s, instances, size, report));
  s.run();
  return report;
}

TEST(ProvisioningTest, SingleInstanceTimeline) {
  const auto report = provision(1, fabric::VmSize::kSmall);
  ASSERT_EQ(report.instance_ready.size(), 1u);
  const auto upload = static_cast<sim::Duration>(
      static_cast<double>(fabric::kPackageBytes) /
      fabric::kPackageUploadBytesPerSec * sim::kSecond);
  const auto expected = upload + fabric::kVmAllocation +
                        fabric::kAllocationPerCore + fabric::kGuestBoot +
                        fabric::kRoleStart;
  EXPECT_EQ(report.instance_ready[0], expected);
  EXPECT_EQ(report.package_upload, upload);
}

TEST(ProvisioningTest, AllocationBatchesBoundParallelism) {
  constexpr int kSlots = fabric::kParallelAllocations;
  const auto small = provision(kSlots, fabric::VmSize::kSmall);
  const auto large = provision(3 * kSlots, fabric::VmSize::kSmall);
  // Three times as many instances as allocation slots need 3 serialized
  // batches.
  const auto batch = fabric::kVmAllocation + fabric::kAllocationPerCore;
  EXPECT_EQ(large.time_to_all_instances() - small.time_to_all_instances(),
            2 * batch);
  // First instances of both deployments are ready at the same time.
  EXPECT_EQ(large.time_to_first_instance(), small.time_to_first_instance());
}

TEST(ProvisioningTest, BiggerVmsAllocateSlower) {
  const auto small = provision(1, fabric::VmSize::kSmall);
  const auto xl = provision(1, fabric::VmSize::kExtraLarge);
  EXPECT_GT(xl.time_to_all_instances(), small.time_to_all_instances());
}

// -------------------------------------------------------------- endpoints ----

TEST(EndpointTest, SendReceiveRoundtrip) {
  TestWorld w;
  auto& net = w.env.storage_cluster().network();
  netsim::Nic nic_a(w.sim, azb_test::default_client_nic());
  netsim::Nic nic_b(w.sim, azb_test::default_client_nic());
  fabric::InternalEndpoint a(w.sim, net, nic_a);
  fabric::InternalEndpoint b(w.sim, net, nic_b);

  std::string got;
  w.sim.spawn([](fabric::InternalEndpoint& ep, std::string& out) -> Task<> {
    const auto msg = co_await ep.receive();
    out = msg.data();
  }(b, got));
  w.sim.spawn([](fabric::InternalEndpoint& from,
                 fabric::InternalEndpoint& to) -> Task<> {
    co_await from.send(to, Payload::bytes("ping"));
  }(a, b));
  w.sim.run();
  EXPECT_EQ(got, "ping");
  EXPECT_EQ(a.messages_sent(), 1);
  EXPECT_EQ(b.messages_received(), 1);
}

TEST(EndpointTest, MessagesFromOneSenderArriveInOrder) {
  TestWorld w;
  auto& net = w.env.storage_cluster().network();
  netsim::Nic nic_a(w.sim, azb_test::default_client_nic());
  netsim::Nic nic_b(w.sim, azb_test::default_client_nic());
  fabric::InternalEndpoint a(w.sim, net, nic_a);
  fabric::InternalEndpoint b(w.sim, net, nic_b);

  std::vector<std::string> got;
  w.sim.spawn([](fabric::InternalEndpoint& ep,
                 std::vector<std::string>& out) -> Task<> {
    for (int i = 0; i < 5; ++i) {
      out.push_back((co_await ep.receive()).data());
    }
  }(b, got));
  w.sim.spawn([](fabric::InternalEndpoint& from,
                 fabric::InternalEndpoint& to) -> Task<> {
    for (int i = 0; i < 5; ++i) {
      std::string body = "m";
      body += std::to_string(i);
      co_await from.send(to, Payload::bytes(body));
    }
  }(a, b));
  w.sim.run();
  EXPECT_EQ(got, (std::vector<std::string>{"m0", "m1", "m2", "m3", "m4"}));
}

TEST(EndpointTest, ReceiveBlocksUntilMessageArrives) {
  TestWorld w;
  auto& net = w.env.storage_cluster().network();
  netsim::Nic nic_a(w.sim, azb_test::default_client_nic());
  netsim::Nic nic_b(w.sim, azb_test::default_client_nic());
  fabric::InternalEndpoint a(w.sim, net, nic_a);
  fabric::InternalEndpoint b(w.sim, net, nic_b);

  TimePoint received_at = -1;
  w.sim.spawn([](TestWorld& t, fabric::InternalEndpoint& ep,
                 TimePoint& at) -> Task<> {
    (void)co_await ep.receive();
    at = t.sim.now();
  }(w, b, received_at));
  w.sim.spawn([](TestWorld& t, fabric::InternalEndpoint& from,
                 fabric::InternalEndpoint& to) -> Task<> {
    co_await t.sim.delay(sim::seconds(3));
    co_await from.send(to, Payload::bytes("late"));
  }(w, a, b));
  w.sim.run();
  EXPECT_GE(received_at, sim::seconds(3));
}

TEST(EndpointTest, DirectMessagingFasterThanQueueMediated) {
  // The point of TCP endpoints: no storage round-trips, no replication.
  TestWorld w;
  auto& net = w.env.storage_cluster().network();
  netsim::Nic nic_a(w.sim, azb_test::default_client_nic());
  netsim::Nic nic_b(w.sim, azb_test::default_client_nic());
  fabric::InternalEndpoint a(w.sim, net, nic_a);
  fabric::InternalEndpoint b(w.sim, net, nic_b);

  // Direct: one message A -> B.
  TimePoint t0 = w.sim.now();
  w.sim.spawn([](fabric::InternalEndpoint& from,
                 fabric::InternalEndpoint& to) -> Task<> {
    co_await from.send(to, Payload::synthetic(4096));
  }(a, b));
  w.sim.spawn([](fabric::InternalEndpoint& ep) -> Task<> {
    (void)co_await ep.receive();
  }(b));
  w.sim.run();
  const auto direct = w.sim.now() - t0;

  // Queue-mediated: put + get of the same payload.
  t0 = w.sim.now();
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    co_await q.add_message(Payload::synthetic(4096));
    (void)co_await q.get_message();
  });
  const auto mediated = w.sim.now() - t0;
  EXPECT_LT(direct * 10, mediated);
}

TEST(EndpointTest, TwoReceiversNeverDuplicateAMessage) {
  TestWorld w;
  auto& net = w.env.storage_cluster().network();
  netsim::Nic nic_a(w.sim, azb_test::default_client_nic());
  netsim::Nic nic_b(w.sim, azb_test::default_client_nic());
  fabric::InternalEndpoint a(w.sim, net, nic_a);
  fabric::InternalEndpoint b(w.sim, net, nic_b);

  int received = 0;
  for (int r = 0; r < 2; ++r) {
    w.sim.spawn([](fabric::InternalEndpoint& ep, int& n) -> Task<> {
      (void)co_await ep.receive();
      ++n;
    }(b, received));
  }
  w.sim.spawn([](fabric::InternalEndpoint& from,
                 fabric::InternalEndpoint& to) -> Task<> {
    co_await from.send(to, Payload::bytes("only-one"));
    co_await from.send(to, Payload::bytes("second"));
  }(a, b));
  w.sim.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(b.pending(), 0u);
}

}  // namespace
