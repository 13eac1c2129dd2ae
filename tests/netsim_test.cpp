// Unit tests for the network fabric model.
#include <gtest/gtest.h>

#include "netsim/network.hpp"
#include "netsim/nic.hpp"
#include "simcore/simulation.hpp"
#include "simcore/sync.hpp"

namespace {

using sim::Simulation;
using sim::Task;
using sim::TimePoint;

netsim::NicConfig fast_nic() {
  return netsim::NicConfig{
      /*uplink_bytes_per_sec=*/1e6, /*downlink_bytes_per_sec=*/1e6,
      /*latency=*/sim::micros(100), /*burst_bytes=*/0.0};
}

TEST(NicTest, SendOccupiesUplinkForBytesOverBandwidth) {
  Simulation s;
  netsim::Nic nic(s, fast_nic());
  TimePoint done = -1;
  s.spawn([](Simulation& sim, netsim::Nic& n, TimePoint& t) -> Task<> {
    co_await n.send(500'000);  // 0.5 s at 1 MB/s
    t = sim.now();
  }(s, nic, done));
  s.run();
  EXPECT_EQ(done, sim::millis(500));
  EXPECT_EQ(nic.bytes_sent(), 500'000);
}

TEST(NicTest, UplinkAndDownlinkAreIndependent) {
  Simulation s;
  netsim::Nic nic(s, fast_nic());
  TimePoint up_done = -1, down_done = -1;
  s.spawn([](Simulation& sim, netsim::Nic& n, TimePoint& t) -> Task<> {
    co_await n.send(1'000'000);
    t = sim.now();
  }(s, nic, up_done));
  s.spawn([](Simulation& sim, netsim::Nic& n, TimePoint& t) -> Task<> {
    co_await n.receive(1'000'000);
    t = sim.now();
  }(s, nic, down_done));
  s.run();
  // Full duplex: both directions complete in 1 s, not 2.
  EXPECT_EQ(up_done, sim::seconds(1));
  EXPECT_EQ(down_done, sim::seconds(1));
}

TEST(NicTest, ConcurrentSendersShareUplink) {
  Simulation s;
  netsim::Nic nic(s, fast_nic());
  int completed = 0;
  TimePoint last = 0;
  for (int i = 0; i < 4; ++i) {
    s.spawn([](Simulation& sim, netsim::Nic& n, int& c,
               TimePoint& l) -> Task<> {
      co_await n.send(250'000);
      ++c;
      l = sim.now();
    }(s, nic, completed, last));
  }
  s.run();
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(last, sim::seconds(1));  // 1 MB total at 1 MB/s
}

TEST(NetworkTest, TransferPaysBothNicsAndPropagation) {
  Simulation s;
  netsim::Network net(s);
  netsim::Nic a(s, fast_nic()), b(s, fast_nic());
  TimePoint done = -1;
  s.spawn([](Simulation& sim, netsim::Network& n, netsim::Nic& src,
             netsim::Nic& dst, TimePoint& t) -> Task<> {
    co_await n.transfer(src, dst, 100'000);  // 0.1 s per pipe
    t = sim.now();
  }(s, net, a, b, done));
  s.run();
  // store-and-forward: 0.1s (src up) + propagation + 2*0.1ms nic latency
  // + 0.1s (dst down)
  EXPECT_EQ(done, sim::millis(100) + netsim::kPropagation + sim::micros(200) +
                      sim::millis(100));
  EXPECT_EQ(net.bytes_moved(), 100'000);
}

TEST(NetworkTest, ControlHopMovesNoBytes) {
  Simulation s;
  netsim::Network net(s);
  netsim::Nic a(s, fast_nic()), b(s, fast_nic());
  TimePoint done = -1;
  s.spawn([](Simulation& sim, netsim::Network& n, netsim::Nic& src,
             netsim::Nic& dst, TimePoint& t) -> Task<> {
    co_await n.transfer(src, dst, 0);
    t = sim.now();
  }(s, net, a, b, done));
  s.run();
  EXPECT_EQ(done, netsim::kPropagation + sim::micros(200));
  EXPECT_EQ(net.bytes_moved(), 0);
  EXPECT_EQ(a.bytes_sent(), 0);
}

TEST(NicTest, BurstCreditPassesControlPackets) {
  Simulation s;
  netsim::NicConfig cfg = fast_nic();
  cfg.burst_bytes = 10'000;
  netsim::Nic nic(s, cfg);
  TimePoint done = -1;
  s.spawn([](Simulation& sim, netsim::Nic& n, TimePoint& t) -> Task<> {
    co_await sim.delay(sim::seconds(1));  // accrue credit
    co_await n.send(5'000);               // within burst: free
    t = sim.now();
  }(s, nic, done));
  s.run();
  EXPECT_EQ(done, sim::seconds(1));
}

}  // namespace
