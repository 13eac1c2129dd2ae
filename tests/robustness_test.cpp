// Failure-injection and edge-of-envelope tests: the barrier's TTL
// deadlock, throttle policies under overload, and retry exhaustion.
#include <gtest/gtest.h>

#include "azure_test_util.hpp"
#include "azure/common/errors.hpp"
#include "azure/common/retry.hpp"
#include "core/barrier.hpp"

namespace {

using azb_test::TestWorld;
using azure::Payload;
using sim::Task;

TEST(BarrierRobustnessTest, DeadlockFailsLoudlyWhenMessagesExpire) {
  // Algorithm 2's hidden constraint: if one worker never arrives and the
  // sync messages outlive their TTL, the barrier can never be satisfied.
  // The implementation must turn that silent hang into an error.
  TestWorld w;
  w.sim.spawn([](TestWorld& t) -> Task<> {
    azurebench::QueueBarrier barrier(t.account, "sync", /*workers=*/2,
                                     /*message_ttl=*/sim::seconds(120));
    co_await barrier.provision();
    co_await barrier.arrive();  // the second worker never shows up
  }(w));
  EXPECT_THROW(w.sim.run(), azure::StorageError);
  // The failure happens right after the TTL elapses, not at infinity.
  EXPECT_GE(w.sim.now(), sim::seconds(120));
  EXPECT_LT(w.sim.now(), sim::seconds(150));
}

TEST(BarrierRobustnessTest, SlowArrivalWithinTtlStillSucceeds) {
  TestWorld w;
  int released = 0;
  for (int i = 0; i < 2; ++i) {
    w.sim.spawn([](TestWorld& t, int id, int& out) -> Task<> {
      azurebench::QueueBarrier barrier(t.account, "sync", 2,
                                       sim::seconds(120));
      co_await barrier.provision();
      if (id == 1) co_await t.sim.delay(sim::seconds(100));
      co_await barrier.arrive();
      ++out;
    }(w, i, released));
  }
  w.sim.run();
  EXPECT_EQ(released, 2);
}

TEST(ThrottleModeTest, QueueModeAdmitsEverythingWithoutErrors) {
  azure::CloudConfig cfg;
  cfg.cluster.account_transactions_per_sec = 50;
  cfg.cluster.throttle_mode = cluster::ThrottleMode::kQueue;
  TestWorld w(cfg);
  int completed = 0;
  for (int i = 0; i < 160; ++i) {
    w.sim.spawn([](TestWorld& t, int& done) -> Task<> {
      auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
      co_await q.create_if_not_exists();
      ++done;
    }(w, completed));
  }
  w.sim.run();
  EXPECT_EQ(completed, 160);
  // 160 transactions through a 50/s admission queue need >= 3 windows.
  // (Deferred admissions still tick the rejection counter internally, but
  // no ServerBusyError ever reaches the client in this mode.)
  EXPECT_GE(w.sim.now(), sim::seconds(3));
}

TEST(ThrottleModeTest, RejectModeSurfacesServerBusy) {
  azure::CloudConfig cfg;
  cfg.cluster.account_transactions_per_sec = 50;
  TestWorld w(cfg);
  int ok = 0, busy = 0;
  for (int i = 0; i < 160; ++i) {
    w.sim.spawn([](TestWorld& t, int& o, int& b) -> Task<> {
      auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
      try {
        co_await q.create_if_not_exists();
        ++o;
      } catch (const azure::ServerBusyError&) {
        ++b;
      }
    }(w, ok, busy));
  }
  w.sim.run();
  EXPECT_EQ(ok, 50);
  EXPECT_EQ(busy, 110);
}

TEST(RetryRobustnessTest, GivesUpAfterMaxAttempts) {
  azure::CloudConfig cfg;
  cfg.cluster.account_transactions_per_sec = 1;
  TestWorld w(cfg);
  // Saturate the account window forever with a background hammer.
  w.sim.spawn([](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("bg");
    for (int i = 0; i < 100; ++i) {
      try {
        co_await q.create_if_not_exists();
      } catch (const azure::ServerBusyError&) {
      }
      // Poll densely so the single admission of every window is always
      // taken before the foreground's sparser retries get there.
      co_await t.sim.delay(sim::millis(100));
    }
  }(w));
  bool exhausted = false;
  w.sim.spawn([](TestWorld& t, bool& out) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("fg");
    azure::RetryPolicy policy;
    policy.max_attempts = 5;
    policy.jitter = 0.0;
    policy.backoff = sim::millis(900);  // always lands in a full window
    policy.max_backoff = policy.backoff;
    try {
      co_await azure::with_retry(
          t.sim, [&] { return q.create_if_not_exists(); }, policy);
    } catch (const azure::ServerBusyError&) {
      out = true;
    }
  }(w, exhausted));
  w.sim.run();
  EXPECT_TRUE(exhausted);
}

}  // namespace
