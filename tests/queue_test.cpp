// Unit tests for Queue storage semantics and its timing model.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "azure_test_util.hpp"
#include "azure/common/errors.hpp"
#include "azure/common/limits.hpp"
#include "azure/common/retry.hpp"

namespace {

using azb_test::TestWorld;
using azure::Payload;
using sim::Task;
using sim::TimePoint;

TEST(QueueTest, CreateExistsDelete) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    EXPECT_FALSE(co_await q.exists());
    co_await q.create();
    EXPECT_TRUE(co_await q.exists());
    EXPECT_THROW(co_await q.create(), azure::ConflictError);
    co_await q.create_if_not_exists();  // no throw
    co_await q.delete_queue();
    EXPECT_FALSE(co_await q.exists());
    EXPECT_THROW(co_await q.delete_queue(), azure::NotFoundError);
  });
}

TEST(QueueTest, PutGetDeleteRoundtrip) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    co_await q.add_message(Payload::bytes("task-1"));
    auto msg = co_await q.get_message();
    CO_ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->body.data(), "task-1");
    EXPECT_EQ(msg->dequeue_count, 1);
    EXPECT_FALSE(msg->pop_receipt.empty());
    co_await q.delete_message(*msg);
    EXPECT_EQ(co_await q.get_message_count(), 0);
  });
}

TEST(QueueTest, GetHidesMessageUntilVisibilityTimeout) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    co_await q.add_message(Payload::bytes("m"));
    auto first = co_await q.get_message(sim::seconds(10));
    CO_ASSERT_TRUE(first.has_value());
    // Hidden: a second get finds nothing.
    auto second = co_await q.get_message();
    EXPECT_FALSE(second.has_value());
    // Count still includes the invisible message.
    EXPECT_EQ(co_await q.get_message_count(), 1);
    // After the visibility timeout it reappears with a higher dequeue count.
    co_await t.sim.delay(sim::seconds(11));
    auto again = co_await q.get_message();
    CO_ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->dequeue_count, 2);
  });
}

TEST(QueueTest, StalePopReceiptRejected) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    co_await q.add_message(Payload::bytes("m"));
    auto first = co_await q.get_message(sim::seconds(1));
    CO_ASSERT_TRUE(first.has_value());
    co_await t.sim.delay(sim::seconds(2));
    auto second = co_await q.get_message(sim::seconds(30));
    CO_ASSERT_TRUE(second.has_value());
    // The first receipt is now stale: the consumer must not delete a message
    // someone else re-got.
    EXPECT_THROW(co_await q.delete_message(*first),
                 azure::PreconditionFailedError);
    co_await q.delete_message(*second);  // fresh receipt works
  });
}

TEST(QueueTest, PeekDoesNotHide) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    co_await q.add_message(Payload::bytes("m"));
    auto p1 = co_await q.peek_message();
    CO_ASSERT_TRUE(p1.has_value());
    EXPECT_TRUE(p1->pop_receipt.empty());
    auto p2 = co_await q.peek_message();
    EXPECT_TRUE(p2.has_value());  // still visible
    auto g = co_await q.get_message();
    EXPECT_TRUE(g.has_value());
  });
}

TEST(QueueTest, EmptyQueueReturnsNullopt) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    EXPECT_FALSE((co_await q.get_message()).has_value());
    EXPECT_FALSE((co_await q.peek_message()).has_value());
  });
}

TEST(QueueTest, MessagesExpireAfterTtl) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    co_await q.add_message(Payload::bytes("short-lived"), sim::seconds(5));
    co_await t.sim.delay(sim::seconds(6));
    EXPECT_EQ(co_await q.get_message_count(), 0);
    EXPECT_FALSE((co_await q.get_message()).has_value());
  });
}

TEST(QueueTest, DefaultTtlIsSevenDays) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    co_await q.add_message(Payload::bytes("week"));
    co_await t.sim.delay(sim::seconds(6.9 * 24 * 3600));
    EXPECT_EQ(co_await q.get_message_count(), 1);
    co_await t.sim.delay(sim::seconds(0.2 * 24 * 3600));
    EXPECT_EQ(co_await q.get_message_count(), 0);
  });
}

// A gotten message whose TTL lapses while it is still hidden is gone: no
// put/get/peek/count runs in between to sweep it, yet delete and update must
// not find it (Azure answers 404).
TEST(QueueTest, DeleteOfExpiredMessageIsNotFound) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    co_await q.add_message(Payload::bytes("short-lived"), sim::seconds(10));
    const auto msg = co_await q.get_message(sim::seconds(3600));
    CO_ASSERT_TRUE(msg.has_value());
    co_await t.sim.delay(sim::seconds(20));
    EXPECT_THROW(co_await q.delete_message(*msg), azure::NotFoundError);
  });
}

TEST(QueueTest, UpdateOfExpiredMessageIsNotFound) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    co_await q.add_message(Payload::bytes("short-lived"), sim::seconds(10));
    const auto msg = co_await q.get_message(sim::seconds(3600));
    CO_ASSERT_TRUE(msg.has_value());
    co_await t.sim.delay(sim::seconds(20));
    EXPECT_THROW((void)co_await q.update_message(*msg, sim::seconds(60)),
                 azure::NotFoundError);
  });
}

TEST(QueueTest, PayloadOver48KBRejected) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    // 49,152 bytes is the precise usable maximum.
    co_await q.add_message(Payload::synthetic(49'152));
    EXPECT_THROW(co_await q.add_message(Payload::synthetic(49'153)),
                 azure::InvalidArgumentError);
  });
}

TEST(QueueTest, ThrottleAt500MessagesPerSecond) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
  });
  // 600 concurrent peeks land in the same one-second window: only 500 are
  // admitted, the rest see ServerBusy.
  int busy = 0, ok = 0;
  for (int i = 0; i < 600; ++i) {
    w.sim.spawn([](TestWorld& t, int& b, int& o) -> Task<> {
      auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
      try {
        (void)co_await q.peek_message();
        ++o;
      } catch (const azure::ServerBusyError&) {
        ++b;
      }
    }(w, busy, ok));
  }
  w.sim.run();
  EXPECT_EQ(ok, 500);
  EXPECT_EQ(busy, 100);
}

TEST(QueueTest, RetryPolicyRidesOutThrottle) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
  });
  int completed = 0;
  for (int i = 0; i < 700; ++i) {
    w.sim.spawn([](TestWorld& t, int& done) -> Task<> {
      auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
      co_await azure::with_retry(
          t.sim, [&] { return q.add_message(Payload::synthetic(64)); });
      ++done;
    }(w, completed));
  }
  w.sim.run();
  EXPECT_EQ(completed, 700);
  // Riding out the 500/s target must have cost at least a second of backoff.
  EXPECT_GT(w.sim.now(), sim::kSecond);
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    EXPECT_EQ(co_await q.get_message_count(), 700);
  });
}

TEST(QueueTest, ClearEmptiesQueue) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    for (int i = 0; i < 5; ++i) {
      co_await q.add_message(Payload::bytes("m" + std::to_string(i)));
    }
    EXPECT_EQ(co_await q.get_message_count(), 5);
    co_await q.clear();
    EXPECT_EQ(co_await q.get_message_count(), 0);
  });
}

TEST(QueueTest, FifoIsNotGuaranteed) {
  // Consumers observe reordering — the reason the paper dedicates a
  // termination-indicator queue instead of an in-band "end of work"
  // message. At a 2% scramble per get, 256 gets see a reorder.
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    constexpr int kMessages = 256;
    for (int i = 0; i < kMessages; ++i) {
      co_await q.add_message(Payload::bytes(std::to_string(i)));
    }
    bool out_of_order = false;
    int last = -1;
    for (int i = 0; i < kMessages; ++i) {
      auto m = co_await q.get_message();
      CO_ASSERT_TRUE(m.has_value());
      const int v = std::stoi(m->body.data());
      if (v < last) out_of_order = true;
      last = std::max(last, v);
      co_await q.delete_message(*m);
    }
    EXPECT_TRUE(out_of_order);
  });
}

// ---------------------------------------------------------- timing model ----

namespace timing {

/// Measures one operation's duration inside a fresh world.
template <class Op>
sim::Duration measure(TestWorld& w, Op op) {
  const TimePoint start = w.sim.now();
  w.sim.spawn(op(w));
  w.sim.run();
  return w.sim.now() - start;
}

}  // namespace timing

TEST(QueueTimingTest, GetCostsMoreThanPutCostsMoreThanPeek) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    co_await q.add_message(Payload::synthetic(4096));
    co_await q.add_message(Payload::synthetic(4096));
  });
  const auto put = timing::measure(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.add_message(Payload::synthetic(4096));
  });
  const auto peek = timing::measure(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    (void)co_await q.peek_message();
  });
  const auto get = timing::measure(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    (void)co_await q.get_message();
  });
  EXPECT_GT(get, put);
  EXPECT_GT(put, peek);
}

TEST(QueueTimingTest, SixteenKbGetAnomalyReproduced) {
  auto get_time = [](std::int64_t payload, bool anomaly) {
    azure::CloudConfig cfg;
    cfg.queue.model_16k_get_anomaly = anomaly;
    TestWorld w(cfg);
    azb_test::run(w, [](TestWorld& t) -> Task<> {
      auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
      co_await q.create();
    });
    // Seed the message at the requested size.
    struct Ctx {
      std::int64_t size;
    };
    w.sim.spawn([](TestWorld& t, std::int64_t size) -> Task<> {
      auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
      co_await q.add_message(Payload::synthetic(size));
    }(w, payload));
    w.sim.run();
    const TimePoint start = w.sim.now();
    w.sim.spawn([](TestWorld& t) -> Task<> {
      auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
      (void)co_await q.get_message();
    }(w));
    w.sim.run();
    return w.sim.now() - start;
  };
  const auto t16 = get_time(16 * 1024, true);
  const auto t32 = get_time(32 * 1024, true);
  // The anomaly: 16 KB gets are slower than *larger* 32 KB gets.
  EXPECT_GT(t16, t32);
  // Ablation: with the quirk off, 16 KB costs no more than 32 KB (equal when
  // both transfers fit within NIC burst credit).
  const auto t16_off = get_time(16 * 1024, false);
  const auto t32_off = get_time(32 * 1024, false);
  EXPECT_LE(t16_off, t32_off);
}

TEST(QueueTimingTest, SeparateQueuesScaleBetterThanShared) {
  // Fig. 6 vs Fig. 7: per-queue partitions parallelize; a shared queue
  // serializes at one partition server.
  auto measure = [](bool shared) {
    TestWorld w;
    constexpr int kWorkers = 8;
    constexpr int kOps = 25;
    azb_test::run(w, [](TestWorld& t) -> Task<> {
      auto qc = t.account.create_cloud_queue_client();
      co_await qc.get_queue_reference("shared").create();
      for (int i = 0; i < kWorkers; ++i) {
        co_await qc.get_queue_reference("own-" + std::to_string(i)).create();
      }
    });
    const TimePoint start = w.sim.now();
    sim::WaitGroup wg(w.sim);
    for (int i = 0; i < kWorkers; ++i) {
      wg.add();
      w.sim.spawn([](TestWorld& t, sim::WaitGroup& g, int id,
                     bool sh) -> Task<> {
        auto qc = t.account.create_cloud_queue_client();
        auto q = qc.get_queue_reference(
            sh ? "shared" : "own-" + std::to_string(id));
        for (int k = 0; k < kOps; ++k) {
          co_await azure::with_retry(t.sim, [&] {
            return q.add_message(azure::Payload::synthetic(4096));
          });
        }
        g.done();
      }(w, wg, i, shared));
    }
    w.sim.spawn([](sim::WaitGroup& g) -> Task<> { co_await g.wait(); }(wg));
    w.sim.run();
    return w.sim.now() - start;
  };
  EXPECT_GT(measure(true), measure(false));
}

// ------------------------------------------------- boundary-instant tests ----
//
// Both tests use a two-world calibration trick: a first deterministic run
// with relaxed limits measures the exact sim-time at which get_message's
// atomic claim sweep executes; a second run then pins the boundary
// (expiration_time / visible_from) to precisely that instant. Replays are
// byte-identical, so the measured instants transfer between worlds.

struct QueueBoundaryProbe {
  TimePoint insertion = 0;  // probed message's insertion time
  TimePoint claim = 0;      // sim time right after the probing call returned
  bool served = false;
  int dequeue_count = 0;
  std::int64_t count = 0;   // get_message_count at the probe
};

/// Runs `world(t, param, probe)` in a fresh world and returns the probe.
template <class World>
QueueBoundaryProbe run_probe(World world, sim::Duration param) {
  TestWorld w;
  QueueBoundaryProbe p;
  w.sim.spawn(world(w, param, p));
  w.sim.run();
  return p;
}

Task<> expiry_world(TestWorld& t, sim::Duration ttl, QueueBoundaryProbe& out) {
  auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
  co_await q.create();
  co_await q.add_message(Payload::bytes("boundary"), ttl);
  const auto msg = co_await q.get_message();
  out.claim = t.sim.now();
  out.served = msg.has_value();
  if (msg.has_value()) out.insertion = msg->insertion_time;
}

TEST(QueueBoundaryTest, MessageRetrievableAtExactExpirationInstant) {
  // Calibration: default 7-day TTL; measure insertion -> claim delta.
  const QueueBoundaryProbe cal = run_probe(expiry_world, 0);
  ASSERT_TRUE(cal.served);
  const sim::Duration delta = cal.claim - cal.insertion;
  ASSERT_GT(delta, 1);

  // TTL lapses exactly at the claim sweep's `now`. A TTL is a guaranteed
  // lifetime (ExpirationTime = insertion + TTL, retrievable *through* that
  // instant); the pre-fix `expiration_time <= now` sweep dropped it here.
  const QueueBoundaryProbe at_edge = run_probe(expiry_world, delta);
  EXPECT_TRUE(at_edge.served);

  // One nanosecond less and the TTL genuinely lapsed before the claim.
  const QueueBoundaryProbe past_edge = run_probe(expiry_world, delta - 1);
  EXPECT_FALSE(past_edge.served);
}

Task<> visibility_world(TestWorld& t, sim::Duration first_vis,
                        QueueBoundaryProbe& out) {
  auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
  co_await q.create();
  co_await q.add_message(Payload::bytes("boundary"));
  const auto first = co_await q.get_message(first_vis);
  CO_ASSERT_TRUE(first.has_value());
  out.insertion = t.sim.now();  // instant the second get is issued
  const auto second = co_await q.get_message();
  out.claim = t.sim.now();
  out.served = second.has_value();
  if (second.has_value()) out.dequeue_count = second->dequeue_count;
}

TEST(QueueBoundaryTest, MessageVisibleAtExactTimeNextVisibleInstant) {
  // Calibration: default 30 s visibility; the second get finds nothing and
  // measures how long its own claim sweep takes to run (D).
  const QueueBoundaryProbe cal = run_probe(visibility_world, 0);
  ASSERT_FALSE(cal.served);
  const sim::Duration d = cal.claim - cal.insertion;
  ASSERT_GT(d, 1);

  // First get hides the message for exactly D: visible_from (Azure's
  // TimeNextVisible — the instant the message *becomes* visible) equals the
  // second get's claim instant, so that consumer must receive it.
  const QueueBoundaryProbe at_edge = run_probe(visibility_world, d);
  EXPECT_TRUE(at_edge.served);
  EXPECT_EQ(at_edge.dequeue_count, 2);

  // One nanosecond more and the message is still hidden at the claim.
  const QueueBoundaryProbe before_edge = run_probe(visibility_world, d + 1);
  EXPECT_FALSE(before_edge.served);
}

// ------------------------------------------------------ TTL sweep guard ----
//
// The TTL sweep is skipped while a lower bound on the stored messages'
// expiration times is not before `now`. These tests pin that the skip never
// keeps a lapsed message, with the same two-world calibration as above: the
// count's sweep instant is measured first, then a TTL is set to lapse exactly
// at it (message stays) or one nanosecond before it (message is swept).

Task<> mixed_ttl_world(TestWorld& t, sim::Duration ttl,
                       QueueBoundaryProbe& out) {
  auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
  co_await q.create();
  for (int i = 0; i < 3; ++i) co_await q.add_message(Payload::bytes("week"));
  co_await q.add_message(Payload::bytes("short"), ttl);
  out.insertion = t.sim.now();
  co_await t.sim.delay(sim::seconds(10));
  out.count = co_await q.get_message_count();
  out.claim = t.sim.now();
}

TEST(QueueExpiryGuardTest, ShortTtlBehindSevenDayMessagesLapsesOnTime) {
  const QueueBoundaryProbe cal = run_probe(mixed_ttl_world, 0);
  ASSERT_EQ(cal.count, 4);
  const sim::Duration d = cal.claim - cal.insertion;
  ASSERT_GT(d, sim::seconds(10));

  EXPECT_EQ(run_probe(mixed_ttl_world, d).count, 4);
  // Swept at its own instant while the 7-day messages ahead of it survive:
  // a guard that reads only the front message's expiry would keep it.
  EXPECT_EQ(run_probe(mixed_ttl_world, d - 1).count, 3);
}

Task<> deleted_earliest_world(TestWorld& t, sim::Duration ttl,
                              QueueBoundaryProbe& out) {
  auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
  co_await q.create();
  co_await q.add_message(Payload::bytes("earliest"), sim::seconds(5));
  co_await q.add_message(Payload::bytes("later"), ttl);
  out.insertion = t.sim.now();
  const auto first = co_await q.get_message();
  CO_ASSERT_TRUE(first.has_value());
  CO_ASSERT_EQ(first->body.data(), "earliest");
  co_await q.delete_message(*first);
  co_await t.sim.delay(sim::seconds(20));
  out.count = co_await q.get_message_count();
  out.claim = t.sim.now();
}

TEST(QueueExpiryGuardTest, LaterShortTtlLapsesOnTimeAfterEarliestIsDeleted) {
  const QueueBoundaryProbe cal = run_probe(deleted_earliest_world, 0);
  ASSERT_EQ(cal.count, 1);
  const sim::Duration d = cal.claim - cal.insertion;
  ASSERT_GT(d, sim::seconds(20));

  // Deleting the earliest-expiring message leaves the bound early, never
  // late, so the later message is still swept the instant it lapses.
  EXPECT_EQ(run_probe(deleted_earliest_world, d).count, 1);
  EXPECT_EQ(run_probe(deleted_earliest_world, d - 1).count, 0);
}

TEST(QueueExpiryGuardTest, ClearThenPutsKeepsCountCorrect) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("q");
    co_await q.create();
    co_await q.add_message(Payload::bytes("cleared-short"), sim::seconds(5));
    co_await q.add_message(Payload::bytes("cleared-week"));
    co_await q.clear();
    co_await q.add_message(Payload::bytes("short"), sim::seconds(30));
    co_await q.add_message(Payload::bytes("week"));
    EXPECT_EQ(co_await q.get_message_count(), 2);
    // Past the cleared short message's expiry: the sweep runs and keeps both.
    co_await t.sim.delay(sim::seconds(10));
    EXPECT_EQ(co_await q.get_message_count(), 2);
    co_await t.sim.delay(sim::seconds(30));
    EXPECT_EQ(co_await q.get_message_count(), 1);
  });
}

}  // namespace
