// Error-taxonomy and backoff tests for RetryPolicy and with_retry:
//  * ServerBusy is always retried, and the five fault classes (timeout,
//    connection reset, checksum mismatch, partition and region redirects)
//    are retried or rethrown exactly per the retry_faults switch;
//  * service-semantic errors are never retried;
//  * max_attempts counts total attempts and rethrows on exhaustion;
//  * capped exponential backoff and deterministic jitter behave at edges;
//  * the paper() preset reproduces the paper's fixed 1 s sleep, and a
//    workload's timing depends on the policy ONLY when retries occur;
//  * the open_loop() preset is a short ServerBusy-only ladder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <set>

#include "azure_test_util.hpp"
#include "azure/common/errors.hpp"
#include "azure/common/retry.hpp"
#include "simcore/simulation.hpp"

namespace {

using azb_test::TestWorld;
using sim::Task;

enum class Err {
  kTimeout,
  kReset,
  kBusy,
  kSlowDown,
  kNotFound,
  kChecksum,
  kPartitionMoved,
  kRegionMoved,
};

/// The classes RetryPolicy::retry_faults switches.
constexpr Err kFaultClasses[] = {Err::kTimeout, Err::kReset, Err::kChecksum,
                                 Err::kPartitionMoved, Err::kRegionMoved};

[[noreturn]] void raise(Err e) {
  switch (e) {
    case Err::kTimeout:
      throw azure::TimeoutError("injected timeout");
    case Err::kReset:
      throw azure::ConnectionResetError("injected reset");
    case Err::kBusy:
      throw azure::ServerBusyError("injected busy");
    case Err::kSlowDown:
      throw cluster::SlowDownError("injected 503 SlowDown");
    case Err::kNotFound:
      throw azure::NotFoundError("injected 404");
    case Err::kChecksum:
      throw azure::ChecksumMismatchError("injected bit-flip");
    case Err::kPartitionMoved:
      throw azure::PartitionMovedError("injected stale-map redirect");
    case Err::kRegionMoved:
      throw azure::RegionMovedError("injected stale geo-map redirect");
  }
  throw azure::StorageError("unreachable");
}

/// One attempt: fails with `e` while calls <= failures, then returns 7.
Task<int> attempt(int& calls, int failures, Err e) {
  ++calls;
  if (calls <= failures) raise(e);
  co_return 7;
}

struct Outcome {
  int calls = 0;
  std::int64_t retries = 0;
  int result = -1;
  bool threw = false;
  sim::TimePoint elapsed = 0;
};

/// Drives with_retry over `attempt` to completion and reports what happened
/// (exceptions of any type are recorded, not propagated).
Outcome drive(const azure::RetryPolicy& policy, int failures, Err e) {
  sim::Simulation s;
  Outcome out;
  s.spawn([](sim::Simulation& sim, azure::RetryPolicy pol, int failures,
             Err e, Outcome& out) -> Task<> {
    try {
      out.result = co_await azure::with_retry(
          sim, [&] { return attempt(out.calls, failures, e); }, pol,
          &out.retries);
    } catch (const azure::StorageError&) {
      out.threw = true;
    } catch (const azure::FaultError&) {
      // Injected faults are deliberately NOT StorageErrors (a timeout is
      // the absence of an answer, not a service answer).
      out.threw = true;
    }
  }(s, policy, failures, e, out));
  s.run();
  out.elapsed = s.now();
  return out;
}

azure::RetryPolicy exact_policy() {
  azure::RetryPolicy p;
  p.jitter = 0.0;  // exact timing assertions
  return p;
}

// ------------------------------------------------------- per-error class ----

TEST(RetryTaxonomyTest, TimeoutRetriedThenSucceeds) {
  const Outcome o = drive(exact_policy(), 2, Err::kTimeout);
  EXPECT_EQ(o.result, 7);
  EXPECT_EQ(o.calls, 3);
  EXPECT_EQ(o.retries, 2);
  // Exponential: 500 ms then 1 s.
  EXPECT_EQ(o.elapsed, sim::millis(500) + sim::seconds(1));
}

/// Two failures of class `e` under the default policy are retried away:
/// three calls, two retries, 500 ms then 1 s of backoff.
void expect_retried_by_default(Err e) {
  const Outcome o = drive(exact_policy(), 2, e);
  EXPECT_EQ(o.result, 7);
  EXPECT_EQ(o.calls, 3);
  EXPECT_EQ(o.retries, 2);
  EXPECT_EQ(o.elapsed, sim::millis(500) + sim::seconds(1));
}

/// With retry_faults off, one failure of class `e` is rethrown at once.
void expect_rethrown_when_disabled(Err e) {
  azure::RetryPolicy p = exact_policy();
  p.retry_faults = false;
  const Outcome o = drive(p, 1, e);
  EXPECT_TRUE(o.threw);
  EXPECT_EQ(o.calls, 1);
  EXPECT_EQ(o.retries, 0);
  EXPECT_EQ(o.elapsed, 0);  // rethrown immediately, no backoff slept
}

TEST(RetryTaxonomyTest, ConnectionResetRetriedByDefault) {
  expect_retried_by_default(Err::kReset);
}

TEST(RetryTaxonomyTest, ServerBusyRetriedByDefault) {
  expect_retried_by_default(Err::kBusy);
  // ServerBusy is retried under every policy, retry_faults off included.
  azure::RetryPolicy p = exact_policy();
  p.retry_faults = false;
  const Outcome o = drive(p, 1, Err::kBusy);
  EXPECT_EQ(o.result, 7);
  EXPECT_EQ(o.calls, 2);
  EXPECT_EQ(o.retries, 1);
}

TEST(RetryTaxonomyTest, TimeoutNotRetriedWhenDisabled) {
  expect_rethrown_when_disabled(Err::kTimeout);
}

TEST(RetryTaxonomyTest, ConnectionResetNotRetriedWhenDisabled) {
  expect_rethrown_when_disabled(Err::kReset);
}

TEST(RetryTaxonomyTest, ChecksumMismatchRetriedByDefault) {
  // A failed end-to-end checksum means the bytes died on the wire, not in
  // the service: the request was either rejected before any state changed
  // (uploads) or is a re-readable download — always safe to retry.
  expect_retried_by_default(Err::kChecksum);
}

TEST(RetryTaxonomyTest, ChecksumMismatchNotRetriedWhenDisabled) {
  expect_rethrown_when_disabled(Err::kChecksum);
}

TEST(RetryTaxonomyTest, PartitionMovedRetriedByDefault) {
  // A partition redirect refreshed the client's cached partition map, so
  // the retry routes to the new owner.
  expect_retried_by_default(Err::kPartitionMoved);
}

TEST(RetryTaxonomyTest, PartitionMovedNotRetriedWhenDisabled) {
  expect_rethrown_when_disabled(Err::kPartitionMoved);
}

TEST(RetryTaxonomyTest, RegionMovedRetriedByDefault) {
  // A geo failover redirect refreshes the client's cached geo map, so the
  // retry routes to the promoted region and succeeds.
  expect_retried_by_default(Err::kRegionMoved);
}

TEST(RetryTaxonomyTest, RegionMovedNotRetriedWhenDisabled) {
  expect_rethrown_when_disabled(Err::kRegionMoved);
}

TEST(RetryTaxonomyTest, ChecksumMismatchExhaustionRethrows) {
  azure::RetryPolicy p = exact_policy();
  p.max_attempts = 3;
  const Outcome o = drive(p, 1'000'000, Err::kChecksum);
  EXPECT_TRUE(o.threw);
  EXPECT_EQ(o.calls, 3);
  EXPECT_EQ(o.retries, 2);
}

TEST(RetryTaxonomyTest, SemanticErrorsNeverRetried) {
  const Outcome o = drive(exact_policy(), 5, Err::kNotFound);
  EXPECT_TRUE(o.threw);
  EXPECT_EQ(o.calls, 1);
  EXPECT_EQ(o.retries, 0);
}

// ----------------------------------------------------------- exhaustion ----

TEST(RetryTaxonomyTest, MaxAttemptsExhaustionRethrows) {
  azure::RetryPolicy p = exact_policy();
  p.max_backoff = p.backoff;  // a fixed sleep
  p.max_attempts = 4;
  const Outcome o = drive(p, 1'000'000, Err::kTimeout);
  EXPECT_TRUE(o.threw);
  EXPECT_EQ(o.calls, 4);    // total attempts, first included
  EXPECT_EQ(o.retries, 3);  // backoffs slept between them
  EXPECT_EQ(o.elapsed, 3 * sim::millis(500));
}

TEST(RetryTaxonomyTest, SingleAttemptPolicyNeverSleeps) {
  azure::RetryPolicy p = exact_policy();
  p.max_attempts = 1;
  const Outcome o = drive(p, 1, Err::kBusy);
  EXPECT_TRUE(o.threw);
  EXPECT_EQ(o.calls, 1);
  EXPECT_EQ(o.elapsed, 0);
}

TEST(RetryTaxonomyTest, MaxAttemptsOneIsExactlyOneAttemptPerErrorClass) {
  // Attempt-budget boundary (RetryPolicy::gives_up): max_attempts counts
  // TOTAL attempts, so 1 means "never retry" for every transient class —
  // no second call, no backoff sleep, the error rethrown as-is.
  for (Err e : {Err::kBusy, Err::kTimeout, Err::kReset, Err::kChecksum}) {
    azure::RetryPolicy p = exact_policy();
    p.max_attempts = 1;
    const Outcome o = drive(p, /*failures=*/1, e);
    EXPECT_EQ(o.calls, 1) << "class " << static_cast<int>(e);
    EXPECT_EQ(o.retries, 0) << "class " << static_cast<int>(e);
    EXPECT_TRUE(o.threw) << "class " << static_cast<int>(e);
    EXPECT_EQ(o.elapsed, 0) << "class " << static_cast<int>(e);
  }
}

TEST(RetryTaxonomyTest, MaxAttemptsTwoIsExactlyOneRetryPerErrorClass) {
  for (Err e : {Err::kBusy, Err::kTimeout, Err::kReset, Err::kChecksum}) {
    azure::RetryPolicy p = exact_policy();
    p.max_attempts = 2;
    // Persistent failure: the first try plus exactly one retry, then the
    // second attempt's error surfaces.
    const Outcome exhausted = drive(p, /*failures=*/1'000, e);
    EXPECT_EQ(exhausted.calls, 2) << "class " << static_cast<int>(e);
    EXPECT_EQ(exhausted.retries, 1) << "class " << static_cast<int>(e);
    EXPECT_TRUE(exhausted.threw) << "class " << static_cast<int>(e);
    // One transient failure: the single allowed retry recovers.
    const Outcome recovered = drive(p, /*failures=*/1, e);
    EXPECT_EQ(recovered.calls, 2) << "class " << static_cast<int>(e);
    EXPECT_EQ(recovered.retries, 1) << "class " << static_cast<int>(e);
    EXPECT_EQ(recovered.result, 7) << "class " << static_cast<int>(e);
  }
}

// -------------------------------------------------------- backoff shape ----

TEST(RetryBackoffTest, ExponentialGrowthCapsAtMaxBackoff) {
  azure::RetryPolicy p;
  p.jitter = 0.0;
  p.backoff = sim::millis(500);
  p.max_backoff = sim::seconds(4);
  EXPECT_EQ(p.backoff_for(0), sim::millis(500));
  EXPECT_EQ(p.backoff_for(1), sim::seconds(1));
  EXPECT_EQ(p.backoff_for(2), sim::seconds(2));
  EXPECT_EQ(p.backoff_for(3), sim::seconds(4));
  EXPECT_EQ(p.backoff_for(4), sim::seconds(4));   // capped
  EXPECT_EQ(p.backoff_for(30), sim::seconds(4));  // no overflow at depth
}

TEST(RetryBackoffTest, CapEqualToBackoffIsAFixedSleep) {
  azure::RetryPolicy p;
  p.jitter = 0.0;
  p.backoff = sim::millis(900);
  p.max_backoff = p.backoff;
  for (int r = 0; r <= 30; ++r) {
    EXPECT_EQ(p.backoff_for(r), p.backoff) << "retry " << r;
  }
}

TEST(RetryBackoffTest, InitialBackoffAboveCapIsClamped) {
  azure::RetryPolicy p;
  p.jitter = 0.0;
  p.backoff = sim::seconds(8);
  p.max_backoff = sim::seconds(4);
  EXPECT_EQ(p.backoff_for(0), sim::seconds(4));
}

TEST(RetryBackoffTest, JitterIsDeterministicAndBounded) {
  azure::RetryPolicy p;  // default jitter = 0.25
  azure::RetryPolicy q = p;
  for (int r = 0; r < 16; ++r) {
    const sim::Duration a = p.backoff_for(r);
    // Same policy, same retry index => bit-identical backoff.
    EXPECT_EQ(a, q.backoff_for(r)) << "retry " << r;
    // Within [1 - jitter, 1 + jitter] of the un-jittered base (and never
    // above the cap).
    azure::RetryPolicy bare = p;
    bare.jitter = 0.0;
    const double base = static_cast<double>(bare.backoff_for(r));
    EXPECT_GE(static_cast<double>(a), 0.75 * base - 1.0);
    EXPECT_LE(static_cast<double>(a),
              std::min(1.25 * base + 1.0,
                       static_cast<double>(p.max_backoff)));
    EXPECT_GT(a, 0);
  }
}

TEST(RetryBackoffTest, DistinctJitterSeedsDecorrelate) {
  azure::RetryPolicy a;
  azure::RetryPolicy b;
  b.jitter_seed = 1;
  bool any_differ = false;
  for (int r = 0; r < 8; ++r) {
    any_differ = any_differ || (a.backoff_for(r) != b.backoff_for(r));
  }
  EXPECT_TRUE(any_differ);
}

// ------------------------------------------------------ the paper preset ----

TEST(RetryPaperPresetTest, FixedOneSecondSleep) {
  const azure::RetryPolicy p = azure::RetryPolicy::paper();
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(p.backoff_for(r), sim::kSecond) << "retry " << r;
  }
}

TEST(RetryPaperPresetTest, SurfacesInjectedFaultsInsteadOfHidingThem) {
  const Outcome timeout = drive(azure::RetryPolicy::paper(), 1, Err::kTimeout);
  EXPECT_TRUE(timeout.threw);
  EXPECT_EQ(timeout.calls, 1);
  const Outcome reset = drive(azure::RetryPolicy::paper(), 1, Err::kReset);
  EXPECT_TRUE(reset.threw);
  // The 2010-era client had no end-to-end checksum machinery either.
  const Outcome crc = drive(azure::RetryPolicy::paper(), 1, Err::kChecksum);
  EXPECT_TRUE(crc.threw);
  EXPECT_EQ(crc.calls, 1);
  // ...but the paper-era ServerBusy is still retried after 1 s.
  const Outcome busy = drive(azure::RetryPolicy::paper(), 2, Err::kBusy);
  EXPECT_EQ(busy.result, 7);
  EXPECT_EQ(busy.elapsed, 2 * sim::kSecond);
}

// -------------------------------------------------- the open-loop preset ----

TEST(RetryOpenLoopPresetTest, MakesExactlyFourAttempts) {
  const azure::RetryPolicy p = azure::RetryPolicy::open_loop(7);
  const Outcome o = drive(p, 10, Err::kBusy);
  EXPECT_TRUE(o.threw);
  EXPECT_EQ(o.calls, 4);
  EXPECT_EQ(o.retries, 3);
  EXPECT_EQ(o.elapsed, p.backoff_for(0) + p.backoff_for(1) + p.backoff_for(2));
}

TEST(RetryOpenLoopPresetTest, BackoffsDoubleFrom250MsAndClampAtOneSecond) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const azure::RetryPolicy p = azure::RetryPolicy::open_loop(seed);
    EXPECT_NEAR(p.backoff_for(0), sim::millis(250), sim::millis(0.5));
    EXPECT_NEAR(p.backoff_for(1), sim::millis(500), sim::millis(1));
    EXPECT_LE(p.backoff_for(2), sim::kSecond);
    EXPECT_GE(p.backoff_for(2), sim::millis(998));
  }
}

TEST(RetryOpenLoopPresetTest, RetriesServerBusyAndSlowDown) {
  for (Err e : {Err::kBusy, Err::kSlowDown}) {
    const Outcome o = drive(azure::RetryPolicy::open_loop(3), 3, e);
    EXPECT_EQ(o.result, 7) << "class " << static_cast<int>(e);
    EXPECT_EQ(o.calls, 4) << "class " << static_cast<int>(e);
  }
}

TEST(RetryOpenLoopPresetTest, RethrowsEveryOtherTransientErrorAtOnce) {
  for (Err e : kFaultClasses) {
    const Outcome o = drive(azure::RetryPolicy::open_loop(3), 1, e);
    EXPECT_TRUE(o.threw) << "class " << static_cast<int>(e);
    EXPECT_EQ(o.calls, 1) << "class " << static_cast<int>(e);
    EXPECT_EQ(o.elapsed, 0) << "class " << static_cast<int>(e);
  }
}

TEST(RetryOpenLoopPresetTest, DistinctSeedsGiveDistinctJitter) {
  std::set<sim::Duration> first_backoffs;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    first_backoffs.insert(azure::RetryPolicy::open_loop(seed).backoff_for(0));
  }
  EXPECT_EQ(first_backoffs.size(), 16u);
}

// ------------------------------------- preset divergence (regression) -------

/// End-to-end queue workload under a given policy; returns the virtual end
/// time. `tx_limit` throttles the account to force ServerBusy retries.
sim::TimePoint queue_workload_end(const azure::RetryPolicy& policy,
                                  int tx_limit) {
  azure::CloudConfig cfg;
  if (tx_limit > 0) cfg.cluster.account_transactions_per_sec = tx_limit;
  TestWorld w(cfg);
  w.sim.spawn([](TestWorld& t, azure::RetryPolicy pol) -> Task<> {
    auto q = t.account.create_cloud_queue_client().get_queue_reference("w");
    co_await azure::with_retry(
        t.sim, [&] { return q.create_if_not_exists(); }, pol);
    for (int i = 0; i < 25; ++i) {
      co_await azure::with_retry(
          t.sim, [&] { return q.add_message(azure::Payload::bytes("m")); },
          pol);
    }
  }(w, policy));
  w.sim.run();
  return w.sim.now();
}

// ------------------------------------------------- cross-region redirects ----

TEST(RetryPaperPresetTest, PaperPresetSurfacesGeoRedirects) {
  // The paper-era model is a single stamp: a region failover must surface,
  // never be absorbed (same rule as the partition-move redirect).
  const Outcome o = drive(azure::RetryPolicy::paper(), 1, Err::kRegionMoved);
  EXPECT_TRUE(o.threw);
  EXPECT_EQ(o.calls, 1);
}

TEST(RetryPaperPresetTest, PresetsDivergeOnlyWhenRetriesOccur) {
  // Unthrottled: no retry ever fires, so the policy's backoff shape is
  // invisible and both presets land on the identical virtual end time.
  // This is the byte-identity guarantee the fig4-fig9 benchmarks rely on.
  EXPECT_EQ(queue_workload_end(azure::RetryPolicy::paper(), 0),
            queue_workload_end(azure::RetryPolicy{}, 0));
  // Throttled: ServerBusy retries fire and the backoff shapes (fixed 1 s
  // vs. jittered exponential) produce different schedules.
  EXPECT_NE(queue_workload_end(azure::RetryPolicy::paper(), 2),
            queue_workload_end(azure::RetryPolicy{}, 2));
}

}  // namespace
