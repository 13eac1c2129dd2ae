// Client-side retry policy.
//
// The paper's benchmarks handle ServerBusy by sleeping one second and
// retrying the same operation ("when we run into such exceptions, the worker
// sleeps for a second before retrying") — that exact behaviour is preserved
// as RetryPolicy::paper() and used by every figure-reproduction workload.
//
// New code defaults to capped exponential backoff with deterministic jitter
// that also retries the fault-injection layer's transient errors
// (TimeoutError, ConnectionResetError, ChecksumMismatchError) and the stale
// partition-map and geo-map redirects alongside the paper-era
// ServerBusyError. Service-semantic errors (NotFound, Conflict,
// PreconditionFailed, InvalidArgument) are never retried: retrying them
// cannot succeed.
#pragma once

#include <algorithm>
#include <cstdint>

#include "azure/common/errors.hpp"
#include "obs/observer.hpp"
#include "simcore/random.hpp"
#include "simcore/simulation.hpp"
#include "simcore/task.hpp"
#include "simcore/time.hpp"

namespace azure {

struct RetryPolicy {
  /// First backoff; each later one is kBackoffMultiplier times the last,
  /// capped at max_backoff. With no jitter, max_backoff == backoff is a
  /// fixed sleep (the paper's 1 s).
  sim::Duration backoff = sim::millis(500);
  /// Upper bound on any single backoff, jitter included.
  sim::Duration max_backoff = sim::seconds(32);
  /// Deterministic jitter: each backoff is scaled by a factor drawn
  /// uniformly from [1 - jitter, 1 + jitter]. The draw is a pure hash of
  /// (jitter_seed, retry index) — bit-reproducible, no shared RNG state.
  /// Give concurrent workers distinct seeds to decorrelate their retries.
  double jitter = 0.25;
  std::uint64_t jitter_seed = 0;
  /// Total attempts (first try included) before the error is rethrown.
  int max_attempts = 1'000;  // effectively "retry until it works"
  /// Whether the transient fault classes are retried: timeouts, connection
  /// resets, checksum mismatches and stale partition-map and geo-map
  /// redirects. ServerBusy is retried under every policy; anything else is
  /// rethrown immediately.
  bool retry_faults = true;

  /// The paper's client policy: fixed 1 s sleep, ServerBusy only. With this
  /// preset (and no injected faults) retry timing is byte-identical to the
  /// original benchmarks. The fault classes did not exist in the paper's
  /// model, which is one stamp with a static partition placement, so the
  /// preset surfaces them instead of hiding them.
  static constexpr RetryPolicy paper() {
    RetryPolicy p;
    p.backoff = sim::kSecond;
    p.max_backoff = sim::kSecond;
    p.jitter = 0.0;
    p.retry_faults = false;
    return p;
  }

  /// The open-loop session policy (the scenario runner's load phase, and
  /// so every generic spec): ServerBusy only (SlowDown included), 4 attempts,
  /// 250 ms doubling capped at 1 s. A session that exhausts it dead-letters
  /// as a throttle failure, and any other error is the session's outcome.
  /// Seed the jitter (±0.2%, about ±0.5 ms on the first backoff) with the
  /// session id so concurrent sessions do not retry in lockstep.
  static constexpr RetryPolicy open_loop(std::uint64_t jitter_seed) {
    RetryPolicy p;
    p.backoff = sim::millis(250);
    p.max_backoff = sim::kSecond;
    p.jitter = 0.002;
    p.jitter_seed = jitter_seed;
    p.max_attempts = 4;
    p.retry_faults = false;
    return p;
  }

  /// Whether an error of a class with retryability `class_retryable`,
  /// caught after `retries` completed retries (i.e. on attempt
  /// `retries + 1`), must be rethrown instead of retried. With
  /// max_attempts == N exactly N attempts run (first try plus N - 1
  /// retries).
  bool gives_up(bool class_retryable, int retries) const noexcept {
    return !class_retryable || retries + 1 >= max_attempts;
  }

  /// Backoff before retry number `retry` (0-based). Pure function of the
  /// policy and the retry index.
  sim::Duration backoff_for(int retry) const {
    const auto cap = static_cast<double>(max_backoff);
    double b = static_cast<double>(backoff);
    for (int i = 0; i < retry && b < cap; ++i) b *= kBackoffMultiplier;
    sim::Duration base = b < cap ? static_cast<sim::Duration>(b) : max_backoff;
    if (jitter > 0.0) {
      // u is uniform on [0, 1): a splitmix64 hash of (jitter_seed, retry).
      const std::uint64_t h =
          sim::stream_seed(jitter_seed, static_cast<std::uint64_t>(retry));
      const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
      const double scaled =
          static_cast<double>(base) * (1.0 - jitter + 2.0 * jitter * u);
      base = static_cast<sim::Duration>(std::min(scaled, cap));
    }
    return base > 0 ? base : sim::kNanosecond;
  }

 private:
  /// Growth factor of successive backoffs.
  static constexpr double kBackoffMultiplier = 2.0;
};

/// Runs `make_op()` (a factory returning a fresh Task each attempt),
/// retrying transient errors according to `policy` and, when `retries` is
/// given, counting each retry into it. Non-retryable errors propagate
/// immediately; the transient error is rethrown once attempts run out.
template <class MakeOp>
auto with_retry(sim::Simulation& sim, MakeOp make_op, RetryPolicy policy = {},
                std::int64_t* retries = nullptr) -> decltype(make_op()) {
  obs::RequestScope request(sim);  // root span over all attempts
  obs::Observer* const o = request.observer();
  int retry = 0;  // retries made so far
  std::uint16_t error_class = 0;
  // Called from a catch handler: labels the caught error and rethrows it
  // if the policy gives up, else returns so the loop backs off and retries.
  const auto retry_or_rethrow = [&](const char* label, bool retryable) {
    error_class = o != nullptr ? o->label(label) : 0;
    if (policy.gives_up(retryable, retry)) {
      request.fail(error_class);
      throw;
    }
  };
  for (;;) {
    request.count_attempt();
    if (o != nullptr) {
      o->metrics().counter("retry.attempts").add(1);
      // Stage this request's context for the service op about to start; it
      // claims the slot synchronously on entry (or an unwinding scope
      // clears it), so it cannot leak to another request.
      o->set_ambient(request.ctx());
    }
    try {
      co_return co_await make_op();
    } catch (const ServerBusyError&) {
      retry_or_rethrow("server_busy", true);
    } catch (const TimeoutError&) {
      retry_or_rethrow("timeout", policy.retry_faults);
    } catch (const ConnectionResetError&) {
      retry_or_rethrow("connection_reset", policy.retry_faults);
    } catch (const ChecksumMismatchError&) {
      // Corruption in flight: the upload was rejected before any state was
      // touched, or the download's end-to-end checksum failed client-side.
      // Either way the operation is safe to repeat verbatim.
      retry_or_rethrow("checksum_mismatch", policy.retry_faults);
    } catch (const PartitionMovedError&) {
      // Stale partition-map redirect: the request never executed and the
      // redirect already refreshed this client's cached map, so the retry
      // routes against fresh state.
      retry_or_rethrow("partition_moved", policy.retry_faults);
    } catch (const RegionMovedError&) {
      // Stale geo-map redirect: the primary region failed over since this
      // client last routed. The redirect refreshed the client's cached geo
      // map, so the retry reaches the promoted region.
      retry_or_rethrow("region_moved", policy.retry_faults);
    }
    // Only a handler that chose to retry gets here. co_await is not
    // permitted inside a catch handler, so the backoff waits until now.
    if (retries != nullptr) ++*retries;
    const sim::TimePoint backoff_start = sim.now();
    co_await sim.delay(policy.backoff_for(retry++));
    if (o != nullptr) {
      o->metrics().counter("retry.backoffs").add(1);
      o->emit(obs::SpanKind::kRetryBackoff, request.ctx(), backoff_start,
              sim.now(), error_class);
    }
  }
}

}  // namespace azure
