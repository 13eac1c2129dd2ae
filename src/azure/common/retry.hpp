// Client-side retry policy.
//
// The paper's benchmarks handle ServerBusy by sleeping one second and
// retrying the same operation ("when we run into such exceptions, the worker
// sleeps for a second before retrying") — that exact behaviour is preserved
// as RetryPolicy::paper() and used by every figure-reproduction workload.
//
// New code defaults to capped exponential backoff with deterministic jitter
// and per-error-class retryability, covering the fault-injection layer's
// transient errors (TimeoutError, ConnectionResetError) alongside the
// paper-era ServerBusyError. Service-semantic errors (NotFound, Conflict,
// PreconditionFailed, InvalidArgument) are never retried: retrying them
// cannot succeed.
#pragma once

#include <cstdint>
#include <utility>

#include "azure/common/errors.hpp"
#include "obs/observer.hpp"
#include "simcore/simulation.hpp"
#include "simcore/task.hpp"
#include "simcore/time.hpp"

namespace azure {

enum class Backoff {
  /// Constant `backoff` between attempts (the paper's 1 s sleep).
  kFixed,
  /// backoff * kBackoffMultiplier^retry, capped at max_backoff.
  kExponential,
};

struct RetryPolicy {
  Backoff mode = Backoff::kExponential;
  /// First (and, in kFixed mode, every) backoff.
  sim::Duration backoff = sim::millis(500);
  /// Upper bound on any single backoff in kExponential mode.
  sim::Duration max_backoff = sim::seconds(32);
  /// Deterministic jitter: each backoff is scaled by a factor drawn
  /// uniformly from [1 - jitter, 1 + jitter]. The draw is a pure hash of
  /// (jitter_seed, retry index) — bit-reproducible, no shared RNG state.
  /// Give concurrent workers distinct seeds to decorrelate their retries.
  double jitter = 0.25;
  std::uint64_t jitter_seed = 0;
  /// Total attempts (first try included) before the error is rethrown.
  int max_attempts = 1'000;  // effectively "retry until it works"

  // Per-error-class retryability; ServerBusy is always retryable
  // (detail::kRetryServerBusy). Anything not listed here is rethrown
  // immediately.
  bool retry_timeouts = true;          // lost request/response
  bool retry_connection_resets = true; // server crashed mid-request
  bool retry_checksum_mismatch = true; // payload corrupted in flight
  bool retry_partition_moved = true;   // stale partition-map redirect
  bool retry_region_moved = true;      // stale geo-map redirect (failover)

  /// The paper's client policy: fixed 1 s sleep, ServerBusy only. With this
  /// preset (and no injected faults) retry timing is byte-identical to the
  /// original benchmarks. Timeouts, resets, and checksum mismatches did not
  /// exist in the paper's model, so the preset surfaces them instead of
  /// hiding them.
  static constexpr RetryPolicy paper() {
    RetryPolicy p;
    p.mode = Backoff::kFixed;
    p.backoff = sim::kSecond;
    p.jitter = 0.0;
    p.retry_timeouts = false;
    p.retry_connection_resets = false;
    p.retry_checksum_mismatch = false;
    // The paper-era model routes with a static partition placement: a moved
    // partition cannot occur in a frozen figure run, and the preset must
    // surface one (not absorb it) if a misconfiguration ever produces it.
    // The same goes for a region failover — the paper model is one stamp.
    p.retry_partition_moved = false;
    p.retry_region_moved = false;
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
    p.retry_timeouts = false;
    p.retry_connection_resets = false;
    p.retry_checksum_mismatch = false;
    p.retry_partition_moved = false;
    p.retry_region_moved = false;
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
    sim::Duration base = backoff;
    if (mode == Backoff::kExponential) {
      double b = static_cast<double>(backoff);
      for (int i = 0; i < retry && b < static_cast<double>(max_backoff); ++i) {
        b *= kBackoffMultiplier;
      }
      base = b < static_cast<double>(max_backoff)
                 ? static_cast<sim::Duration>(b)
                 : max_backoff;
    }
    if (jitter > 0.0) {
      const double u = jitter_unit(jitter_seed, retry);
      double scaled =
          static_cast<double>(base) * (1.0 - jitter + 2.0 * jitter * u);
      if (mode == Backoff::kExponential &&
          scaled > static_cast<double>(max_backoff)) {
        scaled = static_cast<double>(max_backoff);
      }
      base = static_cast<sim::Duration>(scaled);
    }
    return base > 0 ? base : sim::kNanosecond;
  }

 private:
  /// Growth factor of successive kExponential backoffs.
  static constexpr double kBackoffMultiplier = 2.0;

  /// splitmix64-style hash of (seed, retry) onto [0, 1) — platform-identical.
  static double jitter_unit(std::uint64_t seed, int retry) {
    std::uint64_t z =
        seed + 0x9E3779B97F4A7C15ull *
                   (static_cast<std::uint64_t>(retry) + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  }
};

namespace detail {
/// Error-class labels interned on first use (tracing only).
inline std::uint16_t error_label(obs::Observer* o, const char* name) {
  return o != nullptr ? o->label(name) : 0;
}

/// ServerBusy (HTTP 503 throttling) is retryable under every policy.
inline constexpr bool kRetryServerBusy = true;

/// The retry loop behind with_retry_counted and with_retry (which passes
/// no counter, so it adds no coroutine frame of its own).
template <class MakeOp>
auto retry_loop(sim::Simulation& sim, MakeOp make_op, RetryPolicy policy,
                std::int64_t* retries_out) -> decltype(make_op()) {
  obs::RequestScope request(sim);  // root span over all attempts
  obs::Observer* const o = request.observer();
  int retries = 0;
  std::uint16_t error_class = 0;
  // Called from a catch handler: labels the caught error and rethrows it
  // if the policy gives up, else returns so the loop backs off and retries.
  const auto retry_or_rethrow = [&](const char* label, bool retryable) {
    error_class = error_label(o, label);
    if (policy.gives_up(retryable, retries)) {
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
      retry_or_rethrow("server_busy", kRetryServerBusy);
    } catch (const TimeoutError&) {
      retry_or_rethrow("timeout", policy.retry_timeouts);
    } catch (const ConnectionResetError&) {
      retry_or_rethrow("connection_reset", policy.retry_connection_resets);
    } catch (const ChecksumMismatchError&) {
      // Corruption in flight: the upload was rejected before any state was
      // touched, or the download's end-to-end checksum failed client-side.
      // Either way the operation is safe to repeat verbatim.
      retry_or_rethrow("checksum_mismatch", policy.retry_checksum_mismatch);
    } catch (const PartitionMovedError&) {
      // Stale partition-map redirect: the request never executed and the
      // redirect already refreshed this client's cached map, so the retry
      // routes against fresh state.
      retry_or_rethrow("partition_moved", policy.retry_partition_moved);
    } catch (const RegionMovedError&) {
      // Stale geo-map redirect: the primary region failed over since this
      // client last routed. The redirect refreshed the client's cached geo
      // map, so the retry reaches the promoted region.
      retry_or_rethrow("region_moved", policy.retry_region_moved);
    }
    // Only a handler that chose to retry gets here. co_await is not
    // permitted inside a catch handler, so the backoff waits until now.
    if (retries_out != nullptr) ++*retries_out;
    const sim::TimePoint backoff_start = sim.now();
    co_await sim.delay(policy.backoff_for(retries++));
    if (o != nullptr) {
      o->metrics().counter("retry.backoffs").add(1);
      o->emit(obs::SpanKind::kRetryBackoff, request.ctx(), backoff_start,
              sim.now(), error_class);
    }
  }
}

}  // namespace detail

/// Runs `make_op()` (a factory returning a fresh Task each attempt),
/// retrying transient errors according to `policy` and counting retries
/// into `retries_out`. Non-retryable errors propagate immediately; the
/// transient error is rethrown once attempts run out.
template <class MakeOp>
auto with_retry_counted(sim::Simulation& sim, MakeOp make_op,
                        RetryPolicy policy, std::int64_t& retries_out)
    -> decltype(make_op()) {
  return detail::retry_loop(sim, std::move(make_op), policy, &retries_out);
}

/// with_retry_counted without the counter.
template <class MakeOp>
auto with_retry(sim::Simulation& sim, MakeOp make_op, RetryPolicy policy = {})
    -> decltype(make_op()) {
  return detail::retry_loop(sim, std::move(make_op), policy, nullptr);
}

}  // namespace azure
