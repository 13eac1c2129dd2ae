// Rate/bandwidth limiting primitives.
//
// FlowLimiter — a fluid-flow FIFO pipe: acquiring `amount` units occupies the
// pipe for amount/rate of virtual time; used for NIC/disk/blob bandwidth and
// for blocking transaction-rate shaping. A burst window lets short bursts
// pass without delay (token-bucket credit).
//
// WindowCounter — a fixed-window transaction counter used for *rejecting*
// throttles (Azure's scalability targets): `try_consume()` fails once the
// per-window budget is exhausted, and the caller surfaces ServerBusy.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>

#include "simcore/simulation.hpp"

namespace sim {

/// Fluid-flow FIFO rate limiter ("virtual finish time" model).
class FlowLimiter {
 public:
  /// @param rate   units per second (e.g. bytes/s, messages/s); must be > 0.
  /// @param burst  units of instantaneous credit (0 = strictly serialized).
  FlowLimiter(Simulation& sim, double rate, double burst = 0.0)
      : sim_(sim),
        rate_(rate),
        burst_window_(static_cast<Duration>(burst / rate *
                                            static_cast<double>(kSecond))) {
    assert(rate > 0.0);
  }
  FlowLimiter(const FlowLimiter&) = delete;
  FlowLimiter& operator=(const FlowLimiter&) = delete;

  double rate() const noexcept { return rate_; }

  /// Awaitable: suspends until `amount` units have flowed through the pipe.
  /// FIFO by construction: each acquire books its slot synchronously.
  auto acquire(double amount) noexcept {
    // Service time for this acquisition.
    const auto service =
        static_cast<Duration>(amount / rate_ * static_cast<double>(kSecond));
    const TimePoint now = sim_.now();
    TimePoint start = next_free_;
    if (start < now - burst_window_) start = now - burst_window_;
    next_free_ = start + service;
    const TimePoint resume_at = next_free_ < now ? now : next_free_;

    struct Awaiter {
      Simulation& sim;
      TimePoint at;
      bool await_ready() const noexcept { return at <= sim.now(); }
      void await_suspend(std::coroutine_handle<> h) {
        sim.schedule_resume(at, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{sim_, resume_at};
  }

 private:
  Simulation& sim_;
  double rate_;
  Duration burst_window_;  // the burst credit as time at `rate_`
  TimePoint next_free_ = 0;
};

/// Fixed-window admission counter for rejecting throttles.
class WindowCounter {
 public:
  /// @param budget  admissions allowed per window.
  /// @param window  window length (default: 1 second, matching Azure's
  ///                "transactions per second" scalability targets).
  WindowCounter(Simulation& sim, std::int64_t budget,
                Duration window = kSecond)
      : sim_(sim), budget_(budget), window_(window) {
    assert(budget > 0 && window > 0);
  }

  std::int64_t budget() const noexcept { return budget_; }

  /// Attempts to admit `n` transactions in the current window, atomically
  /// (all admitted or none — used by batched operations).
  bool try_consume(std::int64_t n = 1) noexcept {
    roll();
    if (count_ + n > budget_) {
      ++rejected_;
      return false;
    }
    count_ += n;
    return true;
  }

  /// Total rejected admissions (for metrics and tests).
  std::int64_t rejected() const noexcept { return rejected_; }

  /// Admissions in the current window.
  std::int64_t current_window_count() noexcept {
    roll();
    return count_;
  }

 private:
  void roll() noexcept {
    const TimePoint now = sim_.now();
    if (now - window_start_ >= window_) {
      // Jump directly to the window containing `now`.
      window_start_ = now - ((now - window_start_) % window_);
      count_ = 0;
    }
  }

  Simulation& sim_;
  std::int64_t budget_;
  Duration window_;
  TimePoint window_start_ = 0;
  std::int64_t count_ = 0;
  std::int64_t rejected_ = 0;
};

}  // namespace sim
