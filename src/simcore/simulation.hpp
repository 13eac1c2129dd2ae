// The discrete-event simulation engine: a virtual clock plus an ordered
// event queue of coroutine resumes.
//
// Processes are `sim::Task<void>` coroutines registered with `spawn()`.
// Same-timestamp events run in scheduling order (a monotonically increasing
// sequence number breaks ties), which makes every run deterministic.
//
// The event core is allocation-free in steady state: every event is a bare
// coroutine handle in the queue (see event.hpp), and coroutine frames come
// from a size-bucketed free list (frame_pool.hpp). A callback scheduled with
// schedule_at() runs in a one-shot coroutine frame from that pool.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <limits>
#include <type_traits>
#include <utility>

#include "simcore/event.hpp"
#include "simcore/frame_pool.hpp"
#include "simcore/task.hpp"
#include "simcore/time.hpp"

namespace obs {
class Observer;  // see obs/observer.hpp; forward-declared to avoid a cycle
}

namespace sim {

namespace detail {

/// One-shot coroutine wrapper around a root process or a scheduled callback.
/// It starts suspended; the event queue owns it until its first resume, and
/// it destroys itself when it returns.
struct Detached {
  struct promise_type {
    void* operator new(std::size_t n) { return FramePool::allocate(n); }
    void operator delete(void* p, std::size_t n) noexcept {
      FramePool::deallocate(p, n);
    }

    Detached get_return_object() {
      return Detached{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() const noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
  std::coroutine_handle<> handle;
};

}  // namespace detail

/// The simulation engine. Not thread-safe by design: a simulation is a
/// single-threaded deterministic event loop; parallelism inside the modeled
/// world is expressed with coroutine processes, not host threads.
class Simulation {
 public:
  /// Sentinel "no pending event" timestamp.
  static constexpr TimePoint kNever = std::numeric_limits<TimePoint>::max();

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time.
  TimePoint now() const noexcept { return now_; }

  /// Pre-sizes the event queue's node pool for `n` simultaneously pending
  /// events (optional; the pool grows on demand either way).
  void reserve(std::size_t n) { queue_.reserve(n); }

  /// Schedules `fn()` at `at` (must be >= now()). The callable runs in a
  /// one-shot coroutine frame; an exception it throws fails the run the way
  /// a root process's does.
  template <class F>
  void schedule_at(TimePoint at, F&& fn) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_v<D&>,
                  "scheduled callbacks must be invocable with no arguments");
    assert(at >= now_ && "cannot schedule into the past");
    push_new_frame(at, run_callback<D>(std::forward<F>(fn)).handle);
  }

  /// Schedules a callback `delay` from now.
  template <class F>
  void schedule_in(Duration delay, F&& fn) {
    schedule_at(now_ + (delay < 0 ? 0 : delay), std::forward<F>(fn));
  }

  /// Schedules resumption of a suspended coroutine.
  void schedule_resume(TimePoint at, std::coroutine_handle<> h) {
    assert(at >= now_ && "cannot schedule into the past");
    queue_.push(at, next_seq_++, h, /*owned=*/false);
  }

  /// Awaitable that suspends the caller for `d` of virtual time.
  /// `delay(0)` still yields through the event queue (a fair "yield").
  auto delay(Duration d) noexcept {
    struct Awaiter {
      Simulation& sim;
      Duration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim.schedule_resume(sim.now_ + (d < 0 ? 0 : d), h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

  /// Awaitable that suspends the caller until absolute time `t` (or yields
  /// immediately through the queue if `t` is in the past).
  auto delay_until(TimePoint t) noexcept {
    return delay(t > now_ ? t - now_ : 0);
  }

  /// Registers a root process; it starts at the current virtual time.
  void spawn(Task<void> task);

  /// Runs until the event queue is empty (or a process failed). Rethrows the
  /// first exception that escaped any root process or callback.
  void run();

  /// Runs until virtual time would exceed `t`; the clock is left at
  /// min(t, time of last executed event). Returns true if events remain.
  bool run_until(TimePoint t);

  /// Executes a single event. Returns false if the queue was empty.
  bool step();

  /// Timestamp of the earliest pending event, or kNever when the queue is
  /// empty. The parallel kernel derives each window's horizon from this.
  TimePoint next_event_time() const noexcept {
    return queue_.empty() ? kNever : queue_.min_time();
  }

  /// Moves the clock forward to `t` without executing anything — used by the
  /// parallel kernel to deliver a cross-domain event at its stamped time
  /// when no local event precedes it. No-op if `t <= now()`.
  void advance_to(TimePoint t) noexcept {
    assert(t >= now_ && "cannot advance into the past");
    if (t > now_) now_ = t;
  }

  /// Counts an externally delivered (cross-domain) event against
  /// events_executed(), keeping the statistic decomposition-independent.
  void note_external_event() noexcept { ++events_executed_; }

  /// True when a root process or callback failed and run() has not yet
  /// rethrown.
  bool failed() const noexcept { return first_error_ != nullptr; }

  /// Claims the pending failure (null if none). The parallel kernel
  /// checks this after every step so a shard error ends the run.
  std::exception_ptr take_error() noexcept {
    return std::exchange(first_error_, nullptr);
  }

  /// Number of events executed so far.
  std::uint64_t events_executed() const noexcept { return events_executed_; }

  /// Number of still-live root processes.
  int live_processes() const noexcept { return live_processes_; }

  /// Attaches (or detaches, with nullptr) the observability hub. The engine
  /// itself never calls into it — layers built on the simulation check this
  /// pointer and skip all instrumentation when it is null, so an unobserved
  /// run is byte-identical to a build without the obs layer.
  void set_observer(obs::Observer* observer) noexcept {
    observer_ = observer;
  }
  obs::Observer* observer() const noexcept { return observer_; }

 private:
  detail::Detached run_process(Task<void> task);

  template <class F>
  detail::Detached run_callback(F fn) {
    try {
      fn();
    } catch (...) {
      fail(std::current_exception());
    }
    co_return;  // makes this a coroutine, with `fn` in its frame
  }

  /// Queues the first resume of a frame that has never run; the queue owns
  /// it from here on.
  void push_new_frame(TimePoint at, std::coroutine_handle<> h) {
    try {
      queue_.push(at, next_seq_++, h, /*owned=*/true);
    } catch (...) {
      h.destroy();
      throw;
    }
  }

  void fail(std::exception_ptr e) noexcept {
    if (!first_error_) first_error_ = std::move(e);
  }

  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  int live_processes_ = 0;
  std::exception_ptr first_error_{};
  detail::EventQueue queue_;
  obs::Observer* observer_ = nullptr;
};

}  // namespace sim
