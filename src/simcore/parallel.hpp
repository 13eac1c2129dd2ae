// Sharded parallel DES kernel: domain-partitioned event queues run in
// lock-step lookahead windows.
//
// Each of `domains` shards owns a complete sequential sim::Simulation (event
// queue, frame-pool arena, forked RNG streams), so domains share no state.
// They interact only through post(): a callable stamped (at, src, seq) and
// merged into the destination's timeline at `at`. Every cross-domain send
// is at least `lookahead` in the future (the minimum inter-domain link
// latency). run() repeats one window:
//
//   1. T = the earliest pending event or staged message over all domains;
//   2. every domain executes everything stamped below T + lookahead;
//   3. at a barrier, that window's cross-domain sends move from their
//      senders' outboxes to their destinations' staging heaps.
//
// During a window every domain clock is >= T, so every send is stamped
// >= T + lookahead: nothing sent in a window is due inside it. With one
// domain nothing crosses, so the horizon is unbounded. Windows jump straight
// to the next pending event, however long the idle gap before it.
//
// Determinism: a domain merges in (at, src, seq) order, messages first at
// equal `at` (a message stamped T left its sender by T - lookahead, before
// any local event created at T). That order depends on the decomposition
// only, never on the thread count or on wall-clock interleaving, so
// `threads=N` output is byte-identical to `threads=1` (parallel_test.cpp).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "simcore/frame_pool.hpp"
#include "simcore/simulation.hpp"
#include "simcore/time.hpp"

namespace sim::par {

/// Execution options for ShardedSimulation.
struct Options {
  /// Number of logical event-queue shards. Outputs are a function of the
  /// domain decomposition only, never of `threads`.
  int domains = 1;
  /// Worker threads driving the domains (0 = one per domain). `threads=1`
  /// runs the same windows on the calling thread: the parity reference.
  int threads = 0;
  /// Conservative lookahead: the minimum virtual-time distance of any
  /// cross-domain send, the minimum inter-domain link latency. Must be
  /// > 0 when domains > 1.
  Duration lookahead = 0;
};

namespace detail {

/// One cross-domain message: run `fn` in domain `dst` at `at`. (at, src,
/// seq) is the deterministic merge key; seq counts sends per source domain,
/// so the key is unique and decomposition-deterministic.
struct CrossEvent {
  TimePoint at = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t seq = 0;
  std::function<void()> fn;
};

/// Merge order at the destination: earliest timestamp first, ties broken by
/// (src, seq). Used as a max-heap comparator (std::push_heap), so "greater".
struct CrossEventAfter {
  bool operator()(const CrossEvent& a, const CrossEvent& b) const noexcept {
    if (a.at != b.at) return a.at > b.at;
    if (a.src != b.src) return a.src > b.src;
    return a.seq > b.seq;
  }
};

}  // namespace detail

/// Owns one sim::Simulation per domain and drives them in the windows above.
/// Thread affinity is static — worker w runs domains w, w + threads, … —
/// so each domain's Simulation, frame arena, staging heap and outbox stay
/// single-threaded within a window. The barrier between windows is the only
/// synchronization: its completion step runs alone while every worker waits.
class ShardedSimulation {
 public:
  explicit ShardedSimulation(const Options& opt);
  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  int domains() const noexcept { return static_cast<int>(doms_.size()); }
  int threads() const noexcept { return threads_; }
  Duration lookahead() const noexcept { return opt_.lookahead; }

  Simulation& domain(int d) { return doms_[index(d)]->sim; }
  const Simulation& domain(int d) const { return doms_[index(d)]->sim; }

  /// The frame arena backing domain `d`'s coroutine frames (test hook).
  const sim::detail::FramePool::Arena& arena(int d) const {
    return doms_[index(d)]->arena;
  }

  /// Schedules `fn` to run inside domain `dst` at virtual time `at`.
  /// Must be issued from code executing inside domain `src` (or from the
  /// setup thread before run()), and `at` must respect the lookahead:
  /// at >= domain(src).now() + lookahead. Delivery order at `dst` is the
  /// deterministic (at, src, seq) merge order. src == dst is allowed: the
  /// message joins the same merge order, delivered before any local event
  /// later than its stamp.
  template <class F>
  void post(int src, int dst, TimePoint at, F&& fn) {
    if (src < 0 || src >= domains() || dst < 0 || dst >= domains()) {
      throw std::out_of_range("ShardedSimulation::post: domain id out of range");
    }
    Domain& s = *doms_[index(src)];
    if (at < s.sim.now() + opt_.lookahead) {
      throw std::logic_error(
          "ShardedSimulation::post violates the conservative lookahead: "
          "cross-domain sends must be >= lookahead in the future");
    }
    detail::CrossEvent ev{at, static_cast<std::uint32_t>(src),
                          static_cast<std::uint32_t>(dst), s.send_seq++,
                          std::function<void()>(std::forward<F>(fn))};
    // A self-post is staged at once (only this domain's worker touches the
    // heap): with one domain the window is unbounded, so it can be due
    // inside it. Everything else waits in the outbox for the barrier.
    if (src == dst) {
      stage(s, std::move(ev));
    } else {
      s.outbox.push_back(std::move(ev));
    }
  }

  /// Runs every domain to completion (all queues and staging heaps empty).
  /// Rethrows the error of the smallest failing domain id. Callable
  /// repeatedly: processes spawned after a run() extend the world.
  void run();

  /// Events executed across all domains, including delivered cross-domain
  /// messages — invariant across thread counts for a fixed decomposition.
  std::uint64_t events_executed() const;

  /// Cross-domain messages delivered so far.
  std::uint64_t cross_events_delivered() const;

  /// Largest domain clock — the virtual makespan of the run.
  TimePoint max_now() const;

 private:
  struct Domain {
    Simulation sim;
    sim::detail::FramePool::Arena arena;
    std::vector<detail::CrossEvent> staging;  // heap, CrossEventAfter order
    std::vector<detail::CrossEvent> outbox;   // this window's remote sends
    std::uint64_t send_seq = 0;               // stamps for sends FROM here
    std::uint64_t delivered = 0;              // staged messages executed
    std::exception_ptr error{};
  };

  std::size_t index(int d) const {
    assert(d >= 0 && d < domains() && "domain id out of range");
    return static_cast<std::size_t>(d);
  }

  static void stage(Domain& dom, detail::CrossEvent&& ev) {
    dom.staging.push_back(std::move(ev));
    std::push_heap(dom.staging.begin(), dom.staging.end(),
                   detail::CrossEventAfter{});
  }

  void run_window(Domain& dom);
  void end_window() noexcept;

  Options opt_;
  int threads_ = 1;
  std::vector<std::unique_ptr<Domain>> doms_;
  /// Set by the completion step; workers read them after the barrier.
  TimePoint horizon_ = 0;
  bool done_ = false;
};

}  // namespace sim::par
