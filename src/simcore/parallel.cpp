#include "simcore/parallel.hpp"

#include <barrier>
#include <thread>

namespace sim::par {

namespace {

TimePoint staged_min(const std::vector<detail::CrossEvent>& staging) noexcept {
  return staging.empty() ? Simulation::kNever : staging.front().at;
}

}  // namespace

ShardedSimulation::ShardedSimulation(const Options& opt) : opt_(opt) {
  if (opt.domains < 1) {
    throw std::invalid_argument("ShardedSimulation: domains must be >= 1");
  }
  if (opt.domains > 1 && opt.lookahead <= 0) {
    throw std::invalid_argument(
        "ShardedSimulation: a positive lookahead (the minimum cross-domain "
        "link latency) is required when domains > 1");
  }
  threads_ = std::min(opt.threads > 0 ? opt.threads : opt.domains,
                      opt.domains);
  doms_.reserve(static_cast<std::size_t>(opt.domains));
  for (int d = 0; d < opt.domains; ++d) {
    doms_.push_back(std::make_unique<Domain>());
  }
}

std::uint64_t ShardedSimulation::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& dom : doms_) total += dom->sim.events_executed();
  return total;
}

std::uint64_t ShardedSimulation::cross_events_delivered() const {
  std::uint64_t total = 0;
  for (const auto& dom : doms_) total += dom->delivered;
  return total;
}

TimePoint ShardedSimulation::max_now() const {
  TimePoint t = 0;
  for (const auto& dom : doms_) t = std::max(t, dom->sim.now());
  return t;
}

// Executes `dom` in merge order up to the horizon, its frames in its own
// arena. A failure stops this domain's window only; the completion step then
// ends the run.
void ShardedSimulation::run_window(Domain& dom) {
  const sim::detail::FramePool::Scope frames(dom.arena);
  try {
    for (;;) {
      const TimePoint lt = dom.sim.next_event_time();
      const TimePoint mt = staged_min(dom.staging);
      if (std::min(lt, mt) >= horizon_) return;
      if (mt <= lt) {
        std::pop_heap(dom.staging.begin(), dom.staging.end(),
                      detail::CrossEventAfter{});
        detail::CrossEvent ev = std::move(dom.staging.back());
        dom.staging.pop_back();
        dom.sim.advance_to(ev.at);
        dom.sim.note_external_event();
        ++dom.delivered;
        ev.fn();
      } else {
        dom.sim.step();
      }
      if (dom.sim.failed()) {
        dom.error = dom.sim.take_error();
        return;
      }
    }
  } catch (...) {
    dom.error = std::current_exception();
  }
}

// The barrier's completion step. It runs alone, after every worker has
// finished the window and before any is released, so it may touch every
// domain: it hands each outbox to its destinations and picks the next
// horizon, or ends the run when a domain failed or nothing is pending.
void ShardedSimulation::end_window() noexcept {
  for (auto& src : doms_) {
    for (detail::CrossEvent& ev : src->outbox) {
      Domain& dst = *doms_[ev.dst];
      try {
        stage(dst, std::move(ev));
      } catch (...) {
        if (!dst.error) dst.error = std::current_exception();
      }
    }
    src->outbox.clear();
  }
  TimePoint t = Simulation::kNever;
  bool failed = false;
  for (const auto& dom : doms_) {
    t = std::min({t, dom->sim.next_event_time(), staged_min(dom->staging)});
    failed = failed || dom->error;
  }
  done_ = failed || t == Simulation::kNever;
  const bool unbounded =
      doms_.size() == 1 || t > Simulation::kNever - opt_.lookahead;
  horizon_ = unbounded ? Simulation::kNever : t + opt_.lookahead;
}

void ShardedSimulation::run() {
  // The first barrier delivers setup-time posts and opens the first window.
  // The calling thread is worker 0; the helpers join when the scope closes.
  std::barrier sync(threads_, [this]() noexcept { end_window(); });
  const auto work = [this, &sync](int w) {
    for (;;) {
      sync.arrive_and_wait();
      if (done_) return;
      for (int d = w; d < domains(); d += threads_) {
        run_window(*doms_[index(d)]);
      }
    }
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(static_cast<std::size_t>(threads_ - 1));
    try {
      for (int w = 1; w < threads_; ++w) helpers.emplace_back(work, w);
    } catch (...) {
      // The host refused a thread: run with the helpers that started. The
      // dropped arrivals let them past the first barrier, and they read the
      // smaller stride only after it.
      const int started = static_cast<int>(helpers.size()) + 1;
      for (int w = started; w < threads_; ++w) sync.arrive_and_drop();
      threads_ = started;
    }
    work(0);
  }
  for (auto& dom : doms_) {
    if (dom->error) std::rethrow_exception(std::exchange(dom->error, nullptr));
  }
}

}  // namespace sim::par
