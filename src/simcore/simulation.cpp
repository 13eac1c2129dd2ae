#include "simcore/simulation.hpp"

namespace sim {

detail::Detached Simulation::run_process(Task<void> task) {
  try {
    co_await std::move(task);
  } catch (...) {
    fail(std::current_exception());
  }
  --live_processes_;
}

void Simulation::spawn(Task<void> task) {
  push_new_frame(now_, run_process(std::move(task)).handle);
  ++live_processes_;
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  // Pop-then-run: the node is fully removed from the queue before the
  // frame resumes, so it may freely schedule new events.
  const auto node = queue_.pop();
  now_ = node.at;
  ++events_executed_;
  std::coroutine_handle<>::from_address(node.frame).resume();
  return true;
}

void Simulation::run() {
  while (!first_error_ && step()) {
  }
  if (auto err = take_error()) std::rethrow_exception(err);
}

bool Simulation::run_until(TimePoint t) {
  while (!first_error_ && !queue_.empty() && queue_.min_time() <= t) {
    step();
  }
  if (auto err = take_error()) std::rethrow_exception(err);
  if (now_ < t) now_ = t;
  return !queue_.empty();
}

}  // namespace sim
