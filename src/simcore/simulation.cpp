#include "simcore/simulation.hpp"

#include <cassert>
#include <stdexcept>

namespace sim {

std::shared_ptr<detail::ProcessState> Simulation::acquire_state(
    std::string name) {
  if (!state_pool_.empty()) {
    auto st = std::move(state_pool_.back());
    state_pool_.pop_back();
    st->done = false;
    st->error = nullptr;
    st->name = std::move(name);
    assert(st->joiners.empty());
    return st;
  }
  auto st = std::make_shared<detail::ProcessState>();
  st->name = std::move(name);
  return st;
}

detail::Detached Simulation::run_process(
    Task<void> task, std::shared_ptr<detail::ProcessState> st) {
  try {
    co_await std::move(task);
  } catch (...) {
    st->error = std::current_exception();
    if (!first_error_) first_error_ = st->error;
  }
  st->done = true;
  --live_processes_;
  for (auto j : st->joiners) schedule_resume(now_, j);
  st->joiners.clear();
  // A use count of 1 means no ProcessHandle (or join awaiter) references
  // this state and none can appear later, so the block is recyclable.
  if (st.use_count() == 1) state_pool_.push_back(std::move(st));
}

ProcessHandle Simulation::spawn(Task<void> task, std::string name) {
  auto st = acquire_state(std::move(name));
  ++live_processes_;
  auto d = run_process(std::move(task), st);
  schedule_resume(now_, d.handle);
  return ProcessHandle{std::move(st)};
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  // Pop-then-run: the node is fully removed from the queue before the
  // payload executes, so the payload may freely schedule new events.
  const auto popped = queue_.pop();
  now_ = popped.at;
  ++events_executed_;
  queue_.run(popped);
  return true;
}

void Simulation::run() {
  while (!first_error_ && step()) {
  }
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

bool Simulation::run_until(TimePoint t) {
  while (!first_error_ && !queue_.empty() && queue_.min_time() <= t) {
    step();
  }
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
  if (now_ < t) now_ = t;
  return !queue_.empty();
}

}  // namespace sim
