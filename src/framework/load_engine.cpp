#include "framework/load_engine.hpp"

#include <stdexcept>
#include <utility>

#include "cluster/errors.hpp"
#include "obs/observer.hpp"

namespace framework {

LoadEngine::LoadEngine(sim::Simulation& sim, LoadEngineConfig cfg,
                       SessionFn body)
    : sim_(sim), cfg_(std::move(cfg)), body_(std::move(body)) {
  if (cfg_.max_in_flight < 1) {
    throw std::invalid_argument("load engine needs max_in_flight >= 1");
  }
  if (cfg_.max_pending < 0) {
    throw std::invalid_argument("load engine needs max_pending >= 0");
  }
  if (!body_) {
    throw std::invalid_argument("load engine needs a session body");
  }
}

void LoadEngine::start() {
  // Only the generator reads max_sessions, so only start() needs it.
  if (cfg_.max_sessions < 1) {
    throw std::invalid_argument("load engine needs max_sessions >= 1");
  }
  sim_.spawn(generator());
}

sim::Task<void> LoadEngine::generator() {
  ArrivalProcess proc(cfg_.arrivals);
  // The arrival clock walks forward from the previous *arrival*, never from
  // "when the engine got around to it" — that independence from service
  // progress is what makes the load open-loop.
  sim::TimePoint t = sim_.now();
  for (;;) {
    if (next_id_ >= cfg_.max_sessions) co_return;
    t = proc.next(t);
    if (t == ArrivalProcess::kNever) co_return;
    co_await sim_.delay_until(t);
    offer();
  }
}

bool LoadEngine::offer() {
  obs::Observer* const o = sim_.observer();
  const std::int64_t id = next_id_++;
  ++stats_.offered;
  if (o != nullptr) o->metrics().counter("load.offered").add(1);
  if (in_flight_ < cfg_.max_in_flight) {
    admit(id, sim_.now());
    return true;
  }
  if (static_cast<int>(pending_.size()) < cfg_.max_pending) {
    pending_.push_back(PendingArrival{id, sim_.now()});
    const auto depth = static_cast<std::int64_t>(pending_.size());
    if (depth > stats_.peak_pending) stats_.peak_pending = depth;
    if (o != nullptr) o->metrics().gauge("load.pending").set(depth);
    return true;
  }
  ++stats_.shed;
  if (o != nullptr) o->metrics().counter("load.shed").add(1);
  return false;
}

void LoadEngine::admit(std::int64_t id, sim::TimePoint arrived) {
  std::size_t slot;
  if (free_slots_.empty()) {
    slots_.push_back(std::make_unique<Session>());
    slot = slots_.size() - 1;
    stats_.slot_high_water = static_cast<std::int64_t>(slots_.size());
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Session& s = *slots_[slot];
  s.id = id;
  s.arrived = arrived;
  s.admitted = sim_.now();
  // Each session's stream is a pure function of its id, independent of
  // admission order and interleaving.
  s.rng = sim::Random(
      sim::stream_seed(cfg_.session_seed, static_cast<std::uint64_t>(id)));

  ++in_flight_;
  if (in_flight_ > stats_.peak_in_flight) stats_.peak_in_flight = in_flight_;
  if (stats_.admitted == 0) stats_.first_admission = s.admitted;
  ++stats_.admitted;
  ++stats_.slot_acquires;
  if (obs::Observer* const o = sim_.observer(); o != nullptr) {
    o->metrics().counter("load.admitted").add(1);
    o->metrics().histogram("load.queue_wait").record(s.admitted - s.arrived);
  }
  sim_.spawn(run_session(slot));
}

sim::Task<void> LoadEngine::run_session(std::size_t slot) {
  bool failed = false;
  bool busy = false;
  try {
    co_await body_(*slots_[slot]);
  } catch (const cluster::ServerBusyError&) {
    failed = true;
    busy = true;
  } catch (...) {
    failed = true;
  }
  finish_session(slot, failed, busy);
}

void LoadEngine::finish_session(std::size_t slot, bool failed, bool busy) {
  obs::Observer* const o = sim_.observer();
  const Session& s = *slots_[slot];
  if (failed) {
    ++stats_.dead_lettered;
    if (busy) ++stats_.throttle_failures;
    if (o != nullptr) {
      o->metrics().counter("load.dead_lettered").add(1);
      if (busy) o->metrics().counter("load.throttle_failures").add(1);
    }
  } else {
    ++stats_.completed;
    if (o != nullptr) {
      o->metrics().counter("load.completed").add(1);
      // Tail latency is reported over *successful* sessions: failed-fast
      // rejections would otherwise drag the percentiles toward zero and
      // mask the very saturation they signal.
      o->metrics().histogram("load.session_latency")
          .record(sim_.now() - s.arrived);
    }
  }
  stats_.last_completion = sim_.now();
  ++stats_.slot_releases;
  free_slots_.push_back(slot);
  --in_flight_;
  // Backfill: the freed window slot goes to the oldest queued arrival (FIFO
  // by arrival order — the admission-order test pins this).
  while (!pending_.empty() && in_flight_ < cfg_.max_in_flight) {
    const PendingArrival next = pending_.front();
    pending_.pop_front();
    if (o != nullptr) {
      o->metrics().gauge("load.pending").set(
          static_cast<std::int64_t>(pending_.size()));
    }
    admit(next.id, next.arrived);
  }
}

}  // namespace framework
