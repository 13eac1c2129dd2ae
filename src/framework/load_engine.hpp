// Open-loop load engine: pooled short-lived sessions driven by an arrival
// process, with a bounded admission window.
//
// The bag-of-tasks framework (bag_of_tasks.hpp) is closed-loop: ~100
// long-lived worker coroutines, each issuing its next request only after the
// previous one finished — the paper's Section III shape, and the wrong tool
// for measuring saturation. This engine is the open-loop half: arrivals come
// from a seeded ArrivalProcess on the simulation clock (Poisson, diurnal,
// flash crowd) regardless of how the system is coping, and each arrival is a
// *session* — a short-lived coroutine that runs one request sequence and
// dies. A single host simulates 100k–1M concurrent sessions this way because
// a session is just a pooled coroutine frame (simcore/frame_pool.hpp) plus a
// pooled Session record, not a thread or a long-lived worker.
//
// Overload is converted into *measurable* signals, never unbounded memory:
//
//   arrival ──► in_flight < window? ──► admit (spawn session)
//                    │ no
//                    ▼
//              backlog < max_pending? ──► queue (FIFO, admitted on a
//                    │ no                  completion, wait time recorded)
//                    ▼
//                  shed (counted; the arrival never executes)
//
// Sessions that end in ServerBusy are throttle failures; any other escaping
// error dead-letters the session. The accounting invariants the chaos suite
// asserts: offered == admitted + backlogged + shed at every instant, and
// admitted == completed + dead_lettered once drained.
//
// Determinism: arrivals are a pure function of the arrival config, each
// session's RNG stream is a pure function of (session_seed, session id), and
// all bookkeeping is integer arithmetic on the virtual clock — identical
// seeds replay byte-identically, including the obs metrics export.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "framework/arrivals.hpp"
#include "simcore/random.hpp"
#include "simcore/simulation.hpp"
#include "simcore/task.hpp"
#include "simcore/time.hpp"

namespace framework {

struct LoadEngineConfig {
  ArrivalConfig arrivals{};

  /// Admission window: sessions running concurrently. Arrivals beyond it
  /// queue (below) instead of growing the live-coroutine population.
  int max_in_flight = 1024;

  /// Bounded FIFO backlog of arrivals waiting for a window slot. Arrivals
  /// beyond window + backlog are shed — the open-loop answer to "what does
  /// the generator do when the system cannot keep up".
  int max_pending = 8192;

  /// Stop offering after this many arrivals. start() requires it >= 1:
  /// with the arrival process's own end, it is what bounds the run. A
  /// caller that offer()s every arrival itself need not set it.
  std::int64_t max_sessions = 0;

  /// Base of every session's private RNG stream: session i draws from
  /// Random(hash(session_seed, i)), so a session's randomness depends only
  /// on its id — never on admission order or interleaving.
  std::uint64_t session_seed = 0x5E5510;
};

/// Deterministic outcome counters. Everything is a pure function of
/// (engine config, session body, world seed); byte-comparable across
/// replays and thread counts (see the sharded open-loop parity tests).
struct LoadStats {
  std::int64_t offered = 0;        ///< arrivals presented to the engine
  std::int64_t admitted = 0;       ///< sessions that got a window slot
  std::int64_t shed = 0;           ///< arrivals dropped at a full backlog
  std::int64_t completed = 0;      ///< sessions that finished cleanly
  std::int64_t dead_lettered = 0;  ///< sessions that ended in an error
  /// Subset of dead_lettered whose terminal error was ServerBusy — the
  /// throttle-visible slice of overload.
  std::int64_t throttle_failures = 0;
  std::int64_t peak_in_flight = 0;
  std::int64_t peak_pending = 0;
  /// Session-record pool: distinct records ever allocated (the high-water
  /// mark — stays at min(max_in_flight, peak concurrency) no matter how
  /// many sessions run), and acquire/release counts (must match: a session
  /// is destroyed exactly once on every path).
  std::int64_t slot_high_water = 0;
  std::int64_t slot_acquires = 0;
  std::int64_t slot_releases = 0;
  sim::TimePoint first_admission = 0;
  sim::TimePoint last_completion = 0;
  bool operator==(const LoadStats&) const = default;
};

class LoadEngine {
 public:
  /// One live session, lent to the body for its lifetime. Records are
  /// pooled: after the session ends its record is recycled for a later
  /// admission (id/rng/timestamps are re-initialized on every acquire).
  struct Session {
    std::int64_t id = -1;         ///< global arrival index (0-based)
    sim::TimePoint arrived = 0;   ///< when the arrival was offered
    sim::TimePoint admitted = 0;  ///< when it got a window slot
    sim::Random rng{};            ///< private per-id stream
  };

  /// The request sequence one session runs. Exceptions are caught by the
  /// engine and classify the session (ServerBusy => throttle failure, any
  /// other => dead-lettered); they never escape to the simulation.
  using SessionFn = std::function<sim::Task<void>(Session&)>;

  LoadEngine(sim::Simulation& sim, LoadEngineConfig cfg, SessionFn body);
  LoadEngine(const LoadEngine&) = delete;
  LoadEngine& operator=(const LoadEngine&) = delete;

  /// Spawns the open-loop generator process: walks the arrival process on
  /// the virtual clock and offer()s each arrival. Throws
  /// std::invalid_argument unless max_sessions >= 1. The run drains naturally
  /// — when the generator stops (max_sessions / exhausted process) and
  /// every admitted session finished, the simulation's event queue empties
  /// and Simulation::run() returns.
  void start();

  /// One arrival at the current virtual time: admit, queue, or shed.
  /// Returns false iff the arrival was shed. Public so tests (and custom
  /// generators) can drive admission at exact instants.
  bool offer();

  const LoadEngineConfig& config() const noexcept { return cfg_; }
  const LoadStats& stats() const noexcept { return stats_; }
  int in_flight() const noexcept { return in_flight_; }
  int pending() const noexcept { return static_cast<int>(pending_.size()); }

 private:
  struct PendingArrival {
    std::int64_t id = 0;
    sim::TimePoint arrived = 0;
  };

  sim::Task<void> generator();
  sim::Task<void> run_session(std::size_t slot);
  void admit(std::int64_t id, sim::TimePoint arrived);
  void finish_session(std::size_t slot, bool failed, bool busy);

  sim::Simulation& sim_;
  LoadEngineConfig cfg_;
  SessionFn body_;
  LoadStats stats_;
  /// Pooled session records: stable storage (unique_ptr) indexed by slot,
  /// recycled through free_slots_. slots_.size() is the pool's high-water
  /// mark and never exceeds max_in_flight.
  std::vector<std::unique_ptr<Session>> slots_;
  std::vector<std::size_t> free_slots_;
  std::deque<PendingArrival> pending_;
  std::int64_t next_id_ = 0;
  int in_flight_ = 0;
};

}  // namespace framework
