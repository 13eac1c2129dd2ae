// Cross-domain transfer routing for the sharded parallel kernel.
//
// Domains of a sim::par::ShardedSimulation model independent stamp shards;
// traffic between them crosses an inter-domain link whose one-way latency is
// the physical floor below every cross-shard interaction. That floor bounds
// the conservative lookahead the kernel synchronizes on: a link's latency
// must be at least the lookahead, which DomainLink's constructor asserts.
//
// A DomainLink is one direction of such a link: sending pays flow-level
// occupancy on a source-side pipe (inside the source domain's timeline),
// then delivers a callable into the destination domain one link latency
// later via ShardedSimulation::post — i.e. through the deterministic
// (at, src, seq) merge. remote_call() builds request/response RPC on
// top of a link pair: the caller suspends in its own domain while the served
// coroutine runs entirely inside the destination domain.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <optional>
#include <utility>

#include "netsim/nic.hpp"
#include "simcore/parallel.hpp"
#include "simcore/rate_limiter.hpp"
#include "simcore/task.hpp"
#include "simcore/time.hpp"

namespace netsim {

/// One direction of an inter-domain link.
class DomainLink {
 public:
  struct Config {
    double bytes_per_sec = 1e9;
    /// One-way delivery latency; must be >= the kernel's lookahead (the
    /// constructor asserts it), since delivery goes through post().
    sim::Duration latency = sim::millis(1);
    double burst_bytes = 64 * 1024.0;
  };

  DomainLink(sim::par::ShardedSimulation& shards, int src, int dst)
      : DomainLink(shards, src, dst, Config{}) {}

  DomainLink(sim::par::ShardedSimulation& shards, int src, int dst,
             const Config& cfg)
      : shards_(shards),
        src_(src),
        dst_(dst),
        cfg_(cfg),
        pipe_(shards.domain(src), cfg.bytes_per_sec, cfg.burst_bytes) {
    assert(cfg.latency >= shards.lookahead() &&
           "link latency below the kernel lookahead breaks conservatism");
  }
  DomainLink(const DomainLink&) = delete;
  DomainLink& operator=(const DomainLink&) = delete;

  int source() const noexcept { return src_; }
  int destination() const noexcept { return dst_; }
  sim::Simulation& source_sim() { return shards_.domain(src_); }
  sim::Simulation& destination_sim() { return shards_.domain(dst_); }

  /// Pays source-side occupancy for `bytes`, then schedules `fn` inside the
  /// destination domain one link latency later. Returns when the payload
  /// has left the source (sender-side completion); delivery is
  /// asynchronous. Must be awaited from code executing in domain source().
  template <class F>
  sim::Task<void> send(std::int64_t bytes, F fn) {
    if (bytes > 0) co_await pipe_.acquire(static_cast<double>(bytes));
    ++transfers_;
    bytes_moved_ += bytes;
    shards_.post(src_, dst_, source_sim().now() + cfg_.latency,
                 std::move(fn));
  }

  std::int64_t transfers() const noexcept { return transfers_; }
  std::int64_t bytes_moved() const noexcept { return bytes_moved_; }

 private:
  sim::par::ShardedSimulation& shards_;
  int src_;
  int dst_;
  Config cfg_;
  sim::FlowLimiter pipe_;
  std::int64_t transfers_ = 0;
  std::int64_t bytes_moved_ = 0;
};

namespace detail {

/// Rendezvous between a remote_call caller and its served coroutine. Lives
/// in the caller's frame (source domain); the destination domain writes the
/// result before posting the response, and the barrier that hands the
/// response to the caller's domain orders that write before the resume.
template <class T>
struct RpcState {
  std::optional<T> value;
  std::exception_ptr error;
  std::coroutine_handle<> caller;
};

template <class T, class Make>
sim::Task<void> rpc_serve(RpcState<T>* st, DomainLink* response,
                          std::int64_t response_bytes, Make make) {
  try {
    st->value.emplace(co_await make());
  } catch (...) {
    st->error = std::current_exception();
  }
  // Errors travel as control messages (no payload bytes to carry).
  co_await response->send(st->error ? 0 : response_bytes,
                          [st] { st->caller.resume(); });
}

}  // namespace detail

/// Request/response RPC across domains over a pair of directed links
/// (`request`: caller's domain -> serving domain; `response`: the reverse).
/// The request pays `request_bytes` of link occupancy, `make()` then runs as
/// a root process of the serving domain, and its result (or exception)
/// returns to the caller after the response link's occupancy + latency.
/// Must be awaited from code executing in request.source().
template <class T, class Make>
sim::Task<T> remote_call(DomainLink& request, DomainLink& response,
                         std::int64_t request_bytes,
                         std::int64_t response_bytes, Make make) {
  assert(request.source() == response.destination() &&
         request.destination() == response.source() &&
         "remote_call needs a matched link pair");
  detail::RpcState<T> st;
  co_await request.send(
      request_bytes,
      [&st, &response, response_bytes, make = std::move(make)]() mutable {
        response.source_sim().spawn(
            detail::rpc_serve<T, Make>(&st, &response, response_bytes,
                                       std::move(make)));
      });
  // Delivery is at least one link latency in the future, so the caller is
  // always suspended here before the serving domain can post the response.
  struct Waiter {
    detail::RpcState<T>* st;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      st->caller = h;
    }
    void await_resume() const noexcept {}
  };
  co_await Waiter{&st};
  if (st.error) std::rethrow_exception(st.error);
  co_return std::move(*st.value);
}

}  // namespace netsim
