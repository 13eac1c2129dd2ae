// Counted resource with FIFO admission — models a server's pool of request
// executors, a disk with k channels, etc.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>

#include "simcore/simulation.hpp"

namespace sim {

class Resource;

/// RAII lease over one unit of a Resource. Releasing (or destroying) the
/// lease hands the unit to the next FIFO waiter.
class [[nodiscard]] ResourceLease {
 public:
  ResourceLease() = default;
  explicit ResourceLease(Resource* r) : res_(r) {}
  ResourceLease(ResourceLease&& o) noexcept
      : res_(std::exchange(o.res_, nullptr)) {}
  ResourceLease& operator=(ResourceLease&& o) noexcept;
  ResourceLease(const ResourceLease&) = delete;
  ResourceLease& operator=(const ResourceLease&) = delete;
  ~ResourceLease() { release(); }

  bool held() const noexcept { return res_ != nullptr; }
  void release() noexcept;

 private:
  Resource* res_ = nullptr;
};

/// A capacity-limited resource with strictly FIFO waiters.
class Resource {
 public:
  Resource(Simulation& sim, int capacity)
      : sim_(sim), capacity_(capacity) {
    assert(capacity > 0);
  }
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;
  ~Resource() { assert(waiters_.empty() && "resource destroyed with waiters"); }

  int capacity() const noexcept { return capacity_; }
  int in_use() const noexcept { return in_use_; }

  /// Peak concurrent holders observed (for tests/metrics).
  int high_watermark() const noexcept { return high_watermark_; }

  /// Awaitable acquiring one unit; resolves to a ResourceLease.
  ///
  /// When a holder releases while waiters are queued, the freed unit is
  /// transferred directly to the head waiter (it stays counted in `in_use_`),
  /// so late arrivals can never jump the FIFO queue.
  auto acquire() noexcept {
    struct Awaiter {
      Resource& r;
      bool suspended = false;
      bool await_ready() const noexcept {
        return r.waiters_.empty() && r.in_use_ < r.capacity_;
      }
      void await_suspend(std::coroutine_handle<> h) {
        suspended = true;
        r.waiters_.push_back(h);
      }
      ResourceLease await_resume() noexcept {
        if (!suspended) ++r.in_use_;  // transferred units are already counted
        if (r.in_use_ > r.high_watermark_) r.high_watermark_ = r.in_use_;
        return ResourceLease{&r};
      }
    };
    return Awaiter{*this};
  }

 private:
  friend class ResourceLease;

  void release_one() noexcept {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_.schedule_resume(sim_.now(), h);  // unit transfers; in_use_ unchanged
    } else {
      --in_use_;
    }
  }

  Simulation& sim_;
  int capacity_;
  int in_use_ = 0;
  int high_watermark_ = 0;
  std::deque<std::coroutine_handle<>> waiters_;
};

inline ResourceLease& ResourceLease::operator=(ResourceLease&& o) noexcept {
  if (this != &o) {
    release();
    res_ = std::exchange(o.res_, nullptr);
  }
  return *this;
}

inline void ResourceLease::release() noexcept {
  if (res_) {
    res_->release_one();
    res_ = nullptr;
  }
}

}  // namespace sim
