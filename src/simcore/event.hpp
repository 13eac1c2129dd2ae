// Event queue of the DES kernel: a d-ary heap of coroutine resumes.
//
// Every pending event is a 24-byte POD node `(at, key, frame)`: the virtual
// time, a key that packs the scheduling sequence number with one ownership
// bit, and the address of the coroutine frame to resume. delay(),
// Gate/Resource/FlowLimiter wakeups and the like push frames that are already
// running; the bit is clear and the frame owns itself. spawn() and
// schedule_at() push the first resume of a frame that has never run (a root
// process's wrapper, or the one-shot wrapper around a callback); the bit is
// set and the queue owns that frame until it pops it. The queue destroys the
// owned frames still pending when it is destroyed, and with them the task or
// callable each one holds.
//
// The scheduler (EventQueue) keeps the nodes in a cache-friendly 4-ary
// min-heap; sift operations move 24-byte PODs, and steady-state scheduling
// performs no allocation at all. Beside the heap sits a same-instant lane: a
// FIFO ring for nodes pushed at exactly the time of the last popped node,
// which therefore skip the sift.
//
// Ordering guarantee: pops follow a strict total order on (at, seq). The
// ownership bit is the low bit of `key`, so comparing keys is exactly
// comparing sequence numbers (seq is unique per event); same-timestamp events
// pop in scheduling order and every run is deterministic. The lane keeps that
// order: its nodes are all at the lane instant T and arrive in seq order.
// A heap node at T was pushed before the first pop at T (after it, pushes
// at T go to the lane), so its seq is lower than any lane node's; pop()
// therefore drains the heap's nodes at T first, then the lane, and only
// then lets the heap move time forward.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "simcore/time.hpp"

namespace sim::detail {

/// 4-ary min-heap of (at, seq)-ordered resume nodes plus a same-instant FIFO
/// lane.
class EventQueue {
 public:
  // 24-byte POD node; sifts move these.
  struct Node {
    TimePoint at;
    std::uint64_t key;  // (seq << 1) | owned
    void* frame;        // coroutine frame address
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue() {
    // Popping (not iterating) stays correct if a destroyed task or callable
    // schedules something from its destructor.
    while (!empty()) {
      const Node n = pop();
      if (n.key & kOwned) {
        std::coroutine_handle<>::from_address(n.frame).destroy();
      }
    }
  }

  bool empty() const noexcept { return heap_.empty() && lane_size_ == 0; }

  /// Virtual time of the next event. Precondition: !empty().
  TimePoint min_time() const noexcept {
    return lane_size_ != 0 ? lane_at_ : heap_.front().at;
  }

  /// Pre-sizes the heap for `n` simultaneously pending events.
  void reserve(std::size_t n) { heap_.reserve(n); }

  /// Schedules a resume of `h` at `at`. With `owned`, `h` is a frame that
  /// has never run, and the queue destroys it if it is still pending when
  /// the queue is destroyed.
  void push(TimePoint at, std::uint64_t seq, std::coroutine_handle<> h,
            bool owned) {
    // 63 bits of sequence number: overflow would need ~9.2e18 events.
    const Node n{at, (seq << 1) | (owned ? kOwned : 0), h.address()};
    if (n.at != lane_at_) {
      heap_push(n);
      return;
    }
    if (lane_size_ == lane_.size()) grow_lane();
    lane_[(lane_head_ + lane_size_) & (lane_.size() - 1)] = n;
    ++lane_size_;
  }

  /// Removes the minimum (at, seq) node. Precondition: !empty().
  Node pop() noexcept {
    if (lane_size_ == 0 || (!heap_.empty() && heap_.front().at == lane_at_)) {
      const Node top = heap_.front();
      const Node last = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) sift_down(last);
      lane_at_ = top.at;
      return top;
    }
    const Node n = lane_[lane_head_];
    lane_head_ = (lane_head_ + 1) & (lane_.size() - 1);
    --lane_size_;
    return n;
  }

 private:
  static constexpr std::uint64_t kOwned = 1;

  static bool node_less(const Node& a, const Node& b) noexcept {
    // Key comparison is sequence-number comparison: seq is unique and
    // occupies the high bits, so the ownership bit never influences the
    // order.
    return a.at < b.at || (a.at == b.at && a.key < b.key);
  }

  /// Doubles the ring (a power of two) and unwraps it; the old ring is left
  /// untouched if the allocation throws. Kept out of line so that push()
  /// stays small enough to inline into every scheduling call.
  [[gnu::noinline]] void grow_lane() {
    std::vector<Node> ring(lane_.empty() ? 64 : lane_.size() * 2);
    for (std::size_t i = 0; i < lane_size_; ++i) {
      ring[i] = lane_[(lane_head_ + i) & (lane_.size() - 1)];
    }
    lane_ = std::move(ring);
    lane_head_ = 0;
  }

  void heap_push(const Node& n) {
    std::size_t i = heap_.size();
    heap_.push_back(n);  // placeholder; hole-based sift-up below
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!node_less(n, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = n;
  }

  void sift_down(const Node& v) noexcept {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = (i << 2) + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = first + 4 < n ? first + 4 : n;
      for (std::size_t k = first + 1; k < end; ++k) {
        if (node_less(heap_[k], heap_[best])) best = k;
      }
      if (!node_less(heap_[best], v)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = v;
  }

  std::vector<Node> heap_;
  // The same-instant lane: a FIFO ring of nodes at `lane_at_`, the time of
  // the last node popped from the heap.
  std::vector<Node> lane_;
  std::size_t lane_head_ = 0;
  std::size_t lane_size_ = 0;
  TimePoint lane_at_ = 0;
};

}  // namespace sim::detail
