// Event queue of the DES kernel: a monotone radix queue of coroutine resumes.
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
// The virtual clock never runs backwards, so every push is at or after the
// time `last` of the last popped node, and the queue can be a radix heap
// (Ahuja, Mehlhorn, Orlin and Tarjan, JACM 1990). A node is filed in bucket
// `64 - countl_zero(at ^ last)`: bucket 0 holds the nodes at `last`, and
// bucket b > 0 those whose time first differs from `last` at bit b - 1, so
// every node of a lower bucket is earlier than every node of a higher one.
// pop() takes the front of bucket 0. When bucket 0 is empty, it sets `last`
// to the minimum of the lowest non-empty bucket and re-files that bucket,
// whose nodes all land in lower (and so empty) buckets; the higher buckets
// keep their numbers. Nodes live in one pool with a free list, and each
// bucket is a FIFO list threaded through it, so steady-state scheduling
// performs no allocation and a re-file only relinks slots.
//
// Ordering guarantee: pops follow a strict total order on (at, seq). The
// ownership bit is the low bit of `key` and seq is unique, so the bit never
// decides an order. Each push carries the largest seq so far and is appended
// to its bucket, and a re-file moves one bucket, in order, into empty
// buckets, so every bucket stays in seq order. Bucket 0 therefore pops its
// nodes, all at `last`, in seq order, and same-timestamp events run in
// scheduling order in every run.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "simcore/time.hpp"

namespace sim::detail {

/// Monotone radix queue of (at, seq)-ordered resume nodes.
class EventQueue {
 public:
  // 24-byte POD node; pop() returns it by value.
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

  bool empty() const noexcept { return occupied_ == 0; }

  /// Virtual time of the next event. Precondition: !empty().
  TimePoint min_time() const noexcept {
    return min_[static_cast<std::size_t>(std::countr_zero(occupied_))];
  }

  /// Pre-sizes the node pool for `n` simultaneously pending events.
  void reserve(std::size_t n) {
    if (n > pool_.size()) grow_to(n);
  }

  /// Schedules a resume of `h` at `at` (at or after the last popped time).
  /// With `owned`, `h` is a frame that has never run, and the queue destroys
  /// it if it is still pending when the queue is destroyed. Throws only
  /// when the pool cannot grow, and then changes nothing.
  void push(TimePoint at, std::uint64_t seq, std::coroutine_handle<> h,
            bool owned) {
    assert(at >= last_ && "a monotone queue cannot schedule into the past");
    if (free_ == kNil) grow_to(pool_.empty() ? 64 : pool_.size() * 2);
    const std::uint32_t i = free_;
    free_ = pool_[i].next;
    // 63 bits of sequence number: overflow would need ~9.2e18 events.
    pool_[i].node = Node{at, (seq << 1) | (owned ? kOwned : 0), h.address()};
    append(bucket_of(at), i);
  }

  /// Removes the minimum (at, seq) node. Precondition: !empty().
  Node pop() noexcept {
    auto b = static_cast<std::size_t>(std::countr_zero(occupied_));
    if (b != 0) {
      last_ = min_[b];
      // A lone node is the minimum itself: take it without a re-file.
      if (head_[b] != tail_[b]) {
        refile(b);
        b = 0;
      }
    }
    const std::uint32_t i = head_[b];
    Slot& s = pool_[i];
    head_[b] = s.next;
    if (s.next == kNil) occupied_ &= ~(std::uint64_t{1} << b);
    s.next = free_;
    free_ = i;
    return s.node;
  }

 private:
  static constexpr std::uint64_t kOwned = 1;
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  // Times are non-negative, so `at ^ last` has at most 63 significant bits.
  static constexpr std::size_t kBuckets = 64;

  struct Slot {
    Node node;
    std::uint32_t next;  // next slot in its bucket (kNil at the back) or in
                         // the free list
  };

  std::size_t bucket_of(TimePoint at) const noexcept {
    return static_cast<std::size_t>(
        64 - std::countl_zero(static_cast<std::uint64_t>(at ^ last_)));
  }

  /// Links slot `i` at the back of bucket `b` and folds its time into the
  /// bucket's minimum.
  void append(std::size_t b, std::uint32_t i) noexcept {
    const std::uint64_t bit = std::uint64_t{1} << b;
    const TimePoint at = pool_[i].node.at;
    pool_[i].next = kNil;
    if (occupied_ & bit) {
      pool_[tail_[b]].next = i;
      if (at < min_[b]) min_[b] = at;
    } else {
      head_[b] = i;
      min_[b] = at;
      occupied_ |= bit;
    }
    tail_[b] = i;
  }

  /// Moves every node of bucket `b`, in order, into the buckets below it.
  /// Precondition: `last_` is the bucket's minimum and every lower bucket is
  /// empty.
  void refile(std::size_t b) noexcept {
    occupied_ &= ~(std::uint64_t{1} << b);
    for (std::uint32_t i = head_[b]; i != kNil;) {
      const std::uint32_t next = pool_[i].next;
      append(bucket_of(pool_[i].node.at), i);
      i = next;
    }
  }

  /// Grows the pool to `n` slots and adds the new ones to the free list; the
  /// queue is unchanged if the allocation throws. Kept out of line so that
  /// push() stays small enough to inline into every scheduling call.
  [[gnu::noinline]] void grow_to(std::size_t n) {
    assert(n < kNil && "slot indices are 32 bits");
    const std::size_t old = pool_.size();
    pool_.resize(n);
    for (std::size_t i = n; i-- > old;) {
      pool_[i].next = free_;
      free_ = static_cast<std::uint32_t>(i);
    }
  }

  std::vector<Slot> pool_;
  std::uint32_t free_ = kNil;
  std::uint64_t occupied_ = 0;  // bit b: bucket b is non-empty
  TimePoint last_ = 0;          // time of the last popped node
  std::array<std::uint32_t, kBuckets> head_{};
  std::array<std::uint32_t, kBuckets> tail_{};
  std::array<TimePoint, kBuckets> min_{};
};

}  // namespace sim::detail
