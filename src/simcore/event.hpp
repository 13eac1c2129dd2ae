// Zero-allocation event representation and d-ary heap scheduler for the DES
// kernel.
//
// Every pending event is a 24-byte POD heap node `(at, key, payload)` where
// `key` packs the scheduling sequence number with a 2-bit payload tag:
//
//   kTagResume    — `payload` is a coroutine handle address; resumption runs
//                   with no indirection through any callable wrapper. This is
//                   the hot path for delay() / schedule_resume() / Gate /
//                   FlowLimiter / Resource wakeups.
//   kTagStateless — `payload` is a plain `void(*)()`; empty callables
//                   (captureless lambdas, stateless functors) are carried
//                   entirely inside the node.
//   kTagSlot      — `payload` indexes an Event in the chunked slab below;
//                   stateful callables up to Event::kInlineCapacity bytes are
//                   stored inline there, larger ones fall back to the heap.
//
// The scheduler (EventQueue) keeps the nodes in a cache-friendly 4-ary
// min-heap; sift operations move 24-byte PODs, never payloads, and
// steady-state scheduling performs no allocation at all (slab slots are
// recycled through a free list whose capacity always covers the slab).
// Beside the heap sits a same-instant lane: a FIFO ring for nodes pushed at
// exactly the time of the last popped node, which therefore skip the sift.
//
// Ordering guarantee: pops follow a strict total order on (at, seq). The tag
// occupies the low bits of `key`, so comparing keys is exactly comparing
// sequence numbers (seq is unique per event); same-timestamp events pop in
// scheduling order and every run is deterministic. The lane keeps that
// order: its nodes are all at the lane instant T and arrive in seq order.
// A heap node at T was pushed before the first pop at T (after it, pushes
// at T go to the lane), so its seq is lower than any lane node's; pop()
// therefore drains the heap's nodes at T first, then the lane, and only
// then lets the heap move time forward.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "simcore/time.hpp"

namespace sim::detail {

/// Type-erased callable payload with inline storage. Payloads live at stable
/// slab addresses, so the type is deliberately immovable.
class Event {
 public:
  static constexpr std::size_t kInlineCapacity = 48;

  Event() noexcept {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;
  ~Event() { reset(); }

  bool empty() const noexcept { return invoke_ == nullptr; }

  template <class F>
  void set_callable(F&& fn) {
    assert(empty());
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineCapacity &&
                  alignof(D) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      invoke_ = [](Event& e) {
        D* f = std::launder(reinterpret_cast<D*>(e.buf_));
        struct Guard {  // destroys exactly once, also when (*f)() throws
          D* f;
          ~Guard() { f->~D(); }
        } guard{f};
        (*f)();
      };
      destroy_ = [](Event& e) noexcept {
        std::launder(reinterpret_cast<D*>(e.buf_))->~D();
      };
    } else {
      heap_ = new D(std::forward<F>(fn));
      invoke_ = [](Event& e) {
        std::unique_ptr<D> f(static_cast<D*>(e.heap_));
        (*f)();
      };
      destroy_ = [](Event& e) noexcept { delete static_cast<D*>(e.heap_); };
    }
  }

  /// Runs the payload and leaves the event empty. The payload is destroyed
  /// exactly once, even if the call throws.
  void invoke() {
    if (auto f = std::exchange(invoke_, nullptr)) f(*this);
  }

  /// Destroys a pending payload without running it.
  void reset() noexcept {
    if (std::exchange(invoke_, nullptr)) destroy_(*this);
  }

 private:
  using InvokeFn = void (*)(Event&);
  using DestroyFn = void (*)(Event&) noexcept;

  InvokeFn invoke_ = nullptr;   // doubles as the "payload present" flag
  DestroyFn destroy_ = nullptr;
  union {
    void* heap_;
    alignas(std::max_align_t) unsigned char buf_[kInlineCapacity];
  };
};

/// 4-ary min-heap of (at, seq)-ordered POD nodes plus a same-instant FIFO
/// lane; stateful callables spill into a chunked, free-listed Event slab.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  bool empty() const noexcept { return heap_.empty() && lane_size_ == 0; }
  std::size_t size() const noexcept { return heap_.size() + lane_size_; }

  /// Virtual time of the next event. Precondition: !empty().
  TimePoint min_time() const noexcept {
    return lane_size_ != 0 ? lane_at_ : heap_.front().at;
  }

  /// Pre-sizes the heap and payload slab for `n` simultaneously pending
  /// events (the slab only ever grows in whole chunks).
  void reserve(std::size_t n) {
    heap_.reserve(n);
    while ((chunks_.size() << kChunkShift) < n) add_chunk();
  }

  void push_resume(TimePoint at, std::uint64_t seq,
                   std::coroutine_handle<> h) {
    push(Node{at, make_key(seq, kTagResume),
              reinterpret_cast<std::uintptr_t>(h.address())});
  }

  template <class F>
  void push_callable(TimePoint at, std::uint64_t seq, F&& fn) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_v<D&>,
                  "scheduled callbacks must be invocable with no arguments");
    if constexpr (std::is_empty_v<D> && std::is_trivially_destructible_v<D> &&
                  std::is_default_constructible_v<D>) {
      // Stateless callback: carried as a bare function pointer in the node.
      // (Conditionally-supported function-pointer <-> integer round-trip;
      // exact on every platform this kernel targets.)
      void (*thunk)() = [] { D{}(); };
      push(Node{at, make_key(seq, kTagStateless),
                reinterpret_cast<std::uintptr_t>(thunk)});
    } else {
      const std::uint32_t slot = alloc_slot();
      try {
        slot_at(slot).set_callable(std::forward<F>(fn));
        push(Node{at, make_key(seq, kTagSlot), slot});
      } catch (...) {
        slot_at(slot).reset();
        free_.push_back(slot);  // capacity pre-reserved: cannot throw
        throw;
      }
    }
  }

  struct Popped {
    TimePoint at;
    std::uint64_t key;
    std::uintptr_t payload;
  };

  /// Removes the minimum (at, seq) node. Precondition: !empty().
  Popped pop() noexcept {
    if (lane_size_ == 0 || (!heap_.empty() && heap_.front().at == lane_at_)) {
      const Node top = heap_.front();
      const Node last = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) sift_down(last);
      lane_at_ = top.at;
      return Popped{top.at, top.key, top.payload};
    }
    const Node n = lane_[lane_head_];
    lane_head_ = (lane_head_ + 1) & (lane_.size() - 1);
    --lane_size_;
    return Popped{n.at, n.key, n.payload};
  }

  /// Runs a popped node's payload; slab slots are recycled exactly once,
  /// also when the callable throws.
  void run(const Popped& p) {
    switch (p.key & kTagMask) {
      case kTagResume:
        std::coroutine_handle<>::from_address(
            reinterpret_cast<void*>(p.payload))
            .resume();
        break;
      case kTagStateless:
        reinterpret_cast<void (*)()>(p.payload)();
        break;
      default:
        run_slot(static_cast<std::uint32_t>(p.payload));
        break;
    }
  }

 private:
  // 24-byte POD heap node; sifts move these, never the payloads.
  struct Node {
    TimePoint at;
    std::uint64_t key;       // (seq << 2) | tag
    std::uintptr_t payload;  // handle address, fn pointer, or slab slot
  };

  static constexpr std::uint64_t kTagResume = 0;
  static constexpr std::uint64_t kTagStateless = 1;
  static constexpr std::uint64_t kTagSlot = 2;
  static constexpr std::uint64_t kTagMask = 3;

  static std::uint64_t make_key(std::uint64_t seq,
                                std::uint64_t tag) noexcept {
    // 62 bits of sequence number: overflow would need ~4.6e18 events.
    return (seq << 2) | tag;
  }

  static bool node_less(const Node& a, const Node& b) noexcept {
    // Key comparison is sequence-number comparison: seq is unique and
    // occupies the high bits, so the tag never influences the order.
    return a.at < b.at || (a.at == b.at && a.key < b.key);
  }

  static constexpr std::uint32_t kChunkShift = 9;  // 512 events per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  Event& slot_at(std::uint32_t s) noexcept {
    return chunks_[s >> kChunkShift][s & kChunkMask];
  }

  std::uint32_t alloc_slot() {
    if (free_.empty()) add_chunk();
    const std::uint32_t s = free_.back();
    free_.pop_back();
    return s;
  }

  void add_chunk() {
    const auto base =
        static_cast<std::uint32_t>(chunks_.size() << kChunkShift);
    // Default- (not value-) initialize: Event's default constructor already
    // establishes the empty state, no memset of the chunk needed.
    chunks_.push_back(std::unique_ptr<Event[]>(new Event[kChunkSize]));
    free_.reserve(std::size_t{chunks_.size()} << kChunkShift);
    // Lower slot indices pop first (back of the free list) for locality.
    for (std::uint32_t i = kChunkSize; i-- > 0;) free_.push_back(base + i);
  }

  void run_slot(std::uint32_t slot) {
    struct Recycle {
      EventQueue* q;
      std::uint32_t s;
      // free_ capacity always covers every slab slot, so push_back here
      // cannot allocate (and thus cannot throw during unwinding).
      ~Recycle() { q->free_.push_back(s); }
    } recycle{this, slot};
    slot_at(slot).invoke();
  }

  void push(const Node& n) {
    if (n.at != lane_at_) {
      heap_push(n);
      return;
    }
    if (lane_size_ == lane_.size()) grow_lane();
    lane_[(lane_head_ + lane_size_) & (lane_.size() - 1)] = n;
    ++lane_size_;
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
  std::vector<std::unique_ptr<Event[]>> chunks_;
  std::vector<std::uint32_t> free_;
};

}  // namespace sim::detail
