// Size-bucketed free lists backing coroutine frame allocation.
//
// Simulated workloads create and destroy coroutine frames at enormous rates:
// every storage op awaits several sub-tasks, and spawn()-heavy scenarios
// (96-worker contention, 1000-waiter broadcasts) otherwise churn the global
// allocator. Frames of a given coroutine type have a fixed size, so a block
// returned on frame destruction is immediately reusable by the next frame of
// the same coroutine; bucketing by 64-byte size class turns steady-state
// frame allocation into a pointer pop.
//
// Ownership model: every thread has an implicit default Arena (thread-local,
// created on first use), and the parallel kernel binds an explicit per-domain
// Arena for each window it runs that domain via FramePool::Scope. A block
// freed while a domain's arena is bound goes back to that domain's free list
// only — free lists are never shared across threads, so domain workers can
// allocate/recycle frames concurrently without synchronization, and a block
// cached by one domain can never be handed out by another (see
// parallel_test.cpp's aliasing regression). Each bucket is capped so a
// one-off burst of frames cannot pin memory forever.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace sim::detail {

class FramePool {
 public:
  static constexpr std::size_t kGranularityShift = 6;  // 64-byte size classes
  static constexpr std::size_t kBuckets = 32;          // frames up to 2 KiB
  static constexpr std::size_t kMaxBlocksPerBucket = 4096;

  /// One independent set of free lists. Not thread-safe: an Arena must only
  /// be used by one thread at a time (the parallel kernel guarantees this by
  /// binding each domain's arena only inside that domain's window).
  class Arena {
   public:
    Arena() = default;
    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;
    ~Arena() {
      for (auto& list : bucket_) {
        for (void* p : list) ::operator delete(p);
      }
    }

    /// Blocks currently cached for allocations of `n` bytes (test hook).
    std::size_t cached(std::size_t n) const noexcept {
      const std::size_t b = bucket(n);
      return b < kBuckets ? bucket_[b].size() : 0;
    }

   private:
    friend class FramePool;
    std::vector<void*> bucket_[kBuckets];
  };

  /// RAII binding of `arena` as the calling thread's frame source. Nests:
  /// the previous binding (possibly the thread default) is restored on exit.
  class Scope {
   public:
    explicit Scope(Arena& arena) noexcept : prev_(bound_) { bound_ = &arena; }
    ~Scope() noexcept { bound_ = prev_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Arena* prev_;
  };

  static void* allocate(std::size_t n) {
    const std::size_t b = bucket(n);
    if (b >= kBuckets) return ::operator new(n);
    auto& list = current().bucket_[b];
    if (!list.empty()) {
      void* p = list.back();
      list.pop_back();
      return p;
    }
    return ::operator new(bucket_bytes(b));
  }

  static void deallocate(void* p, std::size_t n) noexcept {
    const std::size_t b = bucket(n);
    if (b < kBuckets) {
      auto& list = current().bucket_[b];
      if (list.size() < kMaxBlocksPerBucket) {
        try {
          list.push_back(p);
          return;
        } catch (...) {
          // Growing the free list failed; fall through to a plain delete.
        }
      }
    }
    ::operator delete(p);
  }

 private:
  static constexpr std::size_t bucket(std::size_t n) noexcept {
    return (n - 1) >> kGranularityShift;  // frame sizes are never zero
  }
  static constexpr std::size_t bucket_bytes(std::size_t b) noexcept {
    return (b + 1) << kGranularityShift;
  }

  static Arena& current() {
    if (bound_ != nullptr) return *bound_;
    static thread_local Arena tls_default;
    return tls_default;
  }

  inline static thread_local Arena* bound_ = nullptr;
};

}  // namespace sim::detail
