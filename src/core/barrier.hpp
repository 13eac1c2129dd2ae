// Queue-based barrier among worker role instances — Algorithm 2 of the
// paper.
//
// Azure has no barrier primitive, so AzureBench synchronizes through a
// dedicated queue: each worker puts one message per barrier episode, then
// polls the approximate message count until it reaches
// `workers * sync_count`. Messages are *not* deleted — deleting would race
// with workers still polling — so each episode accounts for the messages
// accumulated by all previous episodes (the paper's `syncCount` trick).
// A worker sleeps one second between count polls so the polling itself does
// not throttle the queue.
#pragma once

#include <string>

#include "azure/cloud_storage_account.hpp"
#include "azure/common/limits.hpp"
#include "azure/common/retry.hpp"
#include "simcore/task.hpp"
#include "simcore/time.hpp"

namespace azurebench {

class QueueBarrier {
 public:
  /// One instance per worker. All workers must use the same queue name,
  /// the same `workers` count, and the same `message_ttl` (0 = the service
  /// maximum of 7 days). Shorter TTLs make the expiry deadlock — inherent
  /// to Algorithm 2 — reproducible in tests.
  QueueBarrier(azure::CloudStorageAccount account, std::string queue_name,
               int workers, sim::Duration message_ttl = 0)
      : account_(account),
        queue_name_(std::move(queue_name)),
        workers_(workers),
        message_ttl_(message_ttl > 0 ? message_ttl
                                     : azure::limits::kMessageTtlSeconds *
                                           sim::kSecond) {}

  /// Creates the barrier queue (idempotent; any worker may call it).
  sim::Task<void> provision() {
    auto q = account_.create_cloud_queue_client().get_queue_reference(
        queue_name_);
    co_await azure::with_retry(account_.environment().simulation(),
                               [&] { return q.create_if_not_exists(); },
                               kRetry);
  }

  /// Enters the barrier and suspends until all workers have arrived.
  ///
  /// Beware Algorithm 2's hidden lifetime constraint: barrier messages are
  /// ordinary queue messages and vanish after the 7-day TTL, after which
  /// the accumulated count can never be reached. Rather than spinning
  /// forever, arrive() fails loudly once it has polled past the TTL.
  sim::Task<void> arrive() {
    auto& sim = account_.environment().simulation();
    auto q = account_.create_cloud_queue_client().get_queue_reference(
        queue_name_);
    ++sync_count_;
    const sim::TimePoint entered = sim.now();
    co_await azure::with_retry(sim, [&] {
      return q.add_message(azure::Payload::bytes("sync"), message_ttl_);
    }, kRetry);
    for (;;) {
      if (sim.now() - entered > message_ttl_) {
        throw azure::StorageError(
            "queue barrier deadlocked: sync messages exceeded their TTL "
            "(experiment too long for Algorithm 2)");
      }
      const std::int64_t arrived = co_await azure::with_retry(
          sim, [&] { return q.get_message_count(); }, kRetry);
      if (arrived >= static_cast<std::int64_t>(workers_) * sync_count_) {
        co_return;
      }
      // Poll on whole-second boundaries (not "one second from my own
      // arrival"): every worker then observes completion on the same tick,
      // so the barrier releases the fleet simultaneously and phases start
      // aligned. The 1 s cadence still keeps the queue un-throttled.
      co_await sim.delay_until((sim.now() / sim::kSecond + 1) * sim::kSecond);
    }
  }

  /// Episodes completed so far by this worker.
  int sync_count() const noexcept { return sync_count_; }

 private:
  /// Retry policy for the barrier's queue traffic: the paper's fixed 1 s
  /// ServerBusy policy (Algorithm 2 is a paper workload).
  static constexpr azure::RetryPolicy kRetry = azure::RetryPolicy::paper();

  azure::CloudStorageAccount account_;
  std::string queue_name_;
  int workers_;
  sim::Duration message_ttl_;
  int sync_count_ = 0;
};

}  // namespace azurebench
