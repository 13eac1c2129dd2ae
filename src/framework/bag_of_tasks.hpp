// The paper's generic application framework for scientific applications on
// Azure (Section III, Fig. 3):
//
//   user input -> web role -> Task Assignment Queue -> worker roles
//                                   |                          |
//                                   v                          v
//                              Blob/Table storage   Termination Indicator Queue
//
// * the web role enqueues task descriptors on the task-assignment queue;
// * task payloads above the 48 KB usable message limit spill into Blob
//   storage automatically, with the blob name travelling on the queue (the
//   paper's recommended pattern);
// * workers poll the task queue, process messages, and signal each
//   completed phase on the termination-indicator queue;
// * the web role reads the termination queue's message count to track
//   progress (FIFO is not guaranteed, so an in-band "end of work" message
//   would be unreliable — the dedicated queue is the robust pattern).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "azure/cloud_storage_account.hpp"
#include "azure/common/limits.hpp"
#include "azure/common/retry.hpp"
#include "obs/observer.hpp"
#include "simcore/task.hpp"
#include "simcore/time.hpp"

namespace framework {

/// One task as seen by a worker.
struct TaskDescriptor {
  std::string body;       // inline descriptor, or resolved spill payload
  std::int64_t bytes = 0; // payload size (inline or spilled)
};

class BagOfTasksApp {
 public:
  /// A worker's task handler.
  using Handler =
      std::function<sim::Task<void>(const TaskDescriptor&)>;

  /// Visibility timeout while a worker processes a task; the task reappears
  /// for another worker if the first one dies (the queue's built-in fault
  /// tolerance the paper highlights). While a handler runs, the worker
  /// renews the task's lease (via UpdateMessage) every half timeout, so
  /// tasks longer than the timeout are not re-delivered to another worker.
  static constexpr sim::Duration kTaskVisibilityTimeout = sim::seconds(120);
  /// Bounded redelivery: a task delivered more than this many times without
  /// being completed is a *poison task* (its handler keeps crashing, or its
  /// payload keeps failing resolution). Rather than cycling through workers
  /// forever, it is moved to the dead-letter queue for offline inspection.
  static constexpr int kMaxDeliveries = 5;

  explicit BagOfTasksApp(azure::CloudStorageAccount account)
      : account_(account) {}

  // ------------------------------------------------------- web role side --

  /// Creates the queues and the spill container. Call once before use.
  sim::Task<void> provision() {
    auto& sim = account_.environment().simulation();
    auto queues = account_.create_cloud_queue_client();
    auto tasks = queues.get_queue_reference(kTaskQueue);
    co_await azure::with_retry(
        sim, [&] { return tasks.create_if_not_exists(); }, kRetry);
    auto termination = queues.get_queue_reference(kTerminationQueue);
    co_await azure::with_retry(
        sim, [&] { return termination.create_if_not_exists(); }, kRetry);
    auto dlq = queues.get_queue_reference(kDeadLetterQueue);
    co_await azure::with_retry(
        sim, [&] { return dlq.create_if_not_exists(); }, kRetry);
    auto spill = account_.create_cloud_blob_client().get_container_reference(
        kSpillContainer);
    co_await azure::with_retry(
        sim, [&] { return spill.create_if_not_exists(); }, kRetry);
  }

  /// Enqueues one task. Oversized descriptors spill into Blob storage.
  sim::Task<void> submit(std::string body) {
    auto& sim = account_.environment().simulation();
    auto q = account_.create_cloud_queue_client().get_queue_reference(
        kTaskQueue);
    const std::int64_t id = next_task_id_++;

    if (static_cast<std::int64_t>(body.size()) >
        azure::limits::kMaxMessagePayloadBytes) {
      const std::string blob_name = "task-" + std::to_string(id);
      auto blob = account_.create_cloud_blob_client()
                      .get_container_reference(kSpillContainer)
                      .get_block_blob_reference(blob_name);
      co_await azure::with_retry(sim, [&] {
        return blob.upload_text(azure::Payload::bytes(body));
      }, kRetry);
      co_await azure::with_retry(sim, [&] {
        return q.add_message(
            azure::Payload::bytes(std::string(kSpillMarker) + blob_name));
      }, kRetry);
    } else {
      co_await azure::with_retry(
          sim, [&] { return q.add_message(azure::Payload::bytes(body)); },
          kRetry);
    }
    ++submitted_;
  }

  /// Progress so far: number of phase-completion signals workers have put
  /// on the termination-indicator queue.
  sim::Task<std::int64_t> completed_count() {
    auto& sim = account_.environment().simulation();
    auto q = account_.create_cloud_queue_client().get_queue_reference(
        kTerminationQueue);
    co_return co_await azure::with_retry(
        sim, [&] { return q.get_message_count(); }, kRetry);
  }

  /// Blocks (in virtual time) until `expected` completions are signalled.
  sim::Task<void> wait_for_completion(std::int64_t expected) {
    auto& sim = account_.environment().simulation();
    for (;;) {
      const std::int64_t done = co_await completed_count();
      if (done >= expected) co_return;
      co_await sim.delay(kIdlePollInterval);
    }
  }

  std::int64_t submitted() const noexcept { return submitted_; }

  // ------------------------------------------------------ worker role side --

  /// Processes tasks until the task queue stays empty for `max_idle_polls`
  /// consecutive polls. Every completed task is signalled on the
  /// termination-indicator queue.
  sim::Task<void> worker_loop(azure::CloudStorageAccount worker_account,
                              Handler handler,
                              int max_idle_polls = 3) {
    auto& sim = worker_account.environment().simulation();
    auto queues = worker_account.create_cloud_queue_client();
    auto termination = queues.get_queue_reference(kTerminationQueue);
    auto q = queues.get_queue_reference(kTaskQueue);
    int idle_polls = 0;
    while (idle_polls < max_idle_polls) {
      std::optional<azure::QueueMessage> msg;
      bool not_provisioned = false;
      try {
        msg = co_await azure::with_retry(sim, [&] {
          return q.get_message(kTaskVisibilityTimeout);
        }, kRetry);
      } catch (const azure::NotFoundError&) {
        // Workers may boot before the web role has provisioned the queues;
        // treat that like an empty poll.
        not_provisioned = true;
      }
      if (not_provisioned || !msg.has_value()) {
        ++idle_polls;
        co_await sim.delay(kIdlePollInterval);
        continue;
      }
      idle_polls = 0;

      // Poison-task dead-lettering: this delivery already counts toward the
      // cap, so a task seen more than kMaxDeliveries times is parked on the
      // dead-letter queue instead of crashing yet another handler.
      if (msg->dequeue_count > kMaxDeliveries) {
        auto dlq = queues.get_queue_reference(kDeadLetterQueue);
        co_await azure::with_retry(
            sim, [&] { return dlq.add_message(msg->body); }, kRetry);
        // Delete AFTER the dead-letter copy is durable (at-least-once: a
        // worker dying between the two adds a duplicate DLQ entry, never
        // loses the task).
        try {
          co_await azure::with_retry(
              sim, [&] { return q.delete_message(*msg); }, kRetry);
        } catch (const azure::PreconditionFailedError&) {
          // Redelivered to someone else meanwhile; they will dead-letter it
          // again and one of the deletes will win.
        } catch (const azure::NotFoundError&) {
        }
        ++dead_lettered_;
        if (obs::Observer* const o = sim.observer(); o != nullptr) {
          o->metrics().counter("bag.dead_lettered").add(1);
        }
        continue;
      }
      if (msg->dequeue_count > 1) {
        if (obs::Observer* const o = sim.observer(); o != nullptr) {
          o->metrics().counter("bag.redeliveries").add(1);
        }
      }

      // The whole task — payload resolution plus handler — is one kTask
      // span, a root (tasks are independent of any client-request trace).
      obs::Observer* const o = sim.observer();
      const sim::TimePoint task_start = sim.now();
      obs::SpanHandle task_span{};
      if (o != nullptr) task_span = o->begin(obs::TraceContext{}, task_start);

      TaskDescriptor task = co_await resolve(worker_account, msg->body);

      // Renew the task's lease concurrently while the handler runs, so a
      // slow task is not re-delivered to another worker mid-flight.
      azure::QueueMessage current = *msg;
      bool handler_done = false;
      bool lease_lost = false;
      sim::WaitGroup renewal(sim);
      renewal.add();
      sim.spawn(
          renew_lease(sim, q, current, handler_done, lease_lost, renewal));
      bool handler_failed = false;
      try {
        co_await handler(task);
      } catch (...) {
        handler_failed = true;
      }
      handler_done = true;
      co_await renewal.wait();
      if (o != nullptr) {
        o->end(task_span, obs::SpanKind::kTask, o->label("bag.task"), -1,
               task.bytes, handler_failed, sim.now());
        if (handler_failed) {
          o->metrics().counter("bag.handler_failures").add(1);
        }
      }

      if (handler_failed) {
        // The handler crashed (e.g. an un-retried injected fault escaped
        // it). The task is NOT deleted, so the visibility timeout
        // guarantees redelivery; a best-effort UpdateMessage(0) makes it
        // visible again immediately instead of after the full timeout.
        ++handler_failures_;
        if (!lease_lost) {
          try {
            co_await q.update_message(current, 0);
          } catch (const azure::StorageError&) {
            // Lease raced away or the requeue itself failed: the timeout
            // still redelivers the task, just later.
          } catch (const azure::FaultError&) {
          }
        }
        continue;
      }

      // Consumers delete after processing; if a worker died here, the
      // message would reappear after the visibility timeout. When the
      // lease was lost (e.g. renewal raced a reappearance), another worker
      // owns the task now and will signal its completion instead.
      if (!lease_lost) {
        bool still_owned = true;
        try {
          co_await azure::with_retry(
              sim, [&] { return q.delete_message(current); }, kRetry);
        } catch (const azure::PreconditionFailedError&) {
          still_owned = false;
        } catch (const azure::NotFoundError&) {
          still_owned = false;
        }
        if (still_owned) {
          co_await azure::with_retry(sim, [&] {
            return termination.add_message(azure::Payload::bytes("done"));
          }, kRetry);
        }
      }
    }
  }

  /// Handler invocations that ended in an exception (each one leads to a
  /// redelivery of the task).
  std::int64_t handler_failures() const noexcept { return handler_failures_; }

  /// Tasks this app's workers moved to the dead-letter queue.
  std::int64_t dead_lettered() const noexcept { return dead_lettered_; }

  /// Messages currently parked on the dead-letter queue.
  sim::Task<std::int64_t> dead_letter_count() {
    auto& sim = account_.environment().simulation();
    auto q = account_.create_cloud_queue_client().get_queue_reference(
        kDeadLetterQueue);
    co_return co_await azure::with_retry(
        sim, [&] { return q.get_message_count(); }, kRetry);
  }

  /// Blocks (in virtual time) until every one of `expected` tasks is
  /// *resolved* — completed by a worker or parked on the dead-letter queue.
  /// This is the termination condition for workloads with poison tasks,
  /// where wait_for_completion(expected) would spin forever.
  sim::Task<void> wait_for_resolution(std::int64_t expected) {
    auto& sim = account_.environment().simulation();
    for (;;) {
      const std::int64_t done = co_await completed_count();
      if (done + dead_lettered_ >= expected) co_return;
      co_await sim.delay(kIdlePollInterval);
    }
  }

 private:
  /// The name places the queue on its partition server, so it sets the
  /// examples' timing.
  static constexpr const char* kTaskQueue = "task-assignment-0";
  static constexpr const char* kTerminationQueue = "termination-indicator";
  static constexpr const char* kDeadLetterQueue = "dead-letter";
  /// Container used for task payloads that exceed the queue message limit.
  static constexpr const char* kSpillContainer = "task-payloads";
  /// How long an idle worker sleeps before re-polling an empty queue.
  static constexpr sim::Duration kIdlePollInterval = sim::kSecond;
  /// Retry policy for all of the framework's own storage traffic: capped
  /// exponential backoff with every transient class retryable, so the
  /// framework rides out injected timeouts/resets.
  static constexpr azure::RetryPolicy kRetry{};

  static constexpr std::string_view kSpillMarker = "\x01spill:";

  /// Background lease renewal: refreshes the message's visibility every
  /// half timeout until the handler finishes (or the lease is lost).
  sim::Task<void> renew_lease(sim::Simulation& sim, azure::CloudQueue queue,
                              azure::QueueMessage& current,
                              const bool& handler_done, bool& lease_lost,
                              sim::WaitGroup& done_group) {
    constexpr sim::Duration half = kTaskVisibilityTimeout / 2;
    constexpr sim::Duration tick = sim::millis(500);
    for (;;) {
      sim::Duration waited = 0;
      while (!handler_done && waited < half) {
        co_await sim.delay(tick);
        waited += tick;
      }
      if (handler_done) break;
      bool lost = false;
      try {
        // ServerBusy is retried inside; a stale receipt or a vanished
        // message means the lease is genuinely gone.
        current = co_await azure::with_retry(sim, [&] {
          return queue.update_message(current, kTaskVisibilityTimeout);
        }, kRetry);
      } catch (const azure::PreconditionFailedError&) {
        lost = true;
      } catch (const azure::NotFoundError&) {
        lost = true;
      } catch (const azure::FaultError&) {
        // Renewal exhausted its retries against injected faults: assume the
        // worst (the message may reappear) rather than crash the renewal
        // coroutine.
        lost = true;
      }
      if (lost) {
        lease_lost = true;
        break;
      }
    }
    done_group.done();
  }

  sim::Task<TaskDescriptor> resolve(azure::CloudStorageAccount account,
                                    const azure::Payload& message) {
    const std::string& text = message.data();
    if (text.rfind(kSpillMarker, 0) == 0) {
      auto& sim = account.environment().simulation();
      const std::string blob_name = text.substr(kSpillMarker.size());
      auto blob = account.create_cloud_blob_client()
                      .get_container_reference(kSpillContainer)
                      .get_block_blob_reference(blob_name);
      auto payload = co_await azure::with_retry(
          sim, [&] { return blob.download_text(); }, kRetry);
      co_return TaskDescriptor{payload.data(), payload.size()};
    }
    co_return TaskDescriptor{text, message.size()};
  }

  azure::CloudStorageAccount account_;
  std::int64_t next_task_id_ = 0;
  std::int64_t submitted_ = 0;
  std::int64_t handler_failures_ = 0;
  std::int64_t dead_lettered_ = 0;
};

}  // namespace framework
