#include "azure/queue/queue_service.hpp"

#include <algorithm>
#include <string_view>
#include <type_traits>

#include "azure/common/checksum.hpp"
#include "azure/common/metadata_op.hpp"
#include "obs/observer.hpp"

namespace azure {
namespace lim = azure::limits;

namespace {
/// Service salt for integrity object ids.
constexpr std::uint64_t kQueueObjectSalt = 0x0CEE'CEE0'51EE'7000ull;

/// Span of every queue lifecycle request.
constexpr std::string_view kMetaSpan = "queue.meta";

std::string receipt(std::uint64_t serial) {
  return "pr-" + std::to_string(serial);
}
}  // namespace

// --------------------------------------------------------------- helpers ----

std::uint64_t QueueService::object_id(std::uint64_t part_hash) const {
  const std::uint64_t id = mix_u64(kQueueObjectSalt, part_hash);
  return id != 0 ? id : 1;
}

std::uint32_t QueueService::next_state_crc(const QueueData& q,
                                           std::uint64_t oid) const noexcept {
  // The queue's message log has no single content digest worth modelling;
  // its version checksum is a hash of (queue identity, mutation count).
  // Concurrent mutations racing to the same serial produce the same
  // candidate checksum — harmless, since equal checksums compare equal.
  return static_cast<std::uint32_t>(mix_u64(oid, q.mutation_serial + 1));
}

QueueService::QueueData& QueueService::require_queue(std::string name) {
  auto it = queues_.find(name);
  if (it == queues_.end()) {
    throw NotFoundError("queue not found: " + name);
  }
  return *it->second;
}

void QueueService::admit(QueueData& q, std::string name) {
  if (!q.throttle.try_consume()) {
    if (obs::Observer* const o = cluster_.simulation().observer();
        o != nullptr) {
      o->metrics().counter("queue.throttle_rejects").add(1);
    }
    throw ServerBusyError("queue '" + name +
                          "' exceeded 500 messages per second");
  }
}

void QueueService::expire(QueueData& q) {
  const sim::TimePoint now = cluster_.simulation().now();
  // A message's TTL is a guaranteed lifetime: Azure computes ExpirationTime
  // = insertion + TTL and the message stays retrievable *through* that
  // instant — only strictly-later probes sweep it. `<= now` here would
  // silently drop a message whose TTL lapses exactly at the probe.
  if (q.min_expiration >= now) return;  // nothing stored can have lapsed
  std::erase_if(q.messages, [now](const StoredMessage& m) {
    return m.expiration_time < now;
  });
  q.min_expiration = sim::Simulation::kNever;
  for (const StoredMessage& m : q.messages) {
    q.min_expiration = std::min(q.min_expiration, m.expiration_time);
  }
}

std::size_t QueueService::pick_visible(QueueData& q) {
  const sim::TimePoint now = cluster_.simulation().now();
  // `visible_from <= now` is the correct boundary: visible_from models
  // Azure's TimeNextVisible — the instant the message *becomes* visible —
  // so a consumer probing exactly then must see it (audited alongside the
  // expiry boundary above; tests lock both edges in).
  std::size_t first = q.messages.size();
  std::size_t second = q.messages.size();
  for (std::size_t i = 0; i < q.messages.size(); ++i) {
    if (q.messages[i].visible_from <= now) {
      if (first == q.messages.size()) {
        first = i;
      } else {
        second = i;
        break;
      }
    }
  }
  if (first == q.messages.size()) return first;
  if (second != q.messages.size() &&
      rng_.next_double() < kFifoViolationProbability) {
    return second;  // FIFO is not guaranteed
  }
  return first;
}

const QueueService::StoredMessage* QueueService::first_visible(
    const QueueData& q) const {
  const sim::TimePoint now = cluster_.simulation().now();
  for (const StoredMessage& m : q.messages) {
    if (m.visible_from <= now) return &m;
  }
  return nullptr;
}

std::deque<QueueService::StoredMessage>::iterator QueueService::find_by_receipt(
    QueueData& q, const std::string& name, std::uint64_t id,
    const std::string& pop_receipt) {
  auto it = std::find_if(q.messages.begin(), q.messages.end(),
                         [id](const StoredMessage& m) { return m.id == id; });
  if (it == q.messages.end()) {
    throw NotFoundError("message not found in queue: " + name);
  }
  if (receipt(it->receipt_serial) != pop_receipt) {
    throw PreconditionFailedError(
        "pop receipt no longer valid (message was re-gotten)");
  }
  return it;
}

QueueMessage QueueService::to_message(const StoredMessage& m,
                                      bool with_receipt) {
  QueueMessage out;
  out.id = m.id;
  out.body = m.body;
  if (with_receipt) out.pop_receipt = receipt(m.receipt_serial);
  out.insertion_time = m.insertion_time;
  out.expiration_time = m.expiration_time;
  out.dequeue_count = m.dequeue_count;
  return out;
}

// ------------------------------------------------------- queue lifecycle ----

sim::Task<void> QueueService::create_queue(netsim::Nic& client,
                                           std::string name) {
  co_await metadata_op(cluster_, client, cluster::partition_hash(name), true,
                       kMetaSpan);
  auto [it, inserted] = queues_.try_emplace(name, nullptr);
  if (!inserted) throw ConflictError("queue already exists: " + name);
  it->second = std::make_unique<QueueData>(cluster_.simulation());
}

sim::Task<void> QueueService::create_queue_if_not_exists(
    netsim::Nic& client, std::string name) {
  co_await metadata_op(cluster_, client, cluster::partition_hash(name), true,
                       kMetaSpan);
  auto [it, inserted] = queues_.try_emplace(name, nullptr);
  if (inserted) it->second = std::make_unique<QueueData>(cluster_.simulation());
}

sim::Task<void> QueueService::delete_queue(netsim::Nic& client,
                                           std::string name) {
  co_await metadata_op(cluster_, client, cluster::partition_hash(name), true,
                       kMetaSpan);
  if (queues_.erase(name) == 0) {
    throw NotFoundError("queue not found: " + name);
  }
}

sim::Task<bool> QueueService::queue_exists(netsim::Nic& client,
                                           std::string name) {
  co_await metadata_op(cluster_, client, cluster::partition_hash(name), false,
                       kMetaSpan);
  co_return queues_.count(name) > 0;
}

sim::Task<void> QueueService::clear_queue(netsim::Nic& client,
                                          std::string name) {
  co_await metadata_op(cluster_, client, cluster::partition_hash(name), true,
                       kMetaSpan);
  require_queue(name).messages.clear();
}

// ------------------------------------------------------------ operations ----

sim::Task<void> QueueService::put_message(netsim::Nic& client,
                                          std::string name,
                                          Payload body, sim::Duration ttl) {
  return message_op<void>(MessageOp::kPut, client, std::move(name),
                          std::move(body), ttl, 0, {});
}

sim::Task<std::optional<QueueMessage>> QueueService::get_message(
    netsim::Nic& client, std::string name,
    sim::Duration visibility_timeout) {
  return message_op<std::optional<QueueMessage>>(
      MessageOp::kGet, client, std::move(name), std::nullopt,
      visibility_timeout, 0, {});
}

sim::Task<std::optional<QueueMessage>> QueueService::peek_message(
    netsim::Nic& client, std::string name) {
  return message_op<std::optional<QueueMessage>>(
      MessageOp::kPeek, client, std::move(name), std::nullopt, 0, 0, {});
}

sim::Task<void> QueueService::delete_message(netsim::Nic& client,
                                             std::string name,
                                             std::uint64_t id,
                                             std::string pop_receipt) {
  return message_op<void>(MessageOp::kDelete, client, std::move(name),
                          std::nullopt, 0, id, std::move(pop_receipt));
}

sim::Task<QueueMessage> QueueService::update_message(
    netsim::Nic& client, std::string name, std::uint64_t id,
    std::string pop_receipt, sim::Duration visibility_timeout,
    std::optional<Payload> new_body) {
  return message_op<QueueMessage>(MessageOp::kUpdate, client,
                                  std::move(name), std::move(new_body),
                                  visibility_timeout, id,
                                  std::move(pop_receipt));
}

sim::Task<std::int64_t> QueueService::get_message_count(netsim::Nic& client,
                                                         std::string name) {
  return message_op<std::int64_t>(MessageOp::kCount, client, std::move(name),
                                  std::nullopt, 0, 0, {});
}

template <class R>
sim::Task<R> QueueService::message_op(MessageOp kind, netsim::Nic& client,
                                      std::string name,
                                      std::optional<Payload> body,
                                      sim::Duration duration, std::uint64_t id,
                                      std::string pop_receipt) {
  static constexpr std::string_view kSpans[] = {
      "queue.put",    "queue.get",    "queue.peek",
      "queue.delete", "queue.update", "queue.count"};
  const std::string_view span = kSpans[static_cast<int>(kind)];
  obs::OpScope op(cluster_.simulation(), span);
  if (body && body->size() > lim::kMaxMessagePayloadBytes) {
    throw InvalidArgumentError(
        "message payload exceeds 49,152 usable bytes (64 KB encoded)");
  }
  QueueData& q = require_queue(name);
  admit(q, name);

  // A mutation synchronizes across the replicas and appends to the queue's
  // message log; a get mutates only when a message is visible, and a peek
  // or count never does.
  bool mutates = kind != MessageOp::kPeek && kind != MessageOp::kCount;
  cluster::RequestCost cost;
  cost.request_bytes = 256;
  sim::Duration commit_time = kPutCommitTime;
  switch (kind) {
    case MessageOp::kPut:
      cost.request_bytes = encoded_size(body->size());
      cost.disk_bytes = cost.request_bytes;
      cost.server_cpu = kPutCpu;
      op.set_bytes(cost.request_bytes);
      break;
    case MessageOp::kGet: {
      // The server must locate the message, mark it invisible, and
      // synchronize that state change across all replicas — the most
      // expensive operation. Timing uses an *estimate* of the message about
      // to be served; the actual claim happens atomically after all awaits,
      // so concurrent consumers can never receive the same message.
      expire(q);
      const StoredMessage* estimate = first_visible(q);
      mutates = estimate != nullptr;
      cost.response_bytes = mutates ? encoded_size(estimate->body.size()) : 256;
      cost.server_cpu = kGetCpu;
      if (mutates && cfg_.model_16k_get_anomaly) {
        const std::int64_t sz = estimate->body.size();
        if (sz >= 12 * 1024 && sz < 24 * 1024) {
          cost.server_cpu = static_cast<sim::Duration>(
              static_cast<double>(cost.server_cpu) *
              kGet16KAnomalyFactor);
        }
      }
      cost.disk_bytes = mutates ? 512 : 0;
      commit_time = kGetCommitTime;
      op.set_bytes(cost.response_bytes);
      break;
    }
    case MessageOp::kPeek: {
      // A pure read: no server-side synchronization, so the cheapest op.
      expire(q);
      const StoredMessage* const estimate = first_visible(q);
      cost.response_bytes =
          estimate != nullptr ? encoded_size(estimate->body.size()) : 256;
      cost.server_cpu = kPeekCpu;
      op.set_bytes(cost.response_bytes);
      break;
    }
    case MessageOp::kCount:
      cost.response_bytes = 256;
      cost.server_cpu = sim::micros(500);
      break;
    case MessageOp::kDelete:
      cost.server_cpu = kDeleteCpu;
      cost.disk_bytes = 512;
      commit_time = kDeleteCommitTime;
      break;
    case MessageOp::kUpdate:
      if (body) cost.request_bytes = encoded_size(body->size());
      cost.disk_bytes = body ? cost.request_bytes : 512;
      cost.server_cpu = kPutCpu;
      op.set_bytes(cost.request_bytes);
      break;
  }
  const std::uint64_t oid = object_id(cluster::partition_hash(name));
  cost.replicate = mutates;
  cost.object_id = oid;
  if (mutates) cost.content_crc = next_state_crc(q, oid);
  op.stage();
  const cluster::ExecResult r =
      co_await cluster_.execute(client, cluster::partition_hash(name), cost);
  if (kind == MessageOp::kGet || kind == MessageOp::kPeek ||
      kind == MessageOp::kCount) {
    op.set_server(r.served_by);
    if (r.response_corrupted) {
      // The response failed its end-to-end check client-side. A get's
      // claim below never happens, so the message stays hidden until its
      // visibility timeout expires and is redelivered intact.
      op.set_error();
      throw ChecksumMismatchError(std::string(span) +
                                  " response failed checksum");
    }
  }
  if (mutates) {
    ++q.mutation_serial;
    const sim::TimePoint commit_start = cluster_.simulation().now();
    auto lock = co_await q.commit_lock.acquire();
    co_await cluster_.simulation().delay(commit_time);
    if (obs::Observer* const o = op.observer(); o != nullptr) {
      o->emit(obs::SpanKind::kLogCommit, op.ctx(), commit_start,
              cluster_.simulation().now(), o->label(span));
    }
  }

  // The atomic point (no suspension from here to the state change). A
  // message whose TTL lapsed is gone (Azure answers 404) even if no other
  // operation has swept it yet.
  expire(q);
  const sim::TimePoint now = cluster_.simulation().now();
  std::optional<QueueMessage> out;
  switch (kind) {
    case MessageOp::kPut: {
      const sim::Duration max_ttl = lim::kMessageTtlSeconds * sim::kSecond;
      StoredMessage m;
      m.id = next_id_++;
      m.body = std::move(*body);
      m.insertion_time = now;
      m.expiration_time =
          now + ((duration <= 0 || duration > max_ttl) ? max_ttl : duration);
      m.visible_from = now;
      q.min_expiration = std::min(q.min_expiration, m.expiration_time);
      q.messages.push_back(std::move(m));
      break;
    }
    case MessageOp::kGet: {
      const std::size_t idx = pick_visible(q);
      if (idx >= q.messages.size()) break;
      StoredMessage& m = q.messages[idx];
      m.visible_from =
          now + (duration > 0 ? duration : kDefaultVisibilityTimeout);
      ++m.dequeue_count;
      if (m.dequeue_count > 1) {
        ++redeliveries_;
        if (obs::Observer* const o = op.observer(); o != nullptr) {
          o->metrics().counter("queue.redeliveries").add(1);
        }
      }
      m.receipt_serial = next_receipt_++;
      out = to_message(m, /*with_receipt=*/true);
      break;
    }
    case MessageOp::kPeek: {
      const std::size_t idx = pick_visible(q);
      if (idx < q.messages.size()) {
        out = to_message(q.messages[idx], /*with_receipt=*/false);
      }
      break;
    }
    case MessageOp::kCount:
      break;
    case MessageOp::kDelete:
      q.messages.erase(find_by_receipt(q, name, id, pop_receipt));
      break;
    case MessageOp::kUpdate: {
      const auto it = find_by_receipt(q, name, id, pop_receipt);
      it->visible_from = now + duration;
      if (body) it->body = std::move(*body);
      it->receipt_serial = next_receipt_++;
      out = to_message(*it, /*with_receipt=*/true);
      break;
    }
  }
  if constexpr (std::is_same_v<R, QueueMessage>) {
    co_return std::move(*out);
  } else if constexpr (std::is_same_v<R, std::int64_t>) {
    co_return static_cast<std::int64_t>(q.messages.size());
  } else if constexpr (!std::is_void_v<R>) {
    co_return out;
  }
}

}  // namespace azure
