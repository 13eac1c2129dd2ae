#include "azure/queue/queue_service.hpp"

#include <algorithm>

#include "azure/common/checksum.hpp"
#include "obs/observer.hpp"

namespace azure {
namespace lim = azure::limits;

namespace {
/// Service salt for integrity object ids.
constexpr std::uint64_t kQueueObjectSalt = 0x0CEE'CEE0'51EE'7000ull;
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
      rng_.next_double() < cfg_.fifo_violation_probability) {
    return second;  // FIFO is not guaranteed
  }
  return first;
}

sim::Task<void> QueueService::metadata_op(netsim::Nic& client,
                                          std::uint64_t part_hash,
                                          bool write) {
  obs::OpScope op(cluster_.simulation(), "queue.meta");
  cluster::RequestCost cost;
  cost.request_bytes = 256;
  cost.response_bytes = 256;
  cost.server_cpu = sim::micros(300);
  cost.replicate = write;
  cost.disk_bytes = write ? 512 : 0;
  op.stage();
  co_await cluster_.execute(client, part_hash, cost);
}

// ------------------------------------------------------- queue lifecycle ----

sim::Task<void> QueueService::create_queue(netsim::Nic& client,
                                           std::string name) {
  co_await metadata_op(client, cluster::partition_hash(name), true);
  auto [it, inserted] = queues_.try_emplace(name, nullptr);
  if (!inserted) throw ConflictError("queue already exists: " + name);
  it->second = std::make_unique<QueueData>(cluster_.simulation());
}

sim::Task<void> QueueService::create_queue_if_not_exists(
    netsim::Nic& client, std::string name) {
  co_await metadata_op(client, cluster::partition_hash(name), true);
  auto [it, inserted] = queues_.try_emplace(name, nullptr);
  if (inserted) it->second = std::make_unique<QueueData>(cluster_.simulation());
}

sim::Task<void> QueueService::delete_queue(netsim::Nic& client,
                                           std::string name) {
  co_await metadata_op(client, cluster::partition_hash(name), true);
  if (queues_.erase(name) == 0) {
    throw NotFoundError("queue not found: " + name);
  }
}

sim::Task<bool> QueueService::queue_exists(netsim::Nic& client,
                                           std::string name) {
  co_await metadata_op(client, cluster::partition_hash(name), false);
  co_return queues_.count(name) > 0;
}

sim::Task<void> QueueService::clear_queue(netsim::Nic& client,
                                          std::string name) {
  co_await metadata_op(client, cluster::partition_hash(name), true);
  require_queue(name).messages.clear();
}

// ------------------------------------------------------------ operations ----

sim::Task<void> QueueService::put_message(netsim::Nic& client,
                                          std::string name,
                                          Payload body, sim::Duration ttl) {
  obs::OpScope op(cluster_.simulation(), "queue.put");
  if (body.size() > lim::kMaxMessagePayloadBytes) {
    throw InvalidArgumentError(
        "message payload exceeds 49,152 usable bytes (64 KB encoded)");
  }
  QueueData& q = require_queue(name);
  admit(q, name);

  const std::int64_t wire = encoded_size(body.size());
  const std::uint64_t oid = object_id(cluster::partition_hash(name));
  cluster::RequestCost cost;
  cost.request_bytes = wire;
  cost.disk_bytes = wire;
  cost.server_cpu = cfg_.put_cpu;
  cost.replicate = true;  // inserts synchronize across the 3 replicas
  cost.object_id = oid;
  cost.content_crc = next_state_crc(q, oid);
  op.set_bytes(wire);
  op.stage();
  co_await cluster_.execute(client, cluster::partition_hash(name), cost);
  ++q.mutation_serial;
  {
    const sim::TimePoint commit_start = cluster_.simulation().now();
    auto lock = co_await q.commit_lock.acquire();
    co_await cluster_.simulation().delay(cfg_.put_commit_time);
    if (obs::Observer* const o = op.observer(); o != nullptr) {
      o->emit(obs::SpanKind::kLogCommit, op.ctx(), commit_start,
              cluster_.simulation().now(), o->label("queue.put"));
    }
  }

  const sim::TimePoint now = cluster_.simulation().now();
  const sim::Duration kMaxTtl = lim::kMessageTtlSeconds * sim::kSecond;
  const sim::Duration effective_ttl =
      (ttl <= 0 || ttl > kMaxTtl) ? kMaxTtl : ttl;
  expire(q);
  StoredMessage m;
  m.id = next_id_++;
  m.body = std::move(body);
  m.insertion_time = now;
  m.expiration_time = now + effective_ttl;
  m.visible_from = now;
  q.min_expiration = std::min(q.min_expiration, m.expiration_time);
  q.messages.push_back(std::move(m));
}

sim::Task<std::optional<QueueMessage>> QueueService::get_message(
    netsim::Nic& client, std::string name,
    sim::Duration visibility_timeout) {
  obs::OpScope op(cluster_.simulation(), "queue.get");
  QueueData& q = require_queue(name);
  admit(q, name);

  // The server must locate the message, mark it invisible, and synchronize
  // that state change across all replicas — the most expensive operation.
  // Timing uses an *estimate* of the message about to be served; the actual
  // claim happens atomically after all awaits, so concurrent consumers can
  // never receive the same message.
  expire(q);
  const sim::TimePoint probe_now = cluster_.simulation().now();
  const StoredMessage* estimate = nullptr;
  for (const StoredMessage& m : q.messages) {
    if (m.visible_from <= probe_now) {
      estimate = &m;
      break;
    }
  }
  const bool probably_found = estimate != nullptr;
  const std::int64_t wire =
      probably_found ? encoded_size(estimate->body.size()) : 256;

  sim::Duration cpu = cfg_.get_cpu;
  if (probably_found && cfg_.model_16k_get_anomaly) {
    const std::int64_t sz = estimate->body.size();
    if (sz >= 12 * 1024 && sz < 24 * 1024) {
      cpu = static_cast<sim::Duration>(static_cast<double>(cpu) *
                                       cfg_.get_16k_anomaly_factor);
    }
  }
  estimate = nullptr;  // invalidated by the awaits below

  const std::uint64_t oid = object_id(cluster::partition_hash(name));
  cluster::RequestCost cost;
  cost.request_bytes = 256;
  cost.response_bytes = wire;
  cost.server_cpu = cpu;
  cost.disk_bytes = probably_found ? 512 : 0;
  cost.replicate = probably_found;  // visibility state must reach all copies
  cost.object_id = oid;
  if (probably_found) cost.content_crc = next_state_crc(q, oid);
  op.set_bytes(wire);
  op.stage();
  const cluster::ExecResult r =
      co_await cluster_.execute(client, cluster::partition_hash(name), cost);
  op.set_server(r.served_by);
  if (r.response_corrupted) {
    // The message body failed its end-to-end check client-side. The claim
    // below never happens, so the message stays hidden until its visibility
    // timeout expires and is redelivered intact.
    op.set_error();
    throw ChecksumMismatchError("GetMessage response failed checksum");
  }
  if (probably_found) {
    ++q.mutation_serial;
    const sim::TimePoint commit_start = cluster_.simulation().now();
    auto lock = co_await q.commit_lock.acquire();
    co_await cluster_.simulation().delay(cfg_.get_commit_time);
    if (obs::Observer* const o = op.observer(); o != nullptr) {
      o->emit(obs::SpanKind::kLogCommit, op.ctx(), commit_start,
              cluster_.simulation().now(), o->label("queue.get"));
    }
  }

  // Atomic claim (no suspension points from here to the state change).
  expire(q);
  const std::size_t idx = pick_visible(q);
  if (idx >= q.messages.size()) co_return std::nullopt;
  StoredMessage& m = q.messages[idx];
  const sim::TimePoint now = cluster_.simulation().now();
  const sim::Duration vis = visibility_timeout > 0
                                ? visibility_timeout
                                : cfg_.default_visibility_timeout;
  m.visible_from = now + vis;
  ++m.dequeue_count;
  if (m.dequeue_count > 1) {
    ++redeliveries_;
    if (obs::Observer* const o = op.observer(); o != nullptr) {
      o->metrics().counter("queue.redeliveries").add(1);
    }
  }
  m.receipt_serial = next_receipt_++;

  QueueMessage out;
  out.id = m.id;
  out.body = m.body;
  out.pop_receipt = "pr-" + std::to_string(m.receipt_serial);
  out.insertion_time = m.insertion_time;
  out.expiration_time = m.expiration_time;
  out.dequeue_count = m.dequeue_count;
  co_return out;
}

sim::Task<std::optional<QueueMessage>> QueueService::peek_message(
    netsim::Nic& client, std::string name) {
  obs::OpScope op(cluster_.simulation(), "queue.peek");
  QueueData& q = require_queue(name);
  admit(q, name);

  expire(q);
  const sim::TimePoint probe_now = cluster_.simulation().now();
  std::int64_t wire = 256;
  for (const StoredMessage& m : q.messages) {
    if (m.visible_from <= probe_now) {
      wire = encoded_size(m.body.size());
      break;
    }
  }

  cluster::RequestCost cost;
  cost.request_bytes = 256;
  cost.response_bytes = wire;
  cost.server_cpu = cfg_.peek_cpu;
  cost.replicate = false;  // pure read: no server-side synchronization
  cost.object_id = object_id(cluster::partition_hash(name));
  op.set_bytes(wire);
  op.stage();
  const cluster::ExecResult r =
      co_await cluster_.execute(client, cluster::partition_hash(name), cost);
  op.set_server(r.served_by);
  if (r.response_corrupted) {
    op.set_error();
    throw ChecksumMismatchError("PeekMessage response failed checksum");
  }

  // Re-pick after the awaits: the deque may have changed meanwhile.
  expire(q);
  const std::size_t idx = pick_visible(q);
  if (idx >= q.messages.size()) co_return std::nullopt;
  const StoredMessage& m = q.messages[idx];
  QueueMessage out;
  out.id = m.id;
  out.body = m.body;
  out.insertion_time = m.insertion_time;
  out.expiration_time = m.expiration_time;
  out.dequeue_count = m.dequeue_count;
  co_return out;
}

sim::Task<void> QueueService::delete_message(netsim::Nic& client,
                                             std::string name,
                                             std::uint64_t id,
                                             std::string pop_receipt) {
  obs::OpScope op(cluster_.simulation(), "queue.delete");
  QueueData& q = require_queue(name);
  admit(q, name);

  const std::uint64_t oid = object_id(cluster::partition_hash(name));
  cluster::RequestCost cost;
  cost.request_bytes = 256;
  cost.server_cpu = cfg_.delete_cpu;
  cost.disk_bytes = 512;
  cost.replicate = true;
  cost.object_id = oid;
  cost.content_crc = next_state_crc(q, oid);
  op.stage();
  co_await cluster_.execute(client, cluster::partition_hash(name), cost);
  ++q.mutation_serial;
  {
    const sim::TimePoint commit_start = cluster_.simulation().now();
    auto lock = co_await q.commit_lock.acquire();
    co_await cluster_.simulation().delay(cfg_.delete_commit_time);
    if (obs::Observer* const o = op.observer(); o != nullptr) {
      o->emit(obs::SpanKind::kLogCommit, op.ctx(), commit_start,
              cluster_.simulation().now(), o->label("queue.delete"));
    }
  }

  // Sweep at the atomic point get/peek use: a message whose TTL lapsed is
  // gone (Azure answers 404) even if no other operation has swept it yet.
  expire(q);
  auto it = std::find_if(q.messages.begin(), q.messages.end(),
                         [id](const StoredMessage& m) { return m.id == id; });
  if (it == q.messages.end()) {
    throw NotFoundError("message not found in queue: " + name);
  }
  if ("pr-" + std::to_string(it->receipt_serial) != pop_receipt) {
    throw PreconditionFailedError(
        "pop receipt no longer valid (message was re-gotten)");
  }
  q.messages.erase(it);
}

sim::Task<QueueMessage> QueueService::update_message(
    netsim::Nic& client, std::string name, std::uint64_t id,
    std::string pop_receipt, sim::Duration visibility_timeout,
    std::optional<Payload> new_body) {
  obs::OpScope op(cluster_.simulation(), "queue.update");
  if (new_body && new_body->size() > lim::kMaxMessagePayloadBytes) {
    throw InvalidArgumentError(
        "message payload exceeds 49,152 usable bytes (64 KB encoded)");
  }
  QueueData& q = require_queue(name);
  admit(q, name);

  const std::int64_t wire =
      new_body ? encoded_size(new_body->size()) : 256;
  const std::uint64_t oid = object_id(cluster::partition_hash(name));
  cluster::RequestCost cost;
  cost.request_bytes = wire;
  cost.disk_bytes = new_body ? wire : 512;
  cost.server_cpu = cfg_.put_cpu;
  cost.replicate = true;  // visibility/content change reaches all copies
  cost.object_id = oid;
  cost.content_crc = next_state_crc(q, oid);
  op.set_bytes(wire);
  op.stage();
  co_await cluster_.execute(client, cluster::partition_hash(name), cost);
  ++q.mutation_serial;
  {
    const sim::TimePoint commit_start = cluster_.simulation().now();
    auto lock = co_await q.commit_lock.acquire();
    co_await cluster_.simulation().delay(cfg_.put_commit_time);
    if (obs::Observer* const o = op.observer(); o != nullptr) {
      o->emit(obs::SpanKind::kLogCommit, op.ctx(), commit_start,
              cluster_.simulation().now(), o->label("queue.update"));
    }
  }

  expire(q);  // a lapsed message is not found, as in delete_message
  auto it = std::find_if(q.messages.begin(), q.messages.end(),
                         [id](const StoredMessage& m) { return m.id == id; });
  if (it == q.messages.end()) {
    throw NotFoundError("message not found in queue: " + name);
  }
  if ("pr-" + std::to_string(it->receipt_serial) != pop_receipt) {
    throw PreconditionFailedError(
        "pop receipt no longer valid (message was re-gotten)");
  }
  it->visible_from = cluster_.simulation().now() + visibility_timeout;
  if (new_body) it->body = std::move(*new_body);
  it->receipt_serial = next_receipt_++;

  QueueMessage out;
  out.id = it->id;
  out.body = it->body;
  out.pop_receipt = "pr-" + std::to_string(it->receipt_serial);
  out.insertion_time = it->insertion_time;
  out.expiration_time = it->expiration_time;
  out.dequeue_count = it->dequeue_count;
  co_return out;
}

sim::Task<std::int64_t> QueueService::get_message_count(
    netsim::Nic& client, std::string name) {
  obs::OpScope op(cluster_.simulation(), "queue.count");
  QueueData& q = require_queue(name);
  admit(q, name);
  cluster::RequestCost cost;
  cost.request_bytes = 256;
  cost.response_bytes = 256;
  cost.server_cpu = sim::micros(500);
  cost.object_id = object_id(cluster::partition_hash(name));
  op.stage();
  const cluster::ExecResult r =
      co_await cluster_.execute(client, cluster::partition_hash(name), cost);
  op.set_server(r.served_by);
  if (r.response_corrupted) {
    op.set_error();
    throw ChecksumMismatchError("GetMessageCount response failed checksum");
  }
  expire(q);
  co_return static_cast<std::int64_t>(q.messages.size());
}

}  // namespace azure
