#include "azure/blob/blob_service.hpp"

#include <algorithm>
#include <cassert>

#include "azure/common/checksum.hpp"
#include "azure/common/metadata_op.hpp"
#include "obs/observer.hpp"

namespace azure {
namespace {

namespace lim = azure::limits;

/// Service salt for integrity object ids (keeps blob objects distinct from
/// queue/table objects that might share a partition hash).
constexpr std::uint64_t kBlobObjectSalt = 0xB10B'0B1E'C751'D000ull;

/// Span of every container and blob metadata request.
constexpr std::string_view kMetaSpan = "blob.meta";

/// Per-blob write stream bandwidth ("The throughput of a blob is up to
/// 60 MB per second").
constexpr double kBlobWriteBytesPerSec = 60.0 * 1024 * 1024;

/// Serialized per-blob block-index append paid by every staged block.
constexpr sim::Duration kBlockCommitTime = sim::millis(44);

/// PutBlockList commit cost per listed block.
constexpr sim::Duration kBlockListPerBlock = sim::micros(200);

/// Server work per chunk-wise read (GetBlock / GetPage), occupying the
/// serving replica's stream.
constexpr sim::Duration kChunkReadOverhead = sim::millis(12);

/// Additional page-index lookup for *random* page reads.
constexpr sim::Duration kPageLookupOverhead = sim::millis(14);

/// Relative streaming efficiency of page blobs on full-blob reads
/// (sparse page maps stream slightly worse than packed block lists).
constexpr double kPageStreamFactor = 0.92;

/// Fixed CPU costs.
constexpr sim::Duration kWriteCpu = sim::micros(500);
constexpr sim::Duration kReadCpu = sim::micros(300);

/// Slice [from, from+len) out of a payload, preserving synthetic-ness.
Payload payload_slice(const Payload& p, std::int64_t from, std::int64_t len) {
  assert(from >= 0 && len >= 0 && from + len <= p.size());
  if (p.is_synthetic() || p.size() == 0) return Payload::synthetic(len);
  return Payload::bytes(p.data().substr(static_cast<std::size_t>(from),
                                        static_cast<std::size_t>(len)));
}

}  // namespace

BlobService::BlobRuntime::BlobRuntime(sim::Simulation& sim,
                                      const BlobServiceConfig& cfg)
    : write_stream(sim, kBlobWriteBytesPerSec, /*burst=*/64 * 1024.0),
      block_index(sim, 1) {
  const int streams = cfg.replica_reads ? cluster::kReplicas : 1;
  read_streams.reserve(static_cast<std::size_t>(streams));
  for (int i = 0; i < streams; ++i) {
    read_streams.push_back(std::make_unique<sim::FlowLimiter>(
        sim, kReplicaReadBytesPerSec, /*burst=*/64 * 1024.0));
  }
}

// ------------------------------------------------------------ containers ----

sim::Task<void> BlobService::create_container(netsim::Nic& client,
                                              std::string container) {
  co_await metadata_op(cluster_, client, cluster::partition_hash(container),
                       true, kMetaSpan);
  auto [it, inserted] = containers_.try_emplace(container);
  if (!inserted) {
    throw ConflictError("container already exists: " + container);
  }
}

sim::Task<void> BlobService::create_container_if_not_exists(
    netsim::Nic& client, std::string container) {
  co_await metadata_op(cluster_, client, cluster::partition_hash(container),
                       true, kMetaSpan);
  containers_.try_emplace(container);
}

sim::Task<void> BlobService::delete_container(netsim::Nic& client,
                                              std::string container) {
  co_await metadata_op(cluster_, client, cluster::partition_hash(container),
                       true, kMetaSpan);
  if (containers_.erase(container) == 0) {
    throw NotFoundError("container not found: " + container);
  }
}

sim::Task<bool> BlobService::container_exists(netsim::Nic& client,
                                              std::string container) {
  co_await metadata_op(cluster_, client, cluster::partition_hash(container),
                       false, kMetaSpan);
  co_return containers_.count(container) > 0;
}

sim::Task<std::vector<std::string>> BlobService::list_blobs(
    netsim::Nic& client, std::string container) {
  co_await metadata_op(cluster_, client, cluster::partition_hash(container),
                       false, kMetaSpan);
  auto& c = require_container(container);
  std::vector<std::string> names;
  names.reserve(c.blobs.size());
  for (const auto& [name, blob] : c.blobs) {
    if (!blob.deleted) names.push_back(name);
  }
  co_return names;
}

// -------------------------------------------------------- shared helpers ----

std::uint64_t BlobService::object_id(std::uint64_t part_hash) const {
  const std::uint64_t id = mix_u64(kBlobObjectSalt, part_hash);
  return id != 0 ? id : 1;
}

BlobService::Container& BlobService::require_container(
    const std::string& container) {
  auto it = containers_.find(container);
  if (it == containers_.end()) {
    throw NotFoundError("container not found: " + container);
  }
  return it->second;
}

BlobService::BlobData& BlobService::require_blob(
    const std::string& container, const std::string& name,
    BlobProperties::Kind expected_kind) {
  auto& c = require_container(container);
  auto it = c.blobs.find(name);
  if (it == c.blobs.end() || it->second.deleted) {
    throw NotFoundError("blob not found: " + container + "/" + name);
  }
  if (it->second.kind != expected_kind) {
    throw InvalidArgumentError("blob kind mismatch for " + container + "/" +
                               name);
  }
  return it->second;
}

BlobService::BlobData& BlobService::make_blob(const std::string& container,
                                              const std::string& name,
                                              BlobProperties::Kind kind) {
  auto& c = require_container(container);
  BlobData& blob = c.blobs[name];
  blob.deleted = false;  // writing to a tombstoned name resurrects it
  blob.kind = kind;
  blob.etag = next_etag();
  if (!blob.rt) {
    blob.rt = std::make_unique<BlobRuntime>(cluster_.simulation(), cfg_);
  }
  return blob;
}

BlobService::BlobData& BlobService::writable_blob(const std::string& container,
                                                  const std::string& name,
                                                  WriteKind kind,
                                                  std::int64_t offset,
                                                  std::int64_t bytes) {
  if (kind == WriteKind::kUpload && bytes > lim::kMaxSingleShotUploadBytes) {
    throw InvalidArgumentError(
        "block blobs over 64 MB must be uploaded as blocks");
  }
  if (kind == WriteKind::kBlock) {
    if (bytes > lim::kMaxBlockBytes) {
      throw InvalidArgumentError("block exceeds 4 MB");
    }
    if (bytes <= 0) throw InvalidArgumentError("block must not be empty");
  }
  if (kind != WriteKind::kPage) {
    return make_blob(container, name, BlobProperties::Kind::kBlock);
  }
  BlobData& blob = require_blob(container, name, BlobProperties::Kind::kPage);
  if (offset % lim::kPageAlignment != 0 || bytes % lim::kPageAlignment != 0) {
    throw InvalidArgumentError("page writes must be 512-aligned");
  }
  if (bytes <= 0 || bytes > lim::kMaxPageWriteBytes) {
    throw InvalidArgumentError("page write must be in (0, 4 MB]");
  }
  if (offset < 0 || offset + bytes > blob.page_max_size) {
    throw InvalidArgumentError("page write beyond blob size");
  }
  return blob;
}

sim::Task<void> BlobService::write(netsim::Nic& client, std::string container,
                                   std::string name, WriteKind kind,
                                   std::string block_id, std::int64_t offset,
                                   Payload data) {
  obs::OpScope op(cluster_.simulation(),
                  kind == WriteKind::kUpload  ? "blob.upload"
                  : kind == WriteKind::kBlock ? "blob.put_block"
                                              : "blob.put_page",
                  data.size());
  BlobData& blob = writable_blob(container, name, kind, offset, data.size());
  co_await blob.rt->write_stream.acquire(static_cast<double>(data.size()));
  // A single-shot upload is versioned by its one block's checksum. Staged
  // blocks are physically written and replicated, so staging folds the
  // staged block into the current version, and page-blob versions chain
  // each write's (offset, payload checksum) the same way.
  const std::uint32_t data_crc = payload_crc(data);
  const std::uint32_t new_crc =
      kind == WriteKind::kUpload
          ? Crc32c().update("<single-shot>").update_u64(data_crc).value()
          : static_cast<std::uint32_t>(mix_u64(
                blob.content_crc,
                mix_u64(kind == WriteKind::kBlock
                            ? Crc32c::of(block_id)
                            : static_cast<std::uint64_t>(offset),
                        data_crc)));
  cluster::RequestCost cost;
  cost.request_bytes = data.size();
  cost.disk_bytes = data.size();
  cost.server_cpu = kWriteCpu;
  cost.replicate = true;
  const std::uint64_t part_hash = cluster::partition_hash(container, name);
  cost.object_id = object_id(part_hash);
  cost.content_crc = new_crc;
  if (kind == WriteKind::kPage) {
    cost.object_bytes = std::max(blob.page_extent, offset + data.size());
  }
  op.stage();
  co_await cluster_.execute(client, part_hash, cost);

  switch (kind) {
    case WriteKind::kUpload:
      blob.committed.clear();
      blob.committed_size = data.size();
      blob.committed.push_back(
          BlockInfo{"<single-shot>", std::move(data), data_crc});
      blob.uncommitted.clear();
      blob.etag = next_etag();
      break;
    case WriteKind::kBlock: {
      // Appending to the blob's block index is serialized per blob — this
      // is what caps concurrent PutBlock ingest below the page-blob path.
      const sim::TimePoint commit_start = cluster_.simulation().now();
      auto lease = co_await blob.rt->block_index.acquire();
      co_await cluster_.simulation().delay(kBlockCommitTime);
      if (obs::Observer* const o = op.observer(); o != nullptr) {
        o->emit(obs::SpanKind::kLogCommit, op.ctx(), commit_start,
                cluster_.simulation().now(), o->label("blob.block_index"));
      }
      blob.uncommitted[block_id] = std::move(data);
      break;
    }
    case WriteKind::kPage:
      store_pages(blob, offset, std::move(data));
      blob.etag = next_etag();
      break;
  }
  blob.content_crc = new_crc;
}

void BlobService::store_pages(BlobData& blob, std::int64_t offset,
                              Payload data) {
  // Overlap resolution: trim/split any existing ranges under [lo, hi).
  const std::int64_t lo = offset;
  const std::int64_t hi = offset + data.size();
  auto it = blob.pages.lower_bound(lo);
  if (it != blob.pages.begin()) {
    auto prev = std::prev(it);
    const std::int64_t pend = prev->first + prev->second.size();
    if (pend > lo) {
      // prev overlaps from the left: keep its prefix, maybe its suffix.
      Payload whole = std::move(prev->second);
      const std::int64_t pstart = prev->first;
      blob.pages.erase(prev);
      blob.pages[pstart] = payload_slice(whole, 0, lo - pstart);
      if (pend > hi) {
        blob.pages[hi] = payload_slice(whole, hi - pstart, pend - hi);
      }
    }
  }
  it = blob.pages.lower_bound(lo);
  while (it != blob.pages.end() && it->first < hi) {
    const std::int64_t pstart = it->first;
    const std::int64_t pend = pstart + it->second.size();
    if (pend <= hi) {
      it = blob.pages.erase(it);
    } else {
      Payload whole = std::move(it->second);
      blob.pages.erase(it);
      blob.pages[hi] = payload_slice(whole, hi - pstart, pend - hi);
      break;
    }
  }
  blob.page_extent = std::max(blob.page_extent, hi);
  blob.pages[lo] = std::move(data);
}

sim::Task<void> BlobService::read(netsim::Nic& client, BlobData& blob,
                                  std::uint64_t part_hash, double stream_bytes,
                                  std::int64_t bytes, obs::OpScope& op,
                                  bool whole_blob) {
  const int stream = blob.rt->next_read++ %
                     static_cast<int>(blob.rt->read_streams.size());
  co_await blob.rt->read_streams[static_cast<std::size_t>(stream)]->acquire(
      stream_bytes);
  cluster::RequestCost cost;
  cost.request_bytes = 256;
  cost.response_bytes = bytes;
  cost.server_cpu = kReadCpu;
  cost.object_id = object_id(part_hash);
  op.stage();
  const cluster::ExecResult r =
      co_await cluster_.execute(client, part_hash, cost);
  if (whole_blob) op.set_server(r.served_by);
  if (r.response_corrupted) {
    if (whole_blob) op.set_error();
    throw ChecksumMismatchError("downloaded blob data failed its Content-MD5 "
                                "check");
  }
}

// ------------------------------------------------------------ block blob ----

sim::Task<void> BlobService::upload_block_blob(netsim::Nic& client,
                                               std::string container,
                                               std::string name,
                                               Payload data) {
  return write(client, std::move(container), std::move(name),
               WriteKind::kUpload, {}, 0, std::move(data));
}

sim::Task<void> BlobService::put_block(netsim::Nic& client,
                                       std::string container,
                                       std::string name,
                                       std::string block_id,
                                       Payload data) {
  return write(client, std::move(container), std::move(name),
               WriteKind::kBlock, std::move(block_id), 0, std::move(data));
}

sim::Task<void> BlobService::put_block_list(
    netsim::Nic& client, std::string container, std::string name,
    std::vector<std::string> block_ids) {
  obs::OpScope op(cluster_.simulation(), "blob.put_block_list");
  if (static_cast<int>(block_ids.size()) > lim::kMaxBlocksPerBlob) {
    throw InvalidArgumentError("more than 50,000 blocks in block list");
  }
  BlobData& blob = require_blob(container, name, BlobProperties::Kind::kBlock);

  // Resolve ids against uncommitted blocks first, then committed ones
  // (matching the service's "latest uncommitted wins" rule).
  std::vector<BlockInfo> new_committed;
  new_committed.reserve(block_ids.size());
  std::int64_t total = 0;
  for (const auto& id : block_ids) {
    if (auto it = blob.uncommitted.find(id); it != blob.uncommitted.end()) {
      total += it->second.size();
      new_committed.push_back(
          BlockInfo{id, it->second, payload_crc(it->second)});
      continue;
    }
    auto cit = std::find_if(blob.committed.begin(), blob.committed.end(),
                            [&](const BlockInfo& b) { return b.id == id; });
    if (cit == blob.committed.end()) {
      throw InvalidArgumentError("unknown block id in block list: " + id);
    }
    total += cit->data.size();
    new_committed.push_back(*cit);
  }
  if (total > lim::kMaxBlockBlobBytes) {
    throw InvalidArgumentError("block blob exceeds 200 GB");
  }

  // The committed content's checksum is the composite of the listed blocks'
  // checksums, in order.
  Crc32c composite;
  for (const auto& b : new_committed) {
    composite.update(b.id);
    composite.update_u64(b.crc);
  }
  const std::uint32_t new_crc = composite.value();

  cluster::RequestCost cost;
  cost.request_bytes = 64 * static_cast<std::int64_t>(block_ids.size());
  cost.disk_bytes = 1024;
  cost.server_cpu =
      kWriteCpu +
      static_cast<sim::Duration>(block_ids.size()) * kBlockListPerBlock;
  cost.replicate = true;
  const std::uint64_t part_hash = cluster::partition_hash(container, name);
  cost.object_id = object_id(part_hash);
  cost.content_crc = new_crc;
  cost.object_bytes = total;
  op.set_bytes(total);
  op.stage();
  co_await cluster_.execute(client, part_hash, cost);

  blob.committed = std::move(new_committed);
  blob.committed_size = total;
  blob.uncommitted.clear();
  blob.content_crc = new_crc;
  blob.etag = next_etag();
}

sim::Task<Payload> BlobService::get_block(netsim::Nic& client,
                                          std::string container,
                                          std::string name, int index) {
  obs::OpScope op(cluster_.simulation(), "blob.get_block");
  BlobData& blob = require_blob(container, name, BlobProperties::Kind::kBlock);
  if (index < 0 || index >= static_cast<int>(blob.committed.size())) {
    throw InvalidArgumentError("block index out of range");
  }
  const Payload data = blob.committed[static_cast<std::size_t>(index)].data;
  op.set_bytes(data.size());
  co_await read(client, blob, cluster::partition_hash(container, name),
                chunk_stream_bytes(data.size(), kChunkReadOverhead),
                data.size(), op, /*whole_blob=*/false);
  co_return data;
}

sim::Task<Payload> BlobService::download_block_blob(
    netsim::Nic& client, std::string container,
    std::string name) {
  obs::OpScope op(cluster_.simulation(), "blob.download");
  BlobData& blob = require_blob(container, name, BlobProperties::Kind::kBlock);
  const std::int64_t total = blob.committed_size;
  op.set_bytes(total);
  co_await read(client, blob, cluster::partition_hash(container, name),
                static_cast<double>(total), total, op, /*whole_blob=*/true);

  // Assemble the content: synthetic unless any block carries real bytes.
  bool any_real = false;
  for (const auto& b : blob.committed) {
    if (!b.data.is_synthetic() && b.data.size() > 0) any_real = true;
  }
  if (!any_real) co_return Payload::synthetic(total);
  std::string out;
  out.reserve(static_cast<std::size_t>(total));
  for (const auto& b : blob.committed) {
    if (b.data.is_synthetic()) {
      out.append(static_cast<std::size_t>(b.data.size()), '\0');
    } else {
      out.append(b.data.data());
    }
  }
  co_return Payload::bytes(std::move(out));
}

sim::Task<Payload> BlobService::download_range(netsim::Nic& client,
                                               std::string container,
                                               std::string name,
                                               std::int64_t offset,
                                               std::int64_t length) {
  obs::OpScope op(cluster_.simulation(), "blob.download_range", length);
  BlobData& blob = require_blob(container, name, BlobProperties::Kind::kBlock);
  if (offset < 0 || length <= 0 || offset + length > blob.committed_size) {
    throw InvalidArgumentError("range read outside committed content");
  }
  co_await read(client, blob, cluster::partition_hash(container, name),
                chunk_stream_bytes(length, kChunkReadOverhead), length,
                op, /*whole_blob=*/false);

  // Assemble the range across committed block boundaries.
  bool any_real = false;
  std::string out;
  std::int64_t cursor = 0;
  for (const auto& b : blob.committed) {
    const std::int64_t bstart = cursor;
    const std::int64_t bend = cursor + b.data.size();
    cursor = bend;
    const std::int64_t from = std::max(bstart, offset);
    const std::int64_t to = std::min(bend, offset + length);
    if (from >= to) continue;
    if (b.data.is_synthetic()) {
      out.append(static_cast<std::size_t>(to - from), '\0');
    } else {
      any_real = true;
      out.append(b.data.data(), static_cast<std::size_t>(from - bstart),
                 static_cast<std::size_t>(to - from));
    }
  }
  if (!any_real) co_return Payload::synthetic(length);
  co_return Payload::bytes(std::move(out));
}

sim::Task<BlobService::BlockListing> BlobService::get_block_list(
    netsim::Nic& client, std::string container, std::string name) {
  BlobData& blob = require_blob(container, name, BlobProperties::Kind::kBlock);
  co_await metadata_op(cluster_, client,
                       cluster::partition_hash(container, name), false,
                       kMetaSpan);
  BlockListing listing;
  listing.committed.reserve(blob.committed.size());
  for (const auto& b : blob.committed) {
    listing.committed.push_back(BlockDescriptor{b.id, b.data.size()});
  }
  listing.uncommitted.reserve(blob.uncommitted.size());
  for (const auto& [id, data] : blob.uncommitted) {
    listing.uncommitted.push_back(BlockDescriptor{id, data.size()});
  }
  co_return listing;
}

// ------------------------------------------------------------- page blob ----

sim::Task<void> BlobService::create_page_blob(netsim::Nic& client,
                                              std::string container,
                                              std::string name,
                                              std::int64_t max_size) {
  if (max_size <= 0 || max_size > lim::kMaxPageBlobBytes) {
    throw InvalidArgumentError("page blob size must be in (0, 1 TB]");
  }
  if (max_size % lim::kPageAlignment != 0) {
    throw InvalidArgumentError("page blob size must be 512-aligned");
  }
  require_container(container);
  co_await metadata_op(cluster_, client,
                       cluster::partition_hash(container, name), true,
                       kMetaSpan);
  BlobData& blob = make_blob(container, name, BlobProperties::Kind::kPage);
  blob.page_max_size = max_size;
  blob.pages.clear();
  blob.page_extent = 0;
}

sim::Task<void> BlobService::put_page(netsim::Nic& client,
                                      std::string container,
                                      std::string name,
                                      std::int64_t offset, Payload data) {
  return write(client, std::move(container), std::move(name),
               WriteKind::kPage, {}, offset, std::move(data));
}

sim::Task<Payload> BlobService::get_page(netsim::Nic& client,
                                         std::string container,
                                         std::string name,
                                         std::int64_t offset,
                                         std::int64_t length, bool random) {
  obs::OpScope op(cluster_.simulation(), "blob.get_page", length);
  BlobData& blob = require_blob(container, name, BlobProperties::Kind::kPage);
  if (offset < 0 || length <= 0 || offset + length > blob.page_max_size) {
    throw InvalidArgumentError("page read out of range");
  }
  const sim::Duration overhead =
      kChunkReadOverhead + (random ? kPageLookupOverhead : 0);
  co_await read(client, blob, cluster::partition_hash(container, name),
                chunk_stream_bytes(length, overhead), length, op,
                /*whole_blob=*/false);

  // Assemble [offset, offset+length): zero-fill unwritten gaps.
  bool any_real = false;
  auto it = blob.pages.upper_bound(offset);
  if (it != blob.pages.begin()) --it;
  for (auto scan = it;
       scan != blob.pages.end() && scan->first < offset + length; ++scan) {
    if (!scan->second.is_synthetic() && scan->second.size() > 0 &&
        scan->first + scan->second.size() > offset) {
      any_real = true;
    }
  }
  if (!any_real) co_return Payload::synthetic(length);

  std::string out(static_cast<std::size_t>(length), '\0');
  for (auto scan = it;
       scan != blob.pages.end() && scan->first < offset + length; ++scan) {
    const std::int64_t pstart = scan->first;
    const std::int64_t pend = pstart + scan->second.size();
    const std::int64_t from = std::max(pstart, offset);
    const std::int64_t to = std::min(pend, offset + length);
    if (from >= to || scan->second.is_synthetic()) continue;
    out.replace(static_cast<std::size_t>(from - offset),
                static_cast<std::size_t>(to - from), scan->second.data(),
                static_cast<std::size_t>(from - pstart),
                static_cast<std::size_t>(to - from));
  }
  co_return Payload::bytes(std::move(out));
}

sim::Task<Payload> BlobService::download_page_blob(
    netsim::Nic& client, std::string container,
    std::string name) {
  obs::OpScope op(cluster_.simulation(), "blob.download_page");
  BlobData& blob = require_blob(container, name, BlobProperties::Kind::kPage);
  const std::int64_t extent = blob.page_extent;
  op.set_bytes(extent);
  co_await read(client, blob, cluster::partition_hash(container, name),
                static_cast<double>(extent) / kPageStreamFactor, extent,
                op, /*whole_blob=*/true);
  if (extent == 0) co_return Payload{};
  bool any_real = false;
  for (const auto& [off, p] : blob.pages) {
    (void)off;
    if (!p.is_synthetic() && p.size() > 0) any_real = true;
  }
  if (!any_real) co_return Payload::synthetic(extent);
  std::string out(static_cast<std::size_t>(extent), '\0');
  for (const auto& [off, p] : blob.pages) {
    if (p.is_synthetic()) continue;
    out.replace(static_cast<std::size_t>(off),
                static_cast<std::size_t>(p.size()), p.data());
  }
  co_return Payload::bytes(std::move(out));
}

// --------------------------------------------------------------- generic ----

sim::Task<void> BlobService::delete_blob(netsim::Nic& client,
                                         std::string container,
                                         std::string name) {
  co_await metadata_op(cluster_, client,
                       cluster::partition_hash(container, name), true,
                       kMetaSpan);
  auto& c = require_container(container);
  auto it = c.blobs.find(name);
  if (it == c.blobs.end() || it->second.deleted) {
    throw NotFoundError("blob not found: " + container + "/" + name);
  }
  // Tombstone, don't erase: reads suspended on this blob's replica streams
  // hold references to the node and its runtime. Clearing the content
  // releases the payload memory; lookups treat the node as absent.
  BlobData& blob = it->second;
  blob.deleted = true;
  blob.committed.clear();
  blob.uncommitted.clear();
  blob.committed_size = 0;
  blob.pages.clear();
  blob.page_extent = 0;
  blob.page_max_size = 0;
  blob.content_crc = 0;
}

sim::Task<bool> BlobService::blob_exists(netsim::Nic& client,
                                         std::string container,
                                         std::string name) {
  co_await metadata_op(cluster_, client,
                       cluster::partition_hash(container, name), false,
                       kMetaSpan);
  auto it = containers_.find(container);
  if (it == containers_.end()) co_return false;
  const auto bit = it->second.blobs.find(name);
  co_return bit != it->second.blobs.end() && !bit->second.deleted;
}

sim::Task<BlobProperties> BlobService::get_properties(
    netsim::Nic& client, std::string container,
    std::string name) {
  co_await metadata_op(cluster_, client,
                       cluster::partition_hash(container, name), false,
                       kMetaSpan);
  auto& c = require_container(container);
  auto it = c.blobs.find(name);
  if (it == c.blobs.end() || it->second.deleted) {
    throw NotFoundError("blob not found: " + container + "/" + name);
  }
  const BlobData& b = it->second;
  BlobProperties props;
  props.kind = b.kind;
  props.etag = b.etag;
  props.content_crc = b.content_crc;
  if (b.kind == BlobProperties::Kind::kBlock) {
    props.size = b.committed_size;
    props.content_length = b.committed_size;
    props.committed_blocks = static_cast<int>(b.committed.size());
  } else {
    props.size = b.page_max_size;
    props.content_length = b.page_extent;
  }
  co_return props;
}

}  // namespace azure
