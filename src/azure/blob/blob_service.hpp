// Server-side Blob storage service: containers, block blobs and page blobs,
// with the documented 2011/2012 semantics and limits.
//
// Timing model highlights (see DESIGN.md §4):
//  * every blob has a 60 MB/s write stream at its partition server;
//  * committed data is replicated 3x, and *reads* are served round-robin by
//    the replicas, so aggregate read bandwidth of a hot blob approaches
//    3 x 60 MB/s (the paper measures 165 MB/s at 96 workers);
//  * staging a block (PutBlock) appends to the blob's block index — a
//    serialized per-blob operation that caps block-blob ingest well below
//    the page-blob path (the paper measures ~21 vs ~60 MB/s);
//  * chunk-wise reads (GetBlock / random GetPage) occupy the serving
//    replica's stream for a fixed overhead on top of the payload time;
//    random page access additionally pays a page-index lookup.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "azure/common/errors.hpp"
#include "azure/common/limits.hpp"
#include "azure/common/payload.hpp"
#include "cluster/hash.hpp"
#include "cluster/storage_cluster.hpp"
#include "netsim/nic.hpp"
#include "obs/observer.hpp"
#include "simcore/rate_limiter.hpp"
#include "simcore/resource.hpp"
#include "simcore/task.hpp"

namespace azure {

struct BlobServiceConfig {
  /// Whether reads are spread over all replicas (ablation knob; turning
  /// this off collapses download saturation to one stream's bandwidth).
  bool replica_reads = true;
};

/// Blob properties snapshot returned to clients.
struct BlobProperties {
  enum class Kind { kBlock, kPage };
  Kind kind = Kind::kBlock;
  std::int64_t size = 0;       // committed size (pages: max size)
  std::int64_t content_length = 0;  // pages: highest written byte
  std::string etag;
  int committed_blocks = 0;
  /// Content checksum of the stored version (Content-MD5 analogue; CRC32C
  /// composite over the blob's blocks/pages). Zero until the first write.
  std::uint32_t content_crc = 0;
};

class BlobService {
 public:
  BlobService(cluster::StorageCluster& cluster, const BlobServiceConfig& cfg)
      : cluster_(cluster), cfg_(cfg) {}

  const BlobServiceConfig& config() const noexcept { return cfg_; }

  // ----------------------------------------------------------- containers --
  sim::Task<void> create_container(netsim::Nic& client,
                                   std::string container);
  sim::Task<void> create_container_if_not_exists(netsim::Nic& client,
                                                 std::string container);
  sim::Task<void> delete_container(netsim::Nic& client,
                                   std::string container);
  sim::Task<bool> container_exists(netsim::Nic& client,
                                   std::string container);
  sim::Task<std::vector<std::string>> list_blobs(netsim::Nic& client,
                                                 std::string container);

  // ---------------------------------------------------------- block blobs --
  /// Single-shot upload (<= 64 MB). Replaces any existing blob.
  sim::Task<void> upload_block_blob(netsim::Nic& client,
                                    std::string container,
                                    std::string name, Payload data);

  /// Stages one block (<= 4 MB). Uncommitted until PutBlockList.
  sim::Task<void> put_block(netsim::Nic& client, std::string container,
                            std::string name,
                            std::string block_id, Payload data);

  /// Commits the listed blocks, in order, as the blob's content.
  sim::Task<void> put_block_list(netsim::Nic& client,
                                 std::string container,
                                 std::string name,
                                 std::vector<std::string> block_ids);

  /// Reads the index-th committed block (the paper reads blocks
  /// sequentially, "one block at a time").
  sim::Task<Payload> get_block(netsim::Nic& client,
                               std::string container,
                               std::string name, int index);

  /// Downloads the full committed content (BlockBlob.DownloadText()).
  sim::Task<Payload> download_block_blob(netsim::Nic& client,
                                         std::string container,
                                         std::string name);

  /// Downloads an arbitrary byte range of the committed content.
  sim::Task<Payload> download_range(netsim::Nic& client,
                                    std::string container, std::string name,
                                    std::int64_t offset, std::int64_t length);

  /// One block's id and size, as returned by GetBlockList.
  struct BlockDescriptor {
    std::string id;
    std::int64_t size;
  };
  struct BlockListing {
    std::vector<BlockDescriptor> committed;
    std::vector<BlockDescriptor> uncommitted;
  };
  /// Lists the committed and uncommitted blocks of a block blob.
  sim::Task<BlockListing> get_block_list(netsim::Nic& client,
                                         std::string container,
                                         std::string name);

  // ----------------------------------------------------------- page blobs --
  /// Creates (and zero-initializes) a page blob of the given maximum size.
  sim::Task<void> create_page_blob(netsim::Nic& client,
                                   std::string container,
                                   std::string name,
                                   std::int64_t max_size);

  /// Writes pages at a 512-aligned offset (<= 4 MB per call).
  sim::Task<void> put_page(netsim::Nic& client, std::string container,
                           std::string name, std::int64_t offset,
                           Payload data);

  /// Random-access page read (pays the page-index lookup when `random` —
  /// the paper's benchmark reads pages at random offsets).
  sim::Task<Payload> get_page(netsim::Nic& client,
                              std::string container,
                              std::string name, std::int64_t offset,
                              std::int64_t length, bool random = true);

  /// Streams the full written extent (PageBlob.openRead()).
  sim::Task<Payload> download_page_blob(netsim::Nic& client,
                                        std::string container,
                                        std::string name);

  // -------------------------------------------------------------- generic --
  sim::Task<void> delete_blob(netsim::Nic& client,
                              std::string container,
                              std::string name);
  sim::Task<bool> blob_exists(netsim::Nic& client,
                              std::string container,
                              std::string name);
  sim::Task<BlobProperties> get_properties(netsim::Nic& client,
                                           std::string container,
                                           std::string name);

 private:
  /// Read bandwidth of each replica's stream of a given blob.
  static constexpr double kReplicaReadBytesPerSec = 60.0 * 1024 * 1024;

  struct BlockInfo {
    std::string id;
    Payload data;
    std::uint32_t crc = 0;  // CRC32C of this block's payload
  };

  /// Per-blob contended runtime state (write stream, block index, replica
  /// read streams).
  struct BlobRuntime {
    BlobRuntime(sim::Simulation& sim, const BlobServiceConfig& cfg);
    sim::FlowLimiter write_stream;
    sim::Resource block_index;  // capacity 1: serialized index appends
    std::vector<std::unique_ptr<sim::FlowLimiter>> read_streams;
    int next_read = 0;
  };

  struct BlobData {
    BlobProperties::Kind kind = BlobProperties::Kind::kBlock;
    std::string etag;
    // Block blob state.
    std::vector<BlockInfo> committed;
    std::map<std::string, Payload> uncommitted;
    std::int64_t committed_size = 0;
    // Page blob state: offset -> written range. Ranges never overlap.
    std::int64_t page_max_size = 0;
    std::map<std::int64_t, Payload> pages;
    std::int64_t page_extent = 0;  // highest written byte + 1
    /// Checksum of the blob's current physical version (committed blocks,
    /// staged blocks, written pages). Every tracked write advances it.
    std::uint32_t content_crc = 0;
    /// Tombstone: delete_blob clears the content but keeps the map node
    /// (and rt) alive, because in-flight reads suspended on the replica
    /// streams still reference both. All lookups treat it as absent.
    bool deleted = false;
    std::unique_ptr<BlobRuntime> rt;
  };

  struct Container {
    std::map<std::string, BlobData> blobs;
  };

  BlobData& require_blob(const std::string& container,
                         const std::string& name,
                         BlobProperties::Kind expected_kind);
  Container& require_container(const std::string& container);
  BlobData& make_blob(const std::string& container, const std::string& name,
                      BlobProperties::Kind kind);
  std::string next_etag() { return "0x" + std::to_string(++etag_counter_); }

  /// Per-blob integrity object id (salted so blob/queue/table objects with
  /// colliding partition hashes stay distinct; never 0, which means
  /// "untracked" to the cluster).
  std::uint64_t object_id(std::uint64_t part_hash) const;

  /// The three ways a blob write stores its payload.
  enum class WriteKind { kUpload, kBlock, kPage };

  /// The one body behind upload_block_blob, put_block and put_page (`kind`):
  /// wait for the blob's write stream, run the replicated, integrity-tracked
  /// write, then store `data` as the whole blob, as the staged block
  /// `block_id`, or as the pages at `offset`.
  sim::Task<void> write(netsim::Nic& client, std::string container,
                        std::string name, WriteKind kind,
                        std::string block_id, std::int64_t offset,
                        Payload data);
  /// Checks a `kind` write of `bytes` and returns the blob it writes
  /// (created or reset for a block-blob write).
  BlobData& writable_blob(const std::string& container,
                          const std::string& name, WriteKind kind,
                          std::int64_t offset, std::int64_t bytes);
  /// Stores `data` at `offset` of a page blob, trimming or splitting the
  /// ranges it overwrites.
  static void store_pages(BlobData& blob, std::int64_t offset, Payload data);

  /// Read-stream occupancy of a chunk-wise read (GetBlock, a range read or
  /// GetPage): the payload plus `overhead` of per-chunk server work (index
  /// walk, range assembly) at stream speed.
  double chunk_stream_bytes(std::int64_t bytes, sim::Duration overhead) const {
    return static_cast<double>(bytes) +
           kReplicaReadBytesPerSec * sim::to_seconds(overhead);
  }
  /// The read preamble every blob read shares: occupy the blob's next
  /// replica read stream for `stream_bytes`, then fetch `bytes` through the
  /// cluster under `op`. Throws ChecksumMismatchError when the response
  /// arrived corrupt. A whole-blob download (`whole_blob`) also records the
  /// serving server and the failure on `op`.
  sim::Task<void> read(netsim::Nic& client, BlobData& blob,
                       std::uint64_t part_hash, double stream_bytes,
                       std::int64_t bytes, obs::OpScope& op, bool whole_blob);

  cluster::StorageCluster& cluster_;
  BlobServiceConfig cfg_;
  std::map<std::string, Container> containers_;
  std::uint64_t etag_counter_ = 0;
};

}  // namespace azure
