// Integrity bookkeeping for the cluster's replicated objects.
//
// The services keep the *authoritative* object contents (blob blocks, queue
// messages, table entities) in their own maps; what the cluster needs to
// model end-to-end integrity is the per-replica *physical* state: which
// generation of each object every replica holds, whether that copy's CRC32C
// still validates, and whether a crash left it torn. This store is that
// ledger. It costs nothing when fault injection is off — the cluster only
// touches it for integrity-tracked requests under an armed plan.
//
// Placement: the object's home (its bucket's default owner) holds replica
// 0, and replica r lives on server (home + r) % N. A tracked write fans out
// along this ring whichever server serves it, and crash failover walks the
// same ring order, so off a down home "the next healthy server" is exactly
// "the next replica".
//
// A replica copy is GOOD when it holds the committed generation, its stored
// checksum matches the committed checksum, and it is not torn. The committed
// (generation, checksum) only advance when a write is acknowledged to the
// client, so:
//  * a replica that missed a commit while its server was down is *stale*;
//  * a replica whose commit a crash interrupted may be *torn* (partial
//    write, checksum invalid);
//  * a replica that committed a generation whose write later failed (the
//    primary crashed before acking) is *divergent* — it holds real data the
//    service never acknowledged.
// All three are caught by the same verify() check and repaired by copying
// the committed content back in (read-repair or scrub).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

namespace cluster {

/// Replicas per storage object (Azure keeps 3 with strong consistency).
inline constexpr int kReplicas = 3;

class ReplicaStore {
 public:
  struct Replica {
    std::uint64_t gen = 0;
    std::uint32_t crc = 0;
    bool torn = false;
    /// Guards against concurrent repairs of the same copy (read-repair
    /// racing the scrubber).
    bool repairing = false;

    /// Records that this copy now holds generation `g` with checksum `c`. A
    /// torn copy holds a partial record whose stored checksum cannot
    /// validate.
    void land(std::uint64_t g, std::uint32_t c, bool is_torn) noexcept {
      gen = g;
      crc = is_torn ? c ^ 0x5A5A5A5Au : c;
      torn = is_torn;
    }
  };

  struct Entry {
    std::uint64_t committed_gen = 0;
    std::uint32_t committed_crc = 0;
    /// Allocator for write-attempt generations. Concurrent writes to the
    /// same object must not share a generation number, and an attempt that
    /// fails (primary crash before ack) must not be reused — the copies it
    /// landed are divergent precisely because their generation was never
    /// committed.
    std::uint64_t next_gen = 0;
    /// Stored size of the object — what a repair has to move.
    std::int64_t bytes = 0;
    /// Partition server holding replica 0.
    int home = 0;
    std::vector<Replica> replicas;

    bool replica_good(int r) const noexcept {
      const Replica& rep = replicas[static_cast<std::size_t>(r)];
      return !rep.torn && rep.gen == committed_gen &&
             rep.crc == committed_crc;
    }
  };

  explicit ReplicaStore(int servers) noexcept : servers_(servers) {}

  /// Finds or creates the entry for `object_id`, homing new objects on
  /// `home`. (An object's home never changes: partition reassignment moves
  /// the *serving* role, not the stored replicas.)
  Entry& open(std::uint64_t object_id, int home) {
    auto [it, inserted] = entries_.try_emplace(object_id);
    if (inserted) {
      it->second.home = home;
      it->second.replicas.resize(static_cast<std::size_t>(kReplicas));
    }
    return it->second;
  }

  /// The entry for `object_id`, or nullptr when it was never written through
  /// an integrity-tracked request.
  Entry* find(std::uint64_t object_id) noexcept {
    auto it = entries_.find(object_id);
    return it == entries_.end() ? nullptr : &it->second;
  }

  /// Server index hosting replica `r` of `entry`.
  int server_of(const Entry& entry, int r) const noexcept {
    return (entry.home + r) % servers_;
  }

  /// Replica index of `entry` hosted on `server`, or -1.
  int replica_on(const Entry& entry, int server) const noexcept {
    for (int r = 0; r < kReplicas; ++r) {
      if (server_of(entry, r) == server) return r;
    }
    return -1;
  }

  /// Deterministic iteration (ordered by object id) for the scrubber.
  std::map<std::uint64_t, Entry>& entries() noexcept { return entries_; }
  const std::map<std::uint64_t, Entry>& entries() const noexcept {
    return entries_;
  }

  std::int64_t tracked_objects() const noexcept {
    return static_cast<std::int64_t>(entries_.size());
  }

  /// Replica copies that currently fail verification, across all objects.
  /// Zero means every replica of every tracked object converged to its
  /// committed checksum — the scrubber's goal state.
  std::int64_t divergent_replicas() const noexcept {
    std::int64_t n = 0;
    for (const auto& [id, entry] : entries_) {
      for (int r = 0; r < kReplicas; ++r) {
        if (!entry.replica_good(r)) ++n;
      }
    }
    return n;
  }

 private:
  int servers_;
  std::map<std::uint64_t, Entry> entries_;
};

}  // namespace cluster
