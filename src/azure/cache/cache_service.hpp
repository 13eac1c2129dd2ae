// Distributed in-memory caching service — the Azure AppFabric Caching
// service of the 2011/2012 platform ("a caching service to temporarily
// hold data in memory across different servers", Section II-B). The paper
// defers studying it to future work; this module implements it so the
// comparison benches can quantify what the cache buys over the storage
// services.
//
// Model:
//  * named caches, partitioned across dedicated cache servers by key hash;
//  * items live in memory: no disk, no replication — reads and writes cost
//    a network hop plus a sub-millisecond server operation;
//  * per-server memory capacity with LRU eviction;
//  * optional time-to-live per item;
//  * caches are volatile: a server "restart" (fault injection) drops every
//    item it holds, and applications must fall back to durable storage.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "azure/common/errors.hpp"
#include "azure/common/payload.hpp"
#include "cluster/hash.hpp"
#include "netsim/network.hpp"
#include "netsim/nic.hpp"
#include "simcore/simulation.hpp"
#include "simcore/task.hpp"

namespace azure {

/// Statistics of one named cache (for tests and capacity planning).
struct CacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  std::int64_t items = 0;
  std::int64_t bytes = 0;
};

class CacheService {
 public:
  /// Dedicated cache servers (separate from the storage partition servers).
  static constexpr int kServers = 4;

  /// Memory budget per cache server.
  static constexpr std::int64_t kMemoryPerServer = 128ll << 20;

  CacheService(sim::Simulation& sim, netsim::Network& network);

  /// Stores an item (replacing any previous value). Items larger than a
  /// server's memory are rejected.
  sim::Task<void> put(netsim::Nic& client, const std::string& cache,
                      std::string key, Payload value,
                      sim::Duration ttl = 0);

  /// Fetches an item; nullopt on miss (evicted, expired, or never stored).
  sim::Task<std::optional<Payload>> get(netsim::Nic& client,
                                        const std::string& cache,
                                        std::string key);

  /// Removes an item. Returns whether it existed.
  sim::Task<bool> remove(netsim::Nic& client, const std::string& cache,
                         std::string key);

  /// Fault injection: drops every item held by one cache server.
  void restart_server(int server_index);

  CacheStats stats(const std::string& cache) const;
  int server_of(const std::string& cache, const std::string& key) const {
    return static_cast<int>(cluster::partition_hash(cache, key) %
                            static_cast<std::uint64_t>(kServers));
  }

 private:
  /// Server-side work per operation (in-memory hash lookups).
  static constexpr sim::Duration kGetCpu = sim::micros(150);
  static constexpr sim::Duration kPutCpu = sim::micros(250);

  /// Default item TTL (0 = no expiry until evicted).
  static constexpr sim::Duration kDefaultTtl = 0;

  struct Item {
    std::string cache;
    std::string key;
    Payload value;
    sim::TimePoint expires_at;  // 0 = never
  };
  /// One cache server: an LRU list plus an index into it.
  struct Server {
    explicit Server(sim::Simulation& sim)
        : nic(sim, netsim::NicConfig{netsim::kServerNicBytesPerSec,
                                     netsim::kServerNicBytesPerSec,
                                     sim::micros(30)}) {}
    netsim::Nic nic;
    std::list<Item> lru;  // front = most recently used
    std::map<std::pair<std::string, std::string>, std::list<Item>::iterator>
        index;
    std::int64_t bytes = 0;
  };

  void evict_to_fit(Server& server, std::int64_t incoming);
  bool expired(const Item& item) const {
    return item.expires_at != 0 && item.expires_at <= sim_.now();
  }
  void drop(Server& server, std::list<Item>::iterator it);

  sim::Simulation& sim_;
  netsim::Network& network_;
  std::vector<std::unique_ptr<Server>> servers_;
  mutable std::map<std::string, CacheStats> stats_;
};

}  // namespace azure
