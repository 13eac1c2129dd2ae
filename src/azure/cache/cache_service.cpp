#include "azure/cache/cache_service.hpp"

namespace azure {

CacheService::CacheService(sim::Simulation& sim, netsim::Network& network)
    : sim_(sim), network_(network) {
  servers_.reserve(static_cast<std::size_t>(kServers));
  for (int i = 0; i < kServers; ++i) {
    servers_.push_back(std::make_unique<Server>(sim));
  }
}

void CacheService::drop(Server& server, std::list<Item>::iterator it) {
  server.bytes -= it->value.size();
  server.index.erase({it->cache, it->key});
  server.lru.erase(it);
}

void CacheService::evict_to_fit(Server& server, std::int64_t incoming) {
  while (!server.lru.empty() &&
         server.bytes + incoming > kMemoryPerServer) {
    auto victim = std::prev(server.lru.end());
    ++stats_[victim->cache].evictions;
    drop(server, victim);
  }
}

sim::Task<void> CacheService::put(netsim::Nic& client,
                                  const std::string& cache, std::string key,
                                  Payload value, sim::Duration ttl) {
  if (value.size() > kMemoryPerServer) {
    throw InvalidArgumentError("cache item exceeds a server's memory");
  }
  Server& server = *servers_[static_cast<std::size_t>(server_of(cache, key))];
  co_await network_.transfer(client, server.nic, value.size() + 128);
  co_await sim_.delay(kPutCpu);
  co_await network_.transfer(server.nic, client, 64);  // ack

  if (auto it = server.index.find({cache, key}); it != server.index.end()) {
    drop(server, it->second);
  }
  evict_to_fit(server, value.size());
  const sim::Duration effective_ttl = ttl > 0 ? ttl : kDefaultTtl;
  Item item{cache, key, std::move(value),
            effective_ttl > 0 ? sim_.now() + effective_ttl : 0};
  server.bytes += item.value.size();
  server.lru.push_front(std::move(item));
  server.index[{cache, std::move(key)}] = server.lru.begin();
}

sim::Task<std::optional<Payload>> CacheService::get(netsim::Nic& client,
                                                    const std::string& cache,
                                                    std::string key) {
  Server& server = *servers_[static_cast<std::size_t>(server_of(cache, key))];
  co_await network_.transfer(client, server.nic, 128);
  co_await sim_.delay(kGetCpu);

  auto it = server.index.find({cache, key});
  if (it == server.index.end() || expired(*it->second)) {
    if (it != server.index.end()) drop(server, it->second);
    ++stats_[cache].misses;
    co_await network_.transfer(server.nic, client, 64);  // miss response
    co_return std::nullopt;
  }
  ++stats_[cache].hits;
  // Move to the LRU front.
  server.lru.splice(server.lru.begin(), server.lru, it->second);
  Payload value = it->second->value;
  co_await network_.transfer(server.nic, client, value.size() + 64);
  co_return value;
}

sim::Task<bool> CacheService::remove(netsim::Nic& client,
                                     const std::string& cache,
                                     std::string key) {
  Server& server = *servers_[static_cast<std::size_t>(server_of(cache, key))];
  co_await network_.transfer(client, server.nic, 128);
  co_await sim_.delay(kPutCpu);
  co_await network_.transfer(server.nic, client, 64);
  auto it = server.index.find({cache, key});
  if (it == server.index.end()) co_return false;
  drop(server, it->second);
  co_return true;
}

void CacheService::restart_server(int server_index) {
  Server& server = *servers_[static_cast<std::size_t>(server_index)];
  server.lru.clear();
  server.index.clear();
  server.bytes = 0;
}

CacheStats CacheService::stats(const std::string& cache) const {
  CacheStats s = stats_[cache];
  for (const auto& server : servers_) {
    for (const auto& item : server->lru) {
      if (item.cache == cache) {
        ++s.items;
        s.bytes += item.value.size();
      }
    }
  }
  return s;
}

}  // namespace azure
