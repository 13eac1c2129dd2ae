// Unit tests for the distributed caching service (extension module; the
// paper's future work).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "azure_test_util.hpp"
#include "azure/common/errors.hpp"

namespace {

using azb_test::TestWorld;
using azure::Payload;
using sim::Task;
using sim::TimePoint;

TEST(CacheTest, PutGetRoundtrip) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto cache = t.account.create_cloud_cache_client().get_cache_reference(
        "session");
    co_await cache.put("user:1", Payload::bytes("alice"));
    auto hit = co_await cache.get("user:1");
    CO_ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->data(), "alice");
    auto miss = co_await cache.get("user:2");
    EXPECT_FALSE(miss.has_value());
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.misses, 1);
  });
}

TEST(CacheTest, PutReplacesValue) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto cache = t.account.create_cloud_cache_client().get_cache_reference("c");
    co_await cache.put("k", Payload::bytes("v1"));
    co_await cache.put("k", Payload::bytes("v2"));
    auto hit = co_await cache.get("k");
    CO_ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->data(), "v2");
    EXPECT_EQ(cache.stats().items, 1);
  });
}

TEST(CacheTest, RemoveDeletesItem) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto cache = t.account.create_cloud_cache_client().get_cache_reference("c");
    co_await cache.put("k", Payload::bytes("v"));
    EXPECT_TRUE(co_await cache.remove("k"));
    EXPECT_FALSE(co_await cache.remove("k"));
    EXPECT_FALSE((co_await cache.get("k")).has_value());
  });
}

TEST(CacheTest, TtlExpiresItems) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto cache = t.account.create_cloud_cache_client().get_cache_reference("c");
    co_await cache.put("k", Payload::bytes("v"), sim::seconds(10));
    EXPECT_TRUE((co_await cache.get("k")).has_value());
    co_await t.sim.delay(sim::seconds(11));
    EXPECT_FALSE((co_await cache.get("k")).has_value());
  });
}

TEST(CacheTest, LruEvictionUnderMemoryPressure) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto& svc = t.env.cache_service();
    auto cache = t.account.create_cloud_cache_client().get_cache_reference("c");
    // Four keys on one server, each item a third of its memory.
    std::vector<std::string> keys;
    for (int i = 0; keys.size() < 4; ++i) {
      std::string key = "key-";
      key += std::to_string(i);
      if (svc.server_of("c", key) == 0) keys.push_back(std::move(key));
    }
    constexpr std::int64_t kItem = azure::CacheService::kMemoryPerServer / 3;
    co_await cache.put(keys[0], Payload::synthetic(kItem));
    co_await cache.put(keys[1], Payload::synthetic(kItem));
    co_await cache.put(keys[2], Payload::synthetic(kItem));
    // Touch the first so the second becomes the LRU victim.
    EXPECT_TRUE((co_await cache.get(keys[0])).has_value());
    co_await cache.put(keys[3], Payload::synthetic(kItem));
    EXPECT_TRUE((co_await cache.get(keys[0])).has_value());
    EXPECT_FALSE((co_await cache.get(keys[1])).has_value());  // evicted
    EXPECT_TRUE((co_await cache.get(keys[2])).has_value());
    EXPECT_TRUE((co_await cache.get(keys[3])).has_value());
    EXPECT_EQ(cache.stats().evictions, 1);
  });
}

TEST(CacheTest, OversizedItemRejected) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto cache = t.account.create_cloud_cache_client().get_cache_reference("c");
    EXPECT_THROW(
        co_await cache.put(
            "big", Payload::synthetic(azure::CacheService::kMemoryPerServer + 1)),
        azure::InvalidArgumentError);
  });
}

TEST(CacheTest, ServerRestartDropsOnlyItsPartitions) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto& svc = t.env.cache_service();
    auto cache = t.account.create_cloud_cache_client().get_cache_reference("c");
    // Find two keys on different servers.
    std::string on0, other;
    for (int i = 0; i < 64 && (on0.empty() || other.empty()); ++i) {
      const std::string key = "key-" + std::to_string(i);
      if (svc.server_of("c", key) == 0 && on0.empty()) on0 = key;
      if (svc.server_of("c", key) != 0 && other.empty()) other = key;
    }
    CO_ASSERT_TRUE(!on0.empty() && !other.empty());
    co_await cache.put(on0, Payload::bytes("x"));
    co_await cache.put(other, Payload::bytes("y"));
    svc.restart_server(0);  // fault injection: the cache is volatile
    EXPECT_FALSE((co_await cache.get(on0)).has_value());
    EXPECT_TRUE((co_await cache.get(other)).has_value());
  });
}

TEST(CacheTest, CacheReadFasterThanTableRead) {
  // The motivation for the caching service: sub-millisecond in-memory
  // reads vs. tens of milliseconds for the durable table.
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto cache = t.account.create_cloud_cache_client().get_cache_reference("c");
    auto table =
        t.account.create_cloud_table_client().get_table_reference("tbl");
    co_await table.create();
    azure::TableEntity e;
    e.partition_key = "p";
    e.row_key = "r";
    e.properties["data"] = Payload::synthetic(4096);
    co_await table.insert(e);
    co_await cache.put("r", Payload::synthetic(4096));

    TimePoint t0 = t.sim.now();
    (void)co_await cache.get("r");
    const auto cache_latency = t.sim.now() - t0;

    t0 = t.sim.now();
    (void)co_await table.query("p", "r");
    const auto table_latency = t.sim.now() - t0;

    EXPECT_LT(cache_latency, table_latency / 5);
  });
}

TEST(CacheTest, KeysSpreadAcrossServers) {
  TestWorld w;
  auto& svc = w.env.cache_service();
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 400; ++i) {
    ++counts[static_cast<size_t>(
        svc.server_of("c", "key-" + std::to_string(i)))];
  }
  for (int n : counts) {
    EXPECT_GT(n, 50);
    EXPECT_LT(n, 200);
  }
}

}  // namespace
