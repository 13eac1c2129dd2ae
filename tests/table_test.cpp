// Unit tests for Table storage semantics and its timing model.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "azure_test_util.hpp"
#include "azure/common/errors.hpp"
#include "azure/common/limits.hpp"
#include "azure/common/retry.hpp"
#include "simcore/sync.hpp"

namespace {

using azb_test::TestWorld;
using azure::Payload;
using azure::TableEntity;
using sim::Task;
using sim::TimePoint;

TableEntity make_entity(const std::string& pk, const std::string& rk,
                        std::int64_t payload_size = 128) {
  TableEntity e;
  e.partition_key = pk;
  e.row_key = rk;
  e.properties["data"] = Payload::synthetic(payload_size);
  return e;
}

TEST(TableTest, CreateExistsDelete) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    EXPECT_FALSE(co_await tbl.exists());
    co_await tbl.create();
    EXPECT_TRUE(co_await tbl.exists());
    EXPECT_THROW(co_await tbl.create(), azure::ConflictError);
    co_await tbl.create_if_not_exists();
    co_await tbl.delete_table();
    EXPECT_FALSE(co_await tbl.exists());
    EXPECT_THROW(co_await tbl.delete_table(), azure::NotFoundError);
  });
}

TEST(TableTest, InsertQueryRoundtripAllPropertyTypes) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.create();
    TableEntity e;
    e.partition_key = "pk";
    e.row_key = "rk";
    e.properties["name"] = std::string("neutron");
    e.properties["count"] = std::int64_t{42};
    e.properties["ratio"] = 2.5;
    e.properties["valid"] = true;
    e.properties["blob"] = Payload::bytes("\x01\x02\x03");
    co_await tbl.insert(e);
    const auto back = co_await tbl.query("pk", "rk");
    EXPECT_EQ(std::get<std::string>(back.properties.at("name")), "neutron");
    EXPECT_EQ(std::get<std::int64_t>(back.properties.at("count")), 42);
    EXPECT_EQ(std::get<double>(back.properties.at("ratio")), 2.5);
    EXPECT_EQ(std::get<bool>(back.properties.at("valid")), true);
    EXPECT_EQ(std::get<Payload>(back.properties.at("blob")).data(),
              "\x01\x02\x03");
    EXPECT_FALSE(back.etag.empty());
    EXPECT_GE(back.timestamp, 0);
  });
}

TEST(TableTest, SchemalessEntitiesInOneTable) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.create();
    TableEntity a;
    a.partition_key = "pk";
    a.row_key = "a";
    a.properties["alpha"] = std::int64_t{1};
    TableEntity b;
    b.partition_key = "pk";
    b.row_key = "b";
    b.properties["totally_different"] = std::string("yes");
    co_await tbl.insert(a);
    co_await tbl.insert(b);
    const auto ra = co_await tbl.query("pk", "a");
    const auto rb = co_await tbl.query("pk", "b");
    EXPECT_TRUE(ra.properties.count("alpha"));
    EXPECT_FALSE(ra.properties.count("totally_different"));
    EXPECT_TRUE(rb.properties.count("totally_different"));
  });
}

TEST(TableTest, DuplicateInsertConflicts) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.create();
    co_await tbl.insert(make_entity("pk", "rk"));
    EXPECT_THROW(co_await tbl.insert(make_entity("pk", "rk")),
                 azure::ConflictError);
  });
}

TEST(TableTest, QueryMissingThrowsNotFound) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.create();
    EXPECT_THROW(co_await tbl.query("pk", "nope"), azure::NotFoundError);
  });
}

TEST(TableTest, UpdateRequiresMatchingEtag) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.create();
    co_await tbl.insert(make_entity("pk", "rk"));
    auto current = co_await tbl.query("pk", "rk");

    auto updated = make_entity("pk", "rk", 256);
    EXPECT_THROW(co_await tbl.update(updated, "W/\"stale\""),
                 azure::PreconditionFailedError);
    co_await tbl.update(updated, current.etag);  // matching ETag works
    auto after = co_await tbl.query("pk", "rk");
    EXPECT_NE(after.etag, current.etag);  // update refreshed the ETag
    // The old ETag is now stale.
    EXPECT_THROW(co_await tbl.update(updated, current.etag),
                 azure::PreconditionFailedError);
  });
}

TEST(TableTest, WildcardEtagUpdatesUnconditionally) {
  // The paper benchmarks only unconditional updates ("wild card character *
  // for ETag").
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.create();
    co_await tbl.insert(make_entity("pk", "rk"));
    co_await tbl.update(make_entity("pk", "rk", 512), "*");
    const auto back = co_await tbl.query("pk", "rk");
    EXPECT_EQ(std::get<Payload>(back.properties.at("data")).size(), 512);
  });
}

TEST(TableTest, UpdateMissingEntityThrowsNotFound) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.create();
    EXPECT_THROW(co_await tbl.update(make_entity("pk", "rk"), "*"),
                 azure::NotFoundError);
  });
}

TEST(TableTest, InsertOrReplaceUpserts) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.create();
    co_await tbl.insert_or_replace(make_entity("pk", "rk", 100));
    co_await tbl.insert_or_replace(make_entity("pk", "rk", 200));
    const auto back = co_await tbl.query("pk", "rk");
    EXPECT_EQ(std::get<Payload>(back.properties.at("data")).size(), 200);
  });
}

TEST(TableTest, MergeCombinesProperties) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.create();
    TableEntity e;
    e.partition_key = "pk";
    e.row_key = "rk";
    e.properties["keep"] = std::string("original");
    e.properties["overwrite"] = std::int64_t{1};
    co_await tbl.insert(e);
    TableEntity patch;
    patch.partition_key = "pk";
    patch.row_key = "rk";
    patch.properties["overwrite"] = std::int64_t{2};
    patch.properties["fresh"] = true;
    co_await tbl.merge(patch);
    const auto back = co_await tbl.query("pk", "rk");
    EXPECT_EQ(std::get<std::string>(back.properties.at("keep")), "original");
    EXPECT_EQ(std::get<std::int64_t>(back.properties.at("overwrite")), 2);
    EXPECT_EQ(std::get<bool>(back.properties.at("fresh")), true);
  });
}

/// An entity at pk/`rk` with `n` integer properties named `prefix`0, ...
TableEntity wide_entity(const std::string& rk, const std::string& prefix,
                        int n) {
  TableEntity e;
  e.partition_key = "pk";
  e.row_key = rk;
  for (int i = 0; i < n; ++i) {
    e.properties[prefix + std::to_string(i)] = std::int64_t{i};
  }
  return e;
}

TEST(TableTest, MergePastThePropertyLimitLeavesTheRowAsItWas) {
  // Regression: a merge wrote the patch into the stored row before it
  // validated the result, so the rejected merge left 300 properties behind.
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.create();
    co_await tbl.insert(wide_entity("rk", "a", 200));
    const std::string etag = (co_await tbl.query("pk", "rk")).etag;
    EXPECT_THROW(co_await tbl.merge(wide_entity("rk", "b", 100)),
                 azure::InvalidArgumentError);
    const auto back = co_await tbl.query("pk", "rk");
    EXPECT_EQ(back.properties.size(), 200u);
    EXPECT_EQ(back.etag, etag);
  });
}

TEST(TableTest, BatchMergePastThePropertyLimitAppliesNothing) {
  // Regression: execute_batch never validated a merged row, so the same
  // merge in a batch stored a 300-property entity and raised no error.
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.create();
    co_await tbl.insert(wide_entity("rk", "a", 200));
    const std::string etag = (co_await tbl.query("pk", "rk")).etag;
    azure::TableBatch batch;
    batch.merge(wide_entity("rk", "b", 100));
    batch.insert(make_entity("pk", "other"));
    EXPECT_THROW(co_await tbl.execute_batch(std::move(batch)),
                 azure::InvalidArgumentError);
    const auto back = co_await tbl.query("pk", "rk");
    EXPECT_EQ(back.properties.size(), 200u);
    EXPECT_EQ(back.etag, etag);
    EXPECT_THROW(co_await tbl.query("pk", "other"), azure::NotFoundError);
  });
}

TEST(TableTest, EraseRemovesEntity) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.create();
    co_await tbl.insert(make_entity("pk", "rk"));
    co_await tbl.erase("pk", "rk");
    EXPECT_THROW(co_await tbl.query("pk", "rk"), azure::NotFoundError);
    EXPECT_THROW(co_await tbl.erase("pk", "rk"), azure::NotFoundError);
  });
}

TEST(TableTest, PartitionScanReturnsOnlyThatPartition) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.create();
    co_await tbl.insert(make_entity("p1", "a"));
    co_await tbl.insert(make_entity("p1", "b"));
    co_await tbl.insert(make_entity("p2", "c"));
    const auto rows = co_await tbl.query_partition("p1");
    CO_ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].row_key, "a");
    EXPECT_EQ(rows[1].row_key, "b");
  });
}

TEST(TableTest, EntityValidationLimits) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.create();

    // Missing keys.
    TableEntity nokeys;
    EXPECT_THROW(co_await tbl.insert(nokeys), azure::InvalidArgumentError);

    // Over 1 MB.
    auto big = make_entity("pk", "big", azure::limits::kMaxEntityBytes + 1);
    EXPECT_THROW(co_await tbl.insert(big), azure::InvalidArgumentError);

    // Over 255 properties (3 system + 253 user).
    TableEntity many;
    many.partition_key = "pk";
    many.row_key = "many";
    for (int i = 0; i < 253; ++i) {
      many.properties["p" + std::to_string(i)] = std::int64_t{i};
    }
    EXPECT_THROW(co_await tbl.insert(many), azure::InvalidArgumentError);

    // Exactly at the limit is fine (252 user properties).
    many.properties.erase("p0");
    co_await tbl.insert(many);
  });
}

TEST(TableTest, PartitionThrottleAt500EntitiesPerSecond) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.create();
  });
  int busy = 0, ok = 0;
  for (int i = 0; i < 600; ++i) {
    w.sim.spawn([](TestWorld& t, int id, int& b, int& o) -> Task<> {
      auto tbl =
          t.account.create_cloud_table_client().get_table_reference("t");
      try {
        co_await tbl.insert(make_entity("hot", "rk" + std::to_string(id)));
        ++o;
      } catch (const azure::ServerBusyError&) {
        ++b;
      }
    }(w, i, busy, ok));
  }
  w.sim.run();
  EXPECT_EQ(ok, 500);
  EXPECT_EQ(busy, 100);
}

TEST(TableTest, SeparatePartitionsThrottleIndependently) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.create();
  });
  // 300 inserts each into two partitions: no single partition exceeds 500/s.
  int busy = 0;
  for (int i = 0; i < 600; ++i) {
    w.sim.spawn([](TestWorld& t, int id, int& b) -> Task<> {
      auto tbl =
          t.account.create_cloud_table_client().get_table_reference("t");
      try {
        co_await tbl.insert(make_entity("part" + std::to_string(id % 2),
                                        "rk" + std::to_string(id)));
      } catch (const azure::ServerBusyError&) {
        ++b;
      }
    }(w, i, busy));
  }
  w.sim.run();
  EXPECT_EQ(busy, 0);
}

// ------------------------------------------- requests racing a delete ----

/// A query started this long after a delete or an update finds the row
/// before its cluster round trip and re-reads it after the write landed:
/// the write's server work outlasts the lag, and the lag plus the query's
/// own TableService::kQueryCpu outlasts the write.
constexpr sim::Duration kQueryLag = sim::millis(20);

TEST(TableTest, DeleteDuringInFlightQueryReturnsNotFound) {
  // Regression: query found the row before its cluster round trip and read
  // it after, so a delete landing in between handed back a freed row.
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.create();
    co_await tbl.insert(make_entity("pk", "rk"));
    int answered = 0;
    t.sim.spawn([](TestWorld& u, int& done) -> Task<> {
      co_await u.sim.delay(kQueryLag);
      auto q = u.account.create_cloud_table_client().get_table_reference("t");
      EXPECT_THROW(co_await q.query("pk", "rk"), azure::NotFoundError);
      ++done;
    }(t, answered));
    co_await tbl.erase("pk", "rk");
    EXPECT_EQ(answered, 0) << "the delete must land while the query is in "
                              "flight";
  });
}

TEST(TableTest, ReplaceDuringInFlightQueryReturnsTheReplacement) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.create();
    co_await tbl.insert(make_entity("pk", "rk", 128));
    int answered = 0;
    t.sim.spawn([](TestWorld& u, int& done) -> Task<> {
      co_await u.sim.delay(kQueryLag);
      auto q = u.account.create_cloud_table_client().get_table_reference("t");
      const TableEntity got = co_await q.query("pk", "rk");
      EXPECT_EQ(std::get<Payload>(got.properties.at("data")).size(), 256);
      ++done;
    }(t, answered));
    co_await tbl.update(make_entity("pk", "rk", 256));
    EXPECT_EQ(answered, 0) << "the update must land while the query is in "
                              "flight";
  });
}

TEST(TableTest, OpsInFlightWhenTheTableIsDeletedEndInNotFound) {
  // Regression: every data op held its table across the journal write and
  // the cluster round trip, so a delete_table landing in between left insert
  // and execute_batch writing into a freed table.
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.create();
    int failed = 0;
    t.sim.spawn([](TestWorld& u, int& n) -> Task<> {
      auto v = u.account.create_cloud_table_client().get_table_reference("t");
      EXPECT_THROW(co_await v.insert(make_entity("pk", "a")),
                   azure::NotFoundError);
      ++n;
    }(t, failed));
    t.sim.spawn([](TestWorld& u, int& n) -> Task<> {
      auto v = u.account.create_cloud_table_client().get_table_reference("t");
      azure::TableBatch batch;
      batch.insert(make_entity("pk", "b"));
      batch.insert(make_entity("pk", "c"));
      EXPECT_THROW(co_await v.execute_batch(std::move(batch)),
                   azure::NotFoundError);
      ++n;
    }(t, failed));
    co_await t.sim.delay(sim::millis(1));
    co_await tbl.delete_table();
    EXPECT_EQ(failed, 0) << "delete_table must land while both ops are in "
                            "flight";
    co_await t.sim.delay(sim::seconds(1));
    EXPECT_EQ(failed, 2);
  });
}

// ---------------------------------------------------------- timing model ----

TEST(TableTimingTest, UpdateIsMostExpensiveQueryCheapest) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.create();
    co_await tbl.insert(make_entity("pk", "rk", 4096));
  });
  auto measure = [&w](auto op) {
    const TimePoint start = w.sim.now();
    w.sim.spawn(op(w));
    w.sim.run();
    return w.sim.now() - start;
  };
  const auto insert_t = measure([](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.insert(make_entity("pk", "other", 4096));
  });
  const auto query_t = measure([](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    (void)co_await tbl.query("pk", "rk");
  });
  const auto update_t = measure([](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.update(make_entity("pk", "rk", 4096), "*");
  });
  const auto delete_t = measure([](TestWorld& t) -> Task<> {
    auto tbl = t.account.create_cloud_table_client().get_table_reference("t");
    co_await tbl.erase("pk", "other");
  });
  EXPECT_GT(update_t, insert_t);
  EXPECT_GT(insert_t, query_t);
  EXPECT_GT(update_t, delete_t);
  EXPECT_GT(delete_t, query_t);
}

TEST(TableTimingTest, LargeEntitiesDegradeUnderConcurrency) {
  // Fig. 8: with 32/64 KB entities the per-server commit journal saturates
  // as concurrent writers multiply; with 4 KB entities it does not.
  auto phase_time = [](std::int64_t entity_size, int workers) {
    TestWorld w;
    azb_test::run(w, [](TestWorld& t) -> Task<> {
      auto tbl =
          t.account.create_cloud_table_client().get_table_reference("t");
      co_await tbl.create();
    });
    const TimePoint start = w.sim.now();
    sim::WaitGroup wg(w.sim);
    for (int i = 0; i < workers; ++i) {
      wg.add();
      w.sim.spawn([](TestWorld& t, sim::WaitGroup& g, int id,
                     std::int64_t size) -> Task<> {
        auto tbl =
            t.account.create_cloud_table_client().get_table_reference("t");
        for (int k = 0; k < 20; ++k) {
          co_await azure::with_retry(t.sim, [&] {
            std::string pk = "w";
            pk += std::to_string(id);
            std::string rk = "r";
            rk += std::to_string(k);
            return tbl.insert(make_entity(pk, rk, size));
          });
        }
        g.done();
      }(w, wg, i, entity_size));
    }
    w.sim.spawn([](sim::WaitGroup& g) -> Task<> { co_await g.wait(); }(wg));
    w.sim.run();
    return w.sim.now() - start;
  };
  // Per-op cost at small sizes stays flat as workers grow...
  const double small_ratio = static_cast<double>(phase_time(4096, 64)) /
                             static_cast<double>(phase_time(4096, 2));
  // ...but inflates at 64 KB (journal saturation).
  const double large_ratio =
      static_cast<double>(phase_time(64 * 1024, 64)) /
      static_cast<double>(phase_time(64 * 1024, 2));
  EXPECT_LT(small_ratio, 1.5);
  EXPECT_GT(large_ratio, 2.0);
}

}  // namespace
