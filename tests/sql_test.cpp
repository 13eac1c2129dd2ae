// Unit tests for the SQL Azure model (extension module; the other study
// the paper defers to future work).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "azure_test_util.hpp"
#include "azure/common/errors.hpp"
#include "azure/sql/sql_service.hpp"
#include "simcore/sync.hpp"

namespace {

namespace sql = azure::sql;
using azb_test::TestWorld;
using sim::Task;
using sim::TimePoint;

std::vector<sql::Column> people_schema() {
  return {{"id", sql::ColumnType::kInt},
          {"name", sql::ColumnType::kText},
          {"score", sql::ColumnType::kReal},
          {"active", sql::ColumnType::kBool}};
}

sql::Row person(std::int64_t id, const std::string& name, double score,
                bool active) {
  return sql::Row{id, name, score, active};
}

sim::Task<void> provision(TestWorld& t) {
  auto& db = t.env.sql_service();
  co_await db.create_database(t.nic, "appdb", sql::Edition::kWeb1GB);
  co_await db.create_table(t.nic, "appdb", "people", people_schema());
}

TEST(SqlTest, CreateInsertSelectRoundtrip) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto& db = t.env.sql_service();
    co_await provision(t);
    co_await db.insert(t.nic, "appdb", "people", person(1, "ada", 9.5, true));
    auto row = co_await db.select_by_key(t.nic, "appdb", "people",
                                         sql::Value{std::int64_t{1}});
    CO_ASSERT_TRUE(row.has_value());
    EXPECT_EQ(std::get<std::string>((*row)[1]), "ada");
    EXPECT_EQ(std::get<double>((*row)[2]), 9.5);
    auto missing = co_await db.select_by_key(t.nic, "appdb", "people",
                                             sql::Value{std::int64_t{2}});
    EXPECT_FALSE(missing.has_value());
  });
}

TEST(SqlTest, SchemaIsEnforcedUnlikeTableStorage) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto& db = t.env.sql_service();
    co_await provision(t);
    // Wrong arity. (Named rows: GCC 12 miscompiles brace-init temporaries
    // inside co_await expressions.)
    sql::Row short_row;
    short_row.emplace_back(std::int64_t{1});
    short_row.emplace_back(std::string("x"));
    EXPECT_THROW(co_await db.insert(t.nic, "appdb", "people", short_row),
                 azure::InvalidArgumentError);
    // Wrong type in a column.
    sql::Row bad_type = person(1, "x", 0.0, true);
    bad_type[2] = std::string("not-a-real");
    EXPECT_THROW(co_await db.insert(t.nic, "appdb", "people", bad_type),
                 azure::InvalidArgumentError);
  });
}

TEST(SqlTest, PrimaryKeyUniqueness) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto& db = t.env.sql_service();
    co_await provision(t);
    co_await db.insert(t.nic, "appdb", "people", person(7, "a", 1, true));
    EXPECT_THROW(
        co_await db.insert(t.nic, "appdb", "people", person(7, "b", 2, true)),
        azure::ConflictError);
  });
}

TEST(SqlTest, PredicateQueries) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto& db = t.env.sql_service();
    co_await provision(t);
    for (int i = 0; i < 10; ++i) {
      co_await db.insert(t.nic, "appdb", "people",
                         person(i, "p" + std::to_string(i), i * 1.5,
                                i % 2 == 0));
    }
    sql::Predicate high{"score", sql::Predicate::Op::kGe, sql::Value{6.0}};
    const auto rows = co_await db.select_where(t.nic, "appdb", "people", high);
    EXPECT_EQ(rows.size(), 6u);  // scores 6, 7.5, 9, 10.5, 12, 13.5

    sql::Predicate actives{"active", sql::Predicate::Op::kEq,
                           sql::Value{true}};
    EXPECT_EQ(
        (co_await db.select_where(t.nic, "appdb", "people", actives)).size(),
        5u);

    sql::Predicate bad_col{"nope", sql::Predicate::Op::kEq, sql::Value{true}};
    EXPECT_THROW(co_await db.select_where(t.nic, "appdb", "people", bad_col),
                 azure::InvalidArgumentError);
    sql::Predicate bad_type{"score", sql::Predicate::Op::kEq,
                            sql::Value{std::string("x")}};
    EXPECT_THROW(co_await db.select_where(t.nic, "appdb", "people", bad_type),
                 azure::InvalidArgumentError);
  });
}

TEST(SqlTest, UpdateAndDelete) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto& db = t.env.sql_service();
    co_await provision(t);
    for (int i = 0; i < 6; ++i) {
      co_await db.insert(t.nic, "appdb", "people",
                         person(i, "p", 1.0, i < 3));
    }
    EXPECT_TRUE(co_await db.update_by_key(t.nic, "appdb", "people",
                                          sql::Value{std::int64_t{2}},
                                          person(2, "renamed", 5.0, false)));
    EXPECT_FALSE(co_await db.update_by_key(t.nic, "appdb", "people",
                                           sql::Value{std::int64_t{99}},
                                           person(99, "ghost", 0, false)));
    auto row = co_await db.select_by_key(t.nic, "appdb", "people",
                                         sql::Value{std::int64_t{2}});
    EXPECT_EQ(std::get<std::string>((*row)[1]), "renamed");

    sql::Predicate inactive{"active", sql::Predicate::Op::kEq,
                            sql::Value{false}};
    EXPECT_EQ(
        co_await db.delete_where(t.nic, "appdb", "people", inactive), 4);
    sql::Predicate all{"id", sql::Predicate::Op::kGe,
                       sql::Value{std::int64_t{0}}};
    EXPECT_EQ((co_await db.select_where(t.nic, "appdb", "people", all)).size(),
              2u);
  });
}

TEST(SqlTest, EditionSizeCapFailsWrites) {
  azure::CloudConfig cfg;
  TestWorld w(cfg);
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto& db = t.env.sql_service();
    co_await db.create_database(t.nic, "tiny", sql::Edition::kWeb1GB);
    std::vector<sql::Column> schema = {{"id", sql::ColumnType::kInt},
                                       {"data", sql::ColumnType::kText}};
    co_await db.create_table(t.nic, "tiny", "blobs", std::move(schema));
    // ~512 MB row, twice: the second exceeds the 1 GB cap.
    sql::Row first;
    first.emplace_back(std::int64_t{1});
    first.emplace_back(std::string(512ull << 20, 'x'));
    co_await db.insert(t.nic, "tiny", "blobs", std::move(first));
    sql::Row second;
    second.emplace_back(std::int64_t{2});
    second.emplace_back(std::string(512ull << 20, 'x'));
    EXPECT_THROW(co_await db.insert(t.nic, "tiny", "blobs", std::move(second)),
                 azure::InvalidArgumentError);
    EXPECT_GT(t.env.sql_service().database_bytes("tiny"), 512ll << 20);
  });
}

TEST(SqlTest, ConnectionLimitSerializesExcessClients) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    co_await provision(t);
    co_await t.env.sql_service().insert(t.nic, "appdb", "people",
                                        person(1, "x", 1, true));
  });
  sim::WaitGroup wg(w.sim);
  const TimePoint start = w.sim.now();
  constexpr int kClients = 3 * sql::SqlService::kMaxConnections;
  for (int i = 0; i < kClients; ++i) {
    wg.add();
    w.sim.spawn([](TestWorld& t, sim::WaitGroup& g) -> Task<> {
      (void)co_await t.env.sql_service().select_by_key(
          t.nic, "appdb", "people", sql::Value{std::int64_t{1}});
      g.done();
    }(w, wg));
  }
  w.sim.spawn([](sim::WaitGroup& g) -> Task<> { co_await g.wait(); }(wg));
  w.sim.run();
  // Three lookups per connection slot: at least 3 serialized rounds.
  EXPECT_GE(w.sim.now() - start, 3 * sql::SqlService::kPointLookupCpu);
}

TEST(SqlTest, PointLookupFasterThanScanButTableStorageComparable) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto& db = t.env.sql_service();
    co_await provision(t);
    for (int i = 0; i < 2'000; ++i) {
      co_await db.insert(t.nic, "appdb", "people",
                         person(i, "p", 1.0, true));
    }
  });
  auto measure = [&w](auto op) {
    const TimePoint t0 = w.sim.now();
    w.sim.spawn(op(w));
    w.sim.run();
    return w.sim.now() - t0;
  };
  const auto seek = measure([](TestWorld& t) -> Task<> {
    (void)co_await t.env.sql_service().select_by_key(
        t.nic, "appdb", "people", sql::Value{std::int64_t{1'500}});
  });
  const auto scan = measure([](TestWorld& t) -> Task<> {
    sql::Predicate p{"score", sql::Predicate::Op::kGt, sql::Value{100.0}};
    (void)co_await t.env.sql_service().select_where(t.nic, "appdb", "people",
                                                    p);
  });
  EXPECT_GT(scan, seek * 2);  // index seek vs full scan
}

TEST(SqlTest, DropDatabaseRemovesEverything) {
  TestWorld w;
  azb_test::run(w, [](TestWorld& t) -> Task<> {
    auto& db = t.env.sql_service();
    co_await provision(t);
    co_await db.drop_database(t.nic, "appdb");
    EXPECT_THROW(co_await db.select_by_key(t.nic, "appdb", "people",
                                           sql::Value{std::int64_t{1}}),
                 azure::NotFoundError);
    EXPECT_THROW(co_await db.drop_database(t.nic, "appdb"),
                 azure::NotFoundError);
  });
}

}  // namespace
