#include "storage/azure_driver.hpp"

#include <optional>
#include <utility>
#include <vector>

namespace storage {

AzureDriver::AzureDriver(sim::Simulation& sim, const framework::Scenario& sc)
    : Driver(this), env_(sim, cloud_config(sc)) {}

azure::CloudConfig AzureDriver::cloud_config(const framework::Scenario& sc) {
  azure::CloudConfig cc;
  cc.cluster = cluster_config(sc, sc.cluster.throttle_queue
                                      ? cluster::ThrottleMode::kQueue
                                      : cluster::ThrottleMode::kReject);
  cc.faults = fault_config(sc);
  return cc;
}

azure::TableEntity AzureDriver::make_entity(std::string partition,
                                            std::string row,
                                            std::int64_t bytes) const {
  azure::TableEntity e;
  e.partition_key = std::move(partition);
  e.row_key = std::move(row);
  e.properties["data"] = azure::Payload::synthetic(bytes);
  return e;
}

sim::Task<void> AzureDriver::prepare_objects(netsim::Nic& nic) {
  azure::CloudStorageAccount account(env_, nic);
  auto container =
      account.create_cloud_blob_client().get_container_reference("c");
  co_await container.create();
}

sim::Task<void> AzureDriver::prepare_queue(netsim::Nic& nic,
                                           std::string queue) {
  azure::CloudStorageAccount account(env_, nic);
  auto q = account.create_cloud_queue_client().get_queue_reference(
      std::move(queue));
  co_await q.create();
}

sim::Task<void> AzureDriver::prepare_table(netsim::Nic& nic) {
  azure::CloudStorageAccount account(env_, nic);
  auto t = account.create_cloud_table_client().get_table_reference("t");
  co_await t.create();
}

sim::Task<void> AzureDriver::prepare_sql(netsim::Nic& nic) {
  auto& db = env_.sql_service();
  co_await db.create_database(nic, "db", azure::sql::Edition::kBusiness50GB);
  std::vector<azure::sql::Column> schema = {
      {"k", azure::sql::ColumnType::kInt},
      {"v", azure::sql::ColumnType::kText}};
  co_await db.create_table(nic, "db", "t", std::move(schema));
}

sim::Task<OpResult> AzureDriver::object_write(netsim::Nic& nic,
                                              std::string key,
                                              std::int64_t bytes) {
  azure::CloudStorageAccount account(env_, nic);
  auto blob = account.create_cloud_blob_client()
                  .get_container_reference("c")
                  .get_block_blob_reference(std::move(key));
  azure::Payload body = azure::Payload::synthetic(bytes);
  co_await blob.upload_text(std::move(body));
  co_return OpResult{.bytes = bytes};
}

sim::Task<OpResult> AzureDriver::object_read(netsim::Nic& nic,
                                             std::string key) {
  azure::CloudStorageAccount account(env_, nic);
  auto blob = account.create_cloud_blob_client()
                  .get_container_reference("c")
                  .get_block_blob_reference(std::move(key));
  try {
    const azure::Payload p = co_await blob.download_text();
    co_return OpResult{.bytes = p.size()};
  } catch (const azure::NotFoundError&) {
    co_return OpResult{.miss = true};
  }
}

sim::Task<OpResult> AzureDriver::object_list(netsim::Nic& nic) {
  const std::vector<std::string> names =
      co_await env_.blob_service().list_blobs(nic, "c");
  const std::int64_t n = static_cast<std::int64_t>(names.size());
  co_return OpResult{.bytes = kListEntryBytes * n, .items = n};
}

sim::Task<OpResult> AzureDriver::object_delete(netsim::Nic& nic,
                                               std::string key) {
  // Azure contract: deleting an absent blob is a 404 — a miss, not an
  // error (the S3 backend's delete is an idempotent 204 instead).
  azure::CloudStorageAccount account(env_, nic);
  auto blob = account.create_cloud_blob_client()
                  .get_container_reference("c")
                  .get_block_blob_reference(std::move(key));
  try {
    co_await blob.delete_blob();
    co_return OpResult{};
  } catch (const azure::NotFoundError&) {
    co_return OpResult{.miss = true};
  }
}

sim::Task<OpResult> AzureDriver::queue_put(netsim::Nic& nic,
                                           std::string queue,
                                           std::int64_t bytes) {
  azure::CloudStorageAccount account(env_, nic);
  auto q = account.create_cloud_queue_client().get_queue_reference(
      std::move(queue));
  azure::Payload body = azure::Payload::synthetic(bytes);
  co_await q.add_message(std::move(body));
  co_return OpResult{.bytes = bytes};
}

sim::Task<OpResult> AzureDriver::queue_get(netsim::Nic& nic,
                                           std::string queue) {
  azure::CloudStorageAccount account(env_, nic);
  auto q = account.create_cloud_queue_client().get_queue_reference(
      std::move(queue));
  const std::optional<azure::QueueMessage> m = co_await q.get_message();
  if (!m.has_value()) co_return OpResult{.miss = true};
  co_await q.delete_message(*m);
  co_return OpResult{.bytes = m->body.size()};
}

sim::Task<OpResult> AzureDriver::queue_peek(netsim::Nic& nic,
                                            std::string queue) {
  azure::CloudStorageAccount account(env_, nic);
  auto q = account.create_cloud_queue_client().get_queue_reference(
      std::move(queue));
  const std::optional<azure::QueueMessage> m = co_await q.peek_message();
  if (!m.has_value()) co_return OpResult{.miss = true};
  co_return OpResult{.bytes = m->body.size()};
}

sim::Task<OpResult> AzureDriver::table_read(netsim::Nic& nic,
                                            std::string partition,
                                            std::string row) {
  azure::CloudStorageAccount account(env_, nic);
  auto t = account.create_cloud_table_client().get_table_reference("t");
  try {
    const azure::TableEntity e =
        co_await t.query(std::move(partition), std::move(row));
    co_return OpResult{.bytes = e.size()};
  } catch (const azure::NotFoundError&) {
    co_return OpResult{.miss = true};
  }
}

sim::Task<OpResult> AzureDriver::table_insert(netsim::Nic& nic,
                                              std::string partition,
                                              std::string row,
                                              std::int64_t bytes) {
  // insert_or_replace: YCSB-style inserts land on generator-drawn keys,
  // which collide with the populated range by design.
  azure::CloudStorageAccount account(env_, nic);
  auto t = account.create_cloud_table_client().get_table_reference("t");
  co_await t.insert_or_replace(
      make_entity(std::move(partition), std::move(row), bytes));
  co_return OpResult{.bytes = bytes};
}

sim::Task<OpResult> AzureDriver::table_update(netsim::Nic& nic,
                                              std::string partition,
                                              std::string row,
                                              std::int64_t bytes) {
  azure::CloudStorageAccount account(env_, nic);
  auto t = account.create_cloud_table_client().get_table_reference("t");
  try {
    co_await t.update(make_entity(std::move(partition), std::move(row), bytes),
                      "*");
    co_return OpResult{.bytes = bytes};
  } catch (const azure::NotFoundError&) {
    co_return OpResult{.miss = true};
  }
}

sim::Task<OpResult> AzureDriver::table_scan(netsim::Nic& nic,
                                            std::string partition) {
  azure::CloudStorageAccount account(env_, nic);
  auto t = account.create_cloud_table_client().get_table_reference("t");
  const std::vector<azure::TableEntity> rows =
      co_await t.query_partition(std::move(partition));
  if (rows.empty()) co_return OpResult{.miss = true};
  OpResult r;
  r.items = static_cast<std::int64_t>(rows.size());
  for (const azure::TableEntity& e : rows) r.bytes += e.size();
  co_return r;
}

sim::Task<OpResult> AzureDriver::table_rmw(netsim::Nic& nic,
                                           std::string partition,
                                           std::string row,
                                           std::int64_t bytes) {
  azure::CloudStorageAccount account(env_, nic);
  auto t = account.create_cloud_table_client().get_table_reference("t");
  try {
    azure::TableEntity e = co_await t.query(partition, row);
    const std::int64_t read_bytes = e.size();
    e.properties["data"] = azure::Payload::synthetic(bytes);
    co_await t.update(std::move(e), "*");
    co_return OpResult{.bytes = read_bytes + bytes};
  } catch (const azure::NotFoundError&) {
    co_return OpResult{.miss = true};
  }
}

sim::Task<OpResult> AzureDriver::sql_read(netsim::Nic& nic,
                                          std::uint64_t key) {
  azure::sql::Value k{static_cast<std::int64_t>(key)};
  const std::optional<azure::sql::Row> row =
      co_await env_.sql_service().select_by_key(nic, "db", "t", std::move(k));
  if (!row.has_value()) co_return OpResult{.miss = true};
  co_return OpResult{.bytes = static_cast<std::int64_t>(
                         std::get<std::string>((*row)[1]).size())};
}

sim::Task<OpResult> AzureDriver::sql_write(netsim::Nic& nic,
                                           std::uint64_t key,
                                           std::int64_t bytes) {
  azure::sql::Row row;
  row.emplace_back(static_cast<std::int64_t>(key));
  row.emplace_back(std::string(static_cast<std::size_t>(bytes), 'v'));
  azure::sql::Value k{static_cast<std::int64_t>(key)};
  const bool matched = co_await env_.sql_service().update_by_key(
      nic, "db", "t", std::move(k), row);
  if (!matched) {
    co_await env_.sql_service().insert(nic, "db", "t", std::move(row));
  }
  co_return OpResult{.bytes = bytes};
}

}  // namespace storage
