// Quickstart: spin up a simulated Azure cloud, connect a client, and use
// all three storage services through the SDK facade.
//
//   $ ./quickstart
//
// Everything runs in virtual time inside a deterministic discrete-event
// simulation — the printed latencies come from the cluster model, not from
// your machine.
#include <cstdio>

#include "azure/cloud_storage_account.hpp"
#include "azure/environment.hpp"
#include "fabric/vm_size.hpp"
#include "netsim/nic.hpp"
#include "simcore/simulation.hpp"

using azure::Payload;
using sim::Task;

namespace {

sim::Task<void> tour(sim::Simulation& sim,
                     azure::CloudStorageAccount account) {
  // ---------------------------------------------------------------- blobs --
  auto blobs = account.create_cloud_blob_client();
  auto container = blobs.get_container_reference("quickstart");
  co_await container.create_if_not_exists();

  auto blob = container.get_block_blob_reference("hello");
  sim::TimePoint t0 = sim.now();
  co_await blob.upload_text(Payload::bytes("Hello, simulated Azure!"));
  std::printf("[blob ] uploaded 'hello' in %s\n",
              sim::format_duration(sim.now() - t0).c_str());

  t0 = sim.now();
  const auto text = co_await blob.download_text();
  std::printf("[blob ] downloaded %lld bytes in %s: \"%s\"\n",
              static_cast<long long>(text.size()),
              sim::format_duration(sim.now() - t0).c_str(),
              text.data().c_str());

  // A page blob with random access.
  auto pages = container.get_page_blob_reference("random-access");
  co_await pages.create(1 << 20);
  co_await pages.put_page(512, Payload::bytes(std::string(512, 'z')));
  const auto page = co_await pages.get_page(512, 512);
  std::printf("[blob ] page blob roundtrip ok (%lld bytes at offset 512)\n",
              static_cast<long long>(page.size()));

  // --------------------------------------------------------------- queues --
  auto queues = account.create_cloud_queue_client();
  auto queue = queues.get_queue_reference("tasks");
  co_await queue.create_if_not_exists();

  t0 = sim.now();
  co_await queue.add_message(Payload::bytes("task #1"));
  std::printf("[queue] put message in %s\n",
              sim::format_duration(sim.now() - t0).c_str());

  t0 = sim.now();
  auto msg = co_await queue.get_message(sim::seconds(30));
  std::printf("[queue] got \"%s\" in %s (dequeue count %d)\n",
              msg->body.data().c_str(),
              sim::format_duration(sim.now() - t0).c_str(),
              msg->dequeue_count);
  co_await queue.delete_message(*msg);

  // --------------------------------------------------------------- tables --
  auto tables = account.create_cloud_table_client();
  auto table = tables.get_table_reference("inventory");
  co_await table.create_if_not_exists();

  azure::TableEntity entity;
  entity.partition_key = "fruit";
  entity.row_key = "apples";
  entity.properties["count"] = std::int64_t{12};
  entity.properties["organic"] = true;
  t0 = sim.now();
  co_await table.insert(entity);
  std::printf("[table] inserted fruit/apples in %s\n",
              sim::format_duration(sim.now() - t0).c_str());

  const auto row = co_await table.query("fruit", "apples");
  std::printf("[table] queried: count=%lld organic=%s etag=%s\n",
              static_cast<long long>(
                  std::get<std::int64_t>(row.properties.at("count"))),
              std::get<bool>(row.properties.at("organic")) ? "yes" : "no",
              row.etag.c_str());

  std::printf("\nTotal virtual time elapsed: %s\n",
              sim::format_duration(sim.now()).c_str());
}

}  // namespace

int main() {
  sim::Simulation sim;
  azure::CloudEnvironment cloud(sim);
  netsim::Nic nic(sim, fabric::nic_config_of(fabric::VmSize::kSmall));
  azure::CloudStorageAccount account(cloud, nic);

  std::printf("AzureBench quickstart — one client VM against a simulated\n"
              "Azure storage stamp (16 partition servers, 3 replicas)\n\n");
  sim.spawn(tour(sim, account));
  sim.run();
  return 0;
}
