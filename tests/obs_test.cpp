// Tests for the observability layer (src/obs): histogram bucket edges,
// counter saturation, span parent/child nesting through a real simulated
// request, the deterministic JSON rendering (golden), ring eviction, and
// the headline contract — a 96-worker chaos run replayed with the same
// seed exports a byte-identical observer state.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "azure_test_util.hpp"
#include "azure/common/retry.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "simcore/sync.hpp"

namespace {

using azb_test::TestWorld;
using sim::Task;

// ------------------------------------------------------------ histogram ----

TEST(LatencyHistogramTest, BucketEdges) {
  // Zeros and clamped negatives land in bucket 0.
  EXPECT_EQ(obs::LatencyHistogram::bucket_of(0), 0);
  EXPECT_EQ(obs::LatencyHistogram::bucket_of(-1), 0);
  // Bucket b >= 1 holds values of bit width b: [2^(b-1), 2^b).
  EXPECT_EQ(obs::LatencyHistogram::bucket_of(1), 1);
  EXPECT_EQ(obs::LatencyHistogram::bucket_of(2), 2);
  EXPECT_EQ(obs::LatencyHistogram::bucket_of(3), 2);
  EXPECT_EQ(obs::LatencyHistogram::bucket_of(4), 3);
  // Upper-edge boundaries: 2^b - 1 stays in bucket b, 2^b moves up.
  for (int b = 1; b < 62; ++b) {
    const std::int64_t edge = obs::LatencyHistogram::bucket_upper_edge(b);
    EXPECT_EQ(obs::LatencyHistogram::bucket_of(edge), b) << "bucket " << b;
    EXPECT_EQ(obs::LatencyHistogram::bucket_of(edge + 1), b + 1)
        << "bucket " << b;
  }
  // The full int64 domain fits: INT64_MAX has bit width 63.
  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(obs::LatencyHistogram::bucket_of(kMax), 63);
  EXPECT_EQ(obs::LatencyHistogram::bucket_upper_edge(63), kMax);
  EXPECT_EQ(obs::LatencyHistogram::bucket_upper_edge(0), 0);

  obs::LatencyHistogram h;
  h.record(0);
  h.record(kMax);
  EXPECT_EQ(h.bucket(0), 1);
  EXPECT_EQ(h.bucket(63), 1);
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.max(), kMax);
}

TEST(LatencyHistogramTest, QuantilesClampToObservedMax) {
  obs::LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0);  // empty histogram
  h.record(5);  // bucket 3, upper edge 7 — must clamp to the observed 5
  EXPECT_EQ(h.quantile(0.0), 5);
  EXPECT_EQ(h.quantile(0.5), 5);
  EXPECT_EQ(h.quantile(1.0), 5);
  // A spread: 99 values in bucket 1 (value 1), one in bucket 10 (value 600).
  obs::LatencyHistogram s;
  for (int i = 0; i < 99; ++i) s.record(1);
  s.record(600);
  EXPECT_EQ(s.quantile(0.50), 1);
  EXPECT_EQ(s.quantile(0.99), 1);    // rank 99 still inside bucket 1
  EXPECT_EQ(s.quantile(1.0), 600);   // the tail value, clamped to max
}

TEST(CounterTest, SaturatesAtInt64MaxInsteadOfWrapping) {
  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  obs::Counter c;
  c.add(kMax - 1);
  EXPECT_EQ(c.value(), kMax - 1);
  c.add(1);
  EXPECT_EQ(c.value(), kMax);
  c.add(1);  // would wrap; must pin
  EXPECT_EQ(c.value(), kMax);
  c.add(kMax);
  EXPECT_EQ(c.value(), kMax);
}

// --------------------------------------------------------- span nesting ----

Task<> traced_put_get(TestWorld& t, bool& done) {
  auto q = t.account.create_cloud_queue_client().get_queue_reference("obs-q");
  co_await q.create();
  co_await azure::with_retry(t.sim,
                             [&] { return q.add_message(azure::Payload::bytes("x")); });
  auto msg = co_await azure::with_retry(t.sim, [&] { return q.get_message(); });
  CO_ASSERT_TRUE(msg.has_value());
  co_await q.delete_message(*msg);
  done = true;
}

TEST(ObserverTest, SpansNestClientRequestOverServiceOpOverCluster) {
  obs::Observer o;
  TestWorld w;
  w.sim.set_observer(&o);
  bool done = false;
  azb_test::run(w, [&](TestWorld& t) { return traced_put_get(t, done); });
  ASSERT_TRUE(done);

  const std::vector<obs::Span> spans = o.spans();
  ASSERT_FALSE(spans.empty());
  std::map<std::uint32_t, obs::Span> by_id;
  for (const obs::Span& s : spans) by_id[s.span_id] = s;

  // Find the queue.put service op and walk its ancestry: it must sit under
  // a kClientRequest root of the same trace, and a kServerProcess span must
  // sit under it.
  std::optional<obs::Span> put;
  for (const obs::Span& s : spans) {
    if (s.kind == obs::SpanKind::kServiceOp &&
        o.label_name(s.label) == "queue.put") {
      put = s;
    }
  }
  ASSERT_TRUE(put.has_value());
  ASSERT_TRUE(by_id.count(put->parent_id));
  const obs::Span root = by_id[put->parent_id];
  EXPECT_EQ(root.kind, obs::SpanKind::kClientRequest);
  EXPECT_EQ(root.parent_id, 0u);
  EXPECT_EQ(root.trace_id, put->trace_id);
  // The root covers the whole attempt.
  EXPECT_LE(root.start, put->start);
  EXPECT_GE(root.end, put->end);

  bool server_process_under_put = false;
  for (const obs::Span& s : spans) {
    if (s.kind == obs::SpanKind::kServerProcess &&
        s.parent_id == put->span_id) {
      EXPECT_EQ(s.trace_id, put->trace_id);
      EXPECT_GE(s.server, 0);
      server_process_under_put = true;
    }
  }
  EXPECT_TRUE(server_process_under_put);

  // Every span in the put's trace agrees on the trace id, and non-roots
  // have a live parent in the same trace.
  for (const obs::Span& s : spans) {
    if (s.trace_id != put->trace_id) continue;
    if (s.parent_id == 0) continue;
    ASSERT_TRUE(by_id.count(s.parent_id)) << "dangling parent";
    EXPECT_EQ(by_id[s.parent_id].trace_id, s.trace_id);
  }

  // The ambient slot never leaks past the end of the run.
  EXPECT_FALSE(o.take_ambient().active());
}

// ----------------------------------------------------------------- ring ----

TEST(ObserverTest, RingEvictsOldestAndCountsDrops) {
  obs::Observer o;
  constexpr auto kCapacity =
      static_cast<sim::TimePoint>(obs::Observer::kRingCapacity);
  for (sim::TimePoint i = 0; i < kCapacity + 2; ++i) {
    o.emit(obs::SpanKind::kServiceOp, obs::TraceContext{}, i, i + 1);
  }
  EXPECT_EQ(o.emitted_spans(), kCapacity + 2);
  EXPECT_EQ(o.dropped_spans(), 2);
  const std::vector<obs::Span> spans = o.spans();
  ASSERT_EQ(spans.size(), obs::Observer::kRingCapacity);
  // Oldest two evicted; survivors in oldest-first order.
  EXPECT_EQ(spans.front().start, 2);
  EXPECT_EQ(spans.back().start, kCapacity + 1);
  // Histograms are unaffected by eviction.
  EXPECT_EQ(o.layer(obs::SpanKind::kServiceOp).count(), kCapacity + 2);
}

// ----------------------------------------------------------- JSON golden ----

TEST(ObserverTest, JsonRenderingIsGolden) {
  obs::Observer o;
  o.metrics().counter("a.count").add(3);
  o.metrics().gauge("g").set(-2);
  o.metrics().histogram("h").record(5);
  const std::uint16_t put = o.label("op.put");
  o.emit(obs::SpanKind::kServiceOp, obs::TraceContext{}, 100, 350, put, 2, 64,
         false);
  o.emit(obs::SpanKind::kNetTransfer, obs::TraceContext{1, 1}, 120, 200, 0,
         -1, 0, true);

  const std::string expected =
      "{\"counters\":{\"a.count\":3},"
      "\"gauges\":{\"g\":-2},"
      "\"histograms\":{\"h\":{\"count\":1,\"sum_ns\":5,\"max_ns\":5,"
      "\"p50_ns\":5,\"p95_ns\":5,\"p99_ns\":5}},"
      "\"layers\":{"
      "\"service.op\":{\"count\":1,\"sum_ns\":250,\"max_ns\":250,"
      "\"p50_ns\":250,\"p95_ns\":250,\"p99_ns\":250},"
      "\"net.transfer\":{\"count\":1,\"sum_ns\":80,\"max_ns\":80,"
      "\"p50_ns\":80,\"p95_ns\":80,\"p99_ns\":80}},"
      "\"ops\":{\"op.put\":{\"count\":1,\"sum_ns\":250,\"max_ns\":250,"
      "\"p50_ns\":250,\"p95_ns\":250,\"p99_ns\":250}},"
      "\"spans\":{\"emitted\":2,\"dropped\":0,\"ring\":["
      "{\"trace\":1,\"span\":1,\"parent\":0,\"kind\":\"service.op\","
      "\"label\":\"op.put\",\"server\":2,\"bytes\":64,\"start_ns\":100,"
      "\"end_ns\":350,\"error\":false},"
      "{\"trace\":1,\"span\":2,\"parent\":1,\"kind\":\"net.transfer\","
      "\"label\":\"\",\"server\":-1,\"bytes\":0,\"start_ns\":120,"
      "\"end_ns\":200,\"error\":true}]}}";
  EXPECT_EQ(o.to_json(), expected);
}

// --------------------------------------------- chaos replay determinism ----

// The acceptance bar for the whole layer: with drops, duplicates, latency
// spikes and server crashes armed, two same-seed 96-worker runs must export
// byte-identical observer state — every counter, histogram bucket, span id
// and span timestamp.

constexpr int kWorkers = 96;
constexpr int kOps = 6;

Task<> chaos_worker(TestWorld& t, int id, sim::WaitGroup& wg) {
  azure::RetryPolicy retry;
  retry.backoff = sim::millis(250);
  retry.max_backoff = sim::seconds(2);
  retry.jitter_seed = static_cast<std::uint64_t>(id);
  std::int64_t retries = 0;
  auto q = t.account.create_cloud_queue_client().get_queue_reference(
      "obs-chaos-q-" + std::to_string(id));
  co_await azure::with_retry(
      t.sim, [&] { return q.create_if_not_exists(); }, retry, &retries);
  for (int k = 0; k < kOps; ++k) {
    co_await azure::with_retry(t.sim, [&] {
      return q.add_message(azure::Payload::bytes("c-" + std::to_string(k)));
    }, retry, &retries);
  }
  int deletes = 0;
  while (deletes < kOps) {
    std::optional<azure::QueueMessage> msg =
        co_await azure::with_retry(
            t.sim, [&] { return q.get_message(); }, retry, &retries);
    if (msg) {
      co_await azure::with_retry(
          t.sim, [&] { return q.delete_message(*msg); }, retry, &retries);
      ++deletes;
    } else {
      co_await t.sim.delay(sim::millis(100));
    }
  }
  wg.done();
}

std::string run_observed_chaos(std::uint64_t fault_seed) {
  azure::CloudConfig cfg;
  cfg.faults.seed = fault_seed;
  cfg.faults.drop_probability = 0.01;
  cfg.faults.duplicate_probability = 0.01;
  cfg.faults.latency_spike_probability = 0.02;
  cfg.faults.drop_timeout = sim::millis(300);
  cfg.faults.server_crashes = 4;
  cfg.faults.crash_mean_interval = sim::seconds(5);
  cfg.faults.server_downtime = sim::seconds(1);
  obs::Observer observer;
  TestWorld w(cfg);
  w.sim.set_observer(&observer);
  sim::WaitGroup wg(w.sim);
  for (int i = 0; i < kWorkers; ++i) {
    wg.add();
    w.sim.spawn(chaos_worker(w, i, wg));
  }
  w.sim.run();
  return observer.to_json();
}

TEST(ObserverTest, Chaos96WorkerReplayExportsByteIdenticalJson) {
  const std::string first = run_observed_chaos(7);
  const std::string second = run_observed_chaos(7);
  EXPECT_EQ(first, second);
  // Sanity: the export actually carries data — spans, retries, faults.
  EXPECT_NE(first.find("\"client.request\""), std::string::npos);
  EXPECT_NE(first.find("\"queue.put\""), std::string::npos);
  EXPECT_NE(first.find("\"retry.attempts\""), std::string::npos);
}

TEST(ObserverTest, DifferentFaultSeedsExportDifferentJson) {
  EXPECT_NE(run_observed_chaos(7), run_observed_chaos(8));
}

}  // namespace
