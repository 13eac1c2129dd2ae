// The observability hub: one Observer owns the metrics registry, the span
// ring, the label intern table, and the per-layer latency histograms.
//
// Design constraints (the determinism contract, see DESIGN.md §10):
//  * sim-time only — every begin/end/emit takes or derives from an explicit
//    sim::TimePoint; no wall clock anywhere;
//  * no allocation on the hot record path — spans are fixed-size PODs in a
//    preallocated ring, metric lookups take string_view, labels are interned
//    once per distinct string;
//  * byte-identical across replays — ids are sequential, export order is
//    registration order, and JSON rendering is integer-only;
//  * off by default — layers observe `Simulation::observer()` and skip all
//    instrumentation when it is null, leaving paper-mode event sequences
//    untouched.
//
// Context propagation: coroutine stacks have no thread-locals to hide a
// context in, so the Observer keeps a single *ambient* TraceContext slot
// with take-and-clear semantics. A caller stores its context immediately
// before synchronously entering the callee (`co_await make_op()` — lazy
// Tasks resume synchronously until their first suspension), and the callee
// claims it with take_ambient() as its first statement. The slot is empty
// again before any other process can run, so contexts never leak across
// coroutine interleavings. Below the service layer, contexts pass as
// explicit defaulted parameters instead.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simcore/simulation.hpp"
#include "simcore/time.hpp"

namespace obs {

class Observer {
 public:
  /// Capacity of the span ring. When full, the oldest span is evicted
  /// (dropped_spans() counts them); per-layer histograms are unaffected.
  static constexpr std::size_t kRingCapacity = 1 << 16;

  Observer() {
    ring_.reserve(kRingCapacity);
    labels_.emplace_back();  // label 0 = "none"
    label_hist_.emplace_back();
  }
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  MetricsRegistry& metrics() noexcept { return metrics_; }
  const MetricsRegistry& metrics() const noexcept { return metrics_; }

  // ------------------------------------------------------------- labels ----
  /// Interns a detail label (operation name, throttle gate, error class).
  /// Idempotent; the id is stable for the Observer's lifetime.
  std::uint16_t label(std::string_view name);
  const std::string& label_name(std::uint16_t id) const noexcept {
    return labels_[id < labels_.size() ? id : 0];
  }
  std::size_t label_count() const noexcept { return labels_.size(); }

  // -------------------------------------------------------------- spans ----
  /// Starts a span under `parent` (a root when parent is inactive). Only
  /// allocates ids and stamps the start time; nothing is recorded until
  /// end(). The returned handle's ctx is the parent for child spans.
  SpanHandle begin(TraceContext parent, sim::TimePoint now) {
    SpanHandle h;
    h.ctx.trace_id = parent.active() ? parent.trace_id : next_trace_id_++;
    h.ctx.span_id = next_span_id_++;
    h.parent_id = parent.span_id;
    h.start = now;
    return h;
  }

  /// Completes a span: updates the per-kind (and per-label) latency
  /// histograms and pushes the record into the ring.
  void end(const SpanHandle& h, SpanKind kind, std::uint16_t label,
           std::int32_t server, std::int64_t bytes, bool error,
           sim::TimePoint now) {
    kind_hist_[static_cast<std::size_t>(kind)].record(now - h.start);
    if (label != 0 && label < label_hist_.size()) {
      label_hist_[label].record(now - h.start);
    }
    ++emitted_spans_;
    Span s;
    s.trace_id = h.ctx.trace_id;
    s.span_id = h.ctx.span_id;
    s.parent_id = h.parent_id;
    s.start = h.start;
    s.end = now;
    s.bytes = bytes;
    s.server = server;
    s.label = label;
    s.kind = kind;
    s.error = error;
    push(s);
  }

  /// begin() + end() in one call, for spans whose extent is already known
  /// when the instrumentation point runs (throttle waits, failover hops).
  void emit(SpanKind kind, TraceContext parent, sim::TimePoint start,
            sim::TimePoint end_time, std::uint16_t label = 0,
            std::int32_t server = -1, std::int64_t bytes = 0,
            bool error = false) {
    SpanHandle h = begin(parent, start);
    end(h, kind, label, server, bytes, error, end_time);
  }

  // ------------------------------------------------ ambient propagation ----
  void set_ambient(TraceContext ctx) noexcept { ambient_ = ctx; }
  /// Claims and clears the ambient context (empty if none was staged).
  TraceContext take_ambient() noexcept {
    const TraceContext ctx = ambient_;
    ambient_ = TraceContext{};
    return ctx;
  }
  /// Clears the ambient slot only if it still holds `ctx` — used by scopes
  /// unwinding after an exception, so a context staged for a callee that
  /// never consumed it cannot leak into an unrelated request.
  void clear_ambient_if(TraceContext ctx) noexcept {
    if (ambient_ == ctx) ambient_ = TraceContext{};
  }

  // ------------------------------------------------------------ readout ----
  const LatencyHistogram& layer(SpanKind kind) const noexcept {
    return kind_hist_[static_cast<std::size_t>(kind)];
  }
  const LatencyHistogram& op(std::uint16_t label) const noexcept {
    return label_hist_[label < label_hist_.size() ? label : 0];
  }
  std::int64_t emitted_spans() const noexcept { return emitted_spans_; }
  std::int64_t dropped_spans() const noexcept { return dropped_spans_; }

  /// Ring contents, oldest first.
  std::vector<Span> spans() const {
    std::vector<Span> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(ring_head_ + i) % ring_.size()]);
    }
    return out;
  }

  /// Deterministic JSON rendering of the whole observer: metrics (in
  /// registration order), per-layer and per-operation latency summaries,
  /// and the span ring. Byte-identical across replays of the same scenario.
  std::string to_json() const;

 private:
  void push(const Span& s) {
    if (ring_.size() < kRingCapacity) {
      ring_.push_back(s);
      return;
    }
    ring_[ring_head_] = s;  // evict the oldest
    ring_head_ = (ring_head_ + 1) % ring_.size();
    ++dropped_spans_;
  }

  MetricsRegistry metrics_;
  std::vector<std::string> labels_;
  std::map<std::string, std::uint16_t, std::less<>> label_index_;
  std::array<LatencyHistogram, kSpanKindCount> kind_hist_{};
  std::vector<LatencyHistogram> label_hist_;
  std::vector<Span> ring_;
  std::size_t ring_head_ = 0;
  std::int64_t emitted_spans_ = 0;
  std::int64_t dropped_spans_ = 0;
  std::uint64_t next_trace_id_ = 1;
  std::uint32_t next_span_id_ = 1;
  TraceContext ambient_{};
};

/// Deterministic export of a sharded run: one Observer per domain, merged
/// at export time. Counters and gauges are summed by name in
/// first-appearance order (domain order, then registration order within a
/// domain — both replay-deterministic); per-domain detail follows as an
/// array of full to_json() documents in domain-id order. The merge is a
/// pure function of the per-domain observers, so parallel and sequential
/// executions of the same decomposition render byte-identical JSON.
std::string merged_to_json(const std::vector<const Observer*>& domains);

/// RAII scope for one service-layer operation (one attempt): begins a
/// kServiceOp span under the ambient context (claimed synchronously on
/// operation entry) and emits on scope exit — including exceptional
/// unwinds, which happen synchronously at the failure's sim-time. Inert
/// when no observer is attached.
///
/// Call stage() immediately before each cluster execute() the operation
/// makes, so the cluster's spans nest beneath this one. Staging happens per
/// call, not at construction: between construction and a later execute the
/// operation may suspend, and the ambient slot must never be owned across
/// a suspension point.
class OpScope {
 public:
  OpScope(sim::Simulation& sim, std::string_view name,
          std::int64_t bytes = 0)
      : sim_(sim), obs_(sim.observer()), bytes_(bytes) {
    if (obs_ == nullptr) return;
    label_ = obs_->label(name);
    handle_ = obs_->begin(obs_->take_ambient(), sim.now());
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;
  ~OpScope() {
    if (obs_ == nullptr) return;
    obs_->clear_ambient_if(handle_.ctx);
    obs_->end(handle_, SpanKind::kServiceOp, label_, server_, bytes_, error_,
              sim_.now());
  }

  /// Publishes this operation as the ambient parent for the cluster call
  /// made in the immediately following co_await.
  void stage() noexcept {
    if (obs_ != nullptr) obs_->set_ambient(handle_.ctx);
  }

  /// The operation span's context (parent for explicit child spans).
  TraceContext ctx() const noexcept { return handle_.ctx; }
  void set_bytes(std::int64_t bytes) noexcept { bytes_ = bytes; }
  void set_server(std::int32_t server) noexcept { server_ = server; }
  void set_error() noexcept { error_ = true; }
  Observer* observer() const noexcept { return obs_; }

 private:
  sim::Simulation& sim_;
  Observer* obs_;
  SpanHandle handle_{};
  std::uint16_t label_ = 0;
  std::int64_t bytes_ = 0;
  std::int32_t server_ = -1;
  bool error_ = false;
};

/// RAII scope for one logical client request: the root kClientRequest span
/// covering every retry attempt and backoff of a with_retry call. Unlike
/// OpScope it does not publish itself as ambient — the retry loop re-stages
/// the context before each attempt. fail() marks the span failed and tags
/// it with the terminal error class.
class RequestScope {
 public:
  explicit RequestScope(sim::Simulation& sim)
      : sim_(sim), obs_(sim.observer()) {
    if (obs_ == nullptr) return;
    handle_ = obs_->begin(obs_->take_ambient(), sim.now());
  }
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;
  ~RequestScope() {
    if (obs_ == nullptr) return;
    obs_->clear_ambient_if(handle_.ctx);
    obs_->end(handle_, SpanKind::kClientRequest, label_, -1, attempts_,
              error_, sim_.now());
  }

  TraceContext ctx() const noexcept { return handle_.ctx; }
  Observer* observer() const noexcept { return obs_; }
  void count_attempt() noexcept { ++attempts_; }
  void fail(std::uint16_t error_label) noexcept {
    error_ = true;
    label_ = error_label;
  }

 private:
  sim::Simulation& sim_;
  Observer* obs_;
  SpanHandle handle_{};
  std::uint16_t label_ = 0;
  std::int64_t attempts_ = 0;  // exported in the span's bytes field
  bool error_ = false;
};

}  // namespace obs
