// Shared helpers for the benchmark binaries: fixed-width table / CSV
// emitters and the observability exporters (`--obs` / `--obs-json=` /
// `--trace`) of the scenario driver. The flag parser every binary uses,
// parse_flags, lives in strict_parse.hpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/observer.hpp"
#include "simcore/time.hpp"
#include "strict_parse.hpp"

namespace benchutil {

/// Fixed-width table row printing.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(const std::vector<std::string>& cells) { rows_.push_back(cells); }

  void print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      width[c] = headers_[c].size();
      for (const auto& row : rows_) {
        if (c < row.size()) width[c] = std::max(width[c], row[c].size());
      }
    }
    print_row(headers_, width);
    std::string rule;
    for (std::size_t c = 0; c < width.size(); ++c) {
      rule += std::string(width[c], '-');
      rule += (c + 1 < width.size()) ? "-+-" : "";
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) print_row(row, width);
  }

  void print_csv() const { std::fputs(csv_string().c_str(), stdout); }

  /// The CSV rendering as a string — the canonical byte-comparable form the
  /// scenario driver's --selfcheck and the replay tests diff.
  std::string csv_string() const {
    std::string out;
    append_csv_row(out, headers_);
    for (const auto& row : rows_) append_csv_row(out, row);
    return out;
  }

 private:
  static void print_row(const std::vector<std::string>& row,
                        const std::vector<std::size_t>& width) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s%s", static_cast<int>(width[c]), row[c].c_str(),
                  (c + 1 < row.size()) ? " | " : "\n");
    }
  }
  /// One RFC 4180 record: a cell holding a comma, a double quote or a line
  /// break is quoted, with its quotes doubled.
  static void append_csv_row(std::string& out,
                             const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      const std::string& cell = row[c];
      if (cell.find_first_of(",\"\r\n") == std::string::npos) {
        out += cell;
      } else {
        out += '"';
        for (const char ch : cell) {
          if (ch == '"') out += '"';
          out += ch;
        }
        out += '"';
      }
      out += (c + 1 < row.size()) ? "," : "\n";
    }
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int decimals = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

// ---------------------------------------------------------------------------
// Observability wiring of the scenario driver. All of it is opt-in: with
// none of the flags below, no Observer is attached and every
// instrumentation point in the simulator stays inert, so paper-mode outputs
// are byte-identical to an unobserved build.
// ---------------------------------------------------------------------------

/// What the observability flags asked for: `--obs` prints per-layer /
/// per-operation latency breakdowns, `--obs-json=FILE` dumps the full
/// Observer JSON (metrics + histograms + span ring) to FILE ("-" = stdout),
/// and `--trace` also prints the newest request's span tree. Any of them
/// sets `enabled`.
struct ObsFlags {
  bool enabled = false;
  bool trace = false;
  std::string json_path;
};

/// Per-layer latency summary: one row per span kind that recorded anything.
inline void print_obs_layers(const obs::Observer& o) {
  Table table({"layer", "count", "p50_ms", "p95_ms", "p99_ms", "max_ms"});
  for (int k = 0; k < obs::kSpanKindCount; ++k) {
    const auto kind = static_cast<obs::SpanKind>(k);
    const obs::LatencyHistogram& h = o.layer(kind);
    if (h.count() == 0) continue;
    table.add_row({obs::span_kind_name(kind), std::to_string(h.count()),
                   fmt(sim::to_seconds(h.quantile(0.50)) * 1e3, 3),
                   fmt(sim::to_seconds(h.quantile(0.95)) * 1e3, 3),
                   fmt(sim::to_seconds(h.quantile(0.99)) * 1e3, 3),
                   fmt(sim::to_seconds(h.max()) * 1e3, 3)});
  }
  std::printf("\nPer-layer latency breakdown:\n");
  table.print();
}

/// Per-operation latency summary keyed by interned label (blob.upload,
/// queue.get, throttle gates, error classes, ...), in intern order — which
/// is deterministic because label interning is deterministic.
inline void print_obs_ops(const obs::Observer& o) {
  Table table({"operation", "count", "p50_ms", "p95_ms", "p99_ms", "max_ms"});
  for (std::size_t id = 1; id < o.label_count(); ++id) {
    const obs::LatencyHistogram& h = o.op(static_cast<std::uint16_t>(id));
    if (h.count() == 0) continue;
    table.add_row({o.label_name(static_cast<std::uint16_t>(id)),
                   std::to_string(h.count()),
                   fmt(sim::to_seconds(h.quantile(0.50)) * 1e3, 3),
                   fmt(sim::to_seconds(h.quantile(0.95)) * 1e3, 3),
                   fmt(sim::to_seconds(h.quantile(0.99)) * 1e3, 3),
                   fmt(sim::to_seconds(h.max()) * 1e3, 3)});
  }
  std::printf("\nPer-operation latency breakdown:\n");
  table.print();
}

/// Prints the span tree of the newest captured trace. Children print
/// indented beneath their parent, in span-id (creation) order.
inline void print_obs_trace(const obs::Observer& o) {
  const std::vector<obs::Span> spans = o.spans();
  const std::uint64_t trace_id = spans.empty() ? 0 : spans.back().trace_id;
  if (trace_id == 0) {
    std::printf("\n(no complete trace captured)\n");
    return;
  }

  std::vector<obs::Span> trace;
  for (const obs::Span& s : spans) {
    if (s.trace_id == trace_id) trace.push_back(s);
  }
  std::sort(trace.begin(), trace.end(),
            [](const obs::Span& a, const obs::Span& b) {
              return a.span_id < b.span_id;
            });
  const sim::TimePoint t0 = [&] {
    sim::TimePoint first = trace.front().start;
    for (const obs::Span& s : trace) first = std::min(first, s.start);
    return first;
  }();

  std::printf("\nSample trace %llu (%zu spans, times relative to request "
              "start):\n",
              static_cast<unsigned long long>(trace_id), trace.size());
  // Recursive indent by parentage; depth-first so children follow parents.
  auto print_node = [&](auto&& self, std::uint32_t parent, int depth) -> void {
    for (const obs::Span& s : trace) {
      if (s.parent_id != parent) continue;
      const std::string& label = o.label_name(s.label);
      std::printf("%*s%s%s%s  [%.3f ms .. %.3f ms]  %.3f ms%s%s\n", depth * 2,
                  "", obs::span_kind_name(s.kind), label.empty() ? "" : ":",
                  label.c_str(), sim::to_seconds(s.start - t0) * 1e3,
                  sim::to_seconds(s.end - t0) * 1e3,
                  sim::to_seconds(s.duration()) * 1e3,
                  s.server >= 0 ? ("  server=" + std::to_string(s.server)).c_str()
                                : "",
                  s.error ? "  ERROR" : "");
      self(self, s.span_id, depth + 1);
    }
  };
  // Roots of the trace: spans whose parent is not in the captured set (the
  // ring may have evicted ancestors). Linear scans — traces are small.
  for (const obs::Span& s : trace) {
    bool has_parent = false;
    for (const obs::Span& p : trace) {
      if (p.span_id == s.parent_id) { has_parent = true; break; }
    }
    if (!has_parent) {
      const std::string& label = o.label_name(s.label);
      std::printf("%s%s%s  [%.3f ms .. %.3f ms]  %.3f ms%s\n",
                  obs::span_kind_name(s.kind), label.empty() ? "" : ":",
                  label.c_str(), sim::to_seconds(s.start - t0) * 1e3,
                  sim::to_seconds(s.end - t0) * 1e3,
                  sim::to_seconds(s.duration()) * 1e3,
                  s.error ? "  ERROR" : "");
      print_node(print_node, s.span_id, 1);
    }
  }
}

/// End-of-run export: breakdown tables (and the --trace span tree) on
/// stdout, plus the full JSON dump when `--obs-json=` was given. Call once,
/// after the run completes. Returns false when the JSON file cannot be
/// written.
inline bool finish_obs(const ObsFlags& flags, const obs::Observer& o) {
  if (!flags.enabled) return true;
  print_obs_layers(o);
  print_obs_ops(o);
  if (flags.trace) print_obs_trace(o);
  if (flags.json_path.empty()) return true;
  const std::string json = o.to_json();
  if (flags.json_path == "-") {
    std::printf("%s\n", json.c_str());
    return true;
  }
  std::FILE* f = std::fopen(flags.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n",
                 flags.json_path.c_str());
    return false;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("\nObserver JSON written to %s\n", flags.json_path.c_str());
  return true;
}

}  // namespace benchutil
