// Shared helpers for the benchmark binaries: a tiny flag parser,
// fixed-width table / CSV emitters, and the observability exporters
// (`--obs` / `--obs-json=` / `--trace`) of the scenario driver.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/observer.hpp"
#include "simcore/time.hpp"
#include "strict_parse.hpp"

namespace benchutil {

// Flag conventions, shared by every bench binary:
//  * value flags are `--name=value` (flag_value also reads `--name value`);
//    boolean flags are bare `--name`;
//  * when a flag is passed more than once, the FIRST occurrence wins (a
//    scripted baseline prepended to a saved command line overrides it);
//  * numeric values are parsed strictly — empty values, trailing junk, and
//    overflow are typed usage errors (exit code 2), never silent zeros. An
//    earlier version used std::atoll, which turned `--workers=abc` into 0
//    and `--workers=9999999999999999999999` into undefined behaviour.
//
// The parsers themselves (UsageError, parse_int, parse_double, ...) live in
// strict_parse.hpp so tests and examples can reuse them without pulling in
// the simulator headers this file needs for the observability exporters.

/// Returns the value of `--name=value` (first occurrence wins), or
/// `fallback` when the flag is absent. Explicitly-passed values must parse
/// strictly and lie in [min, max]; violations throw UsageError. The
/// fallback is returned as-is — bounds constrain the command line, not the
/// binary's defaults.
inline std::int64_t flag_int_checked(
    int argc, char** argv, const char* name, std::int64_t fallback,
    std::int64_t min = std::numeric_limits<std::int64_t>::min(),
    std::int64_t max = std::numeric_limits<std::int64_t>::max()) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) != 0) continue;
    const std::string_view text(argv[i] + prefix.size());
    const std::int64_t value = require_int(name, text);
    if (value < min || value > max) {
      throw UsageError(name, std::string(text),
                       "value out of range [" + std::to_string(min) + ", " +
                           std::to_string(max) + "]");
    }
    return value;
  }
  return fallback;
}

/// flag_int_checked with the UsageError rendered to stderr + exit(2) — the
/// form the bench mains call so a bad flag fails loudly instead of running
/// a garbage configuration.
inline std::int64_t flag_int(
    int argc, char** argv, const char* name, std::int64_t fallback,
    std::int64_t min = std::numeric_limits<std::int64_t>::min(),
    std::int64_t max = std::numeric_limits<std::int64_t>::max()) {
  try {
    return flag_int_checked(argc, argv, name, fallback, min, max);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "usage error: %s\n", e.what());
    std::exit(2);
  }
}

/// Renders a double bound compactly for range-error messages ("0.25", not
/// "0.250000"); std::to_string's fixed six decimals would garble 1e18.
inline std::string fmt_bound(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// Double-valued counterpart of flag_int_checked: strict full-token parse
/// (from_chars — no locale, no partial consumption), finite-only, bounds
/// checked, first occurrence wins, fallback returned as-is.
inline double flag_double_checked(
    int argc, char** argv, const char* name, double fallback,
    double min = std::numeric_limits<double>::lowest(),
    double max = std::numeric_limits<double>::max()) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) != 0) continue;
    const std::string_view text(argv[i] + prefix.size());
    const double value = require_double(name, text);
    if (value < min || value > max) {
      throw UsageError(name, std::string(text),
                       "value out of range [" + fmt_bound(min) + ", " +
                           fmt_bound(max) + "]");
    }
    return value;
  }
  return fallback;
}

/// flag_double_checked with the UsageError rendered to stderr + exit(2).
inline double flag_double(
    int argc, char** argv, const char* name, double fallback,
    double min = std::numeric_limits<double>::lowest(),
    double max = std::numeric_limits<double>::max()) {
  try {
    return flag_double_checked(argc, argv, name, fallback, min, max);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "usage error: %s\n", e.what());
    std::exit(2);
  }
}

/// Returns the string value of `--name=value` or `--name value` (first
/// occurrence wins), or `fallback`.
inline std::string flag_value(int argc, char** argv, const char* name,
                              const char* fallback = "") {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
    if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) return argv[i + 1];
  }
  return fallback;
}

/// Returns true when `--name` is present.
inline bool flag_set(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

/// Exits with a usage error (code 2) on the first argument that is not a
/// known flag, so a misspelled or foreign flag (`--quick`, `--workers=1`)
/// fails instead of being ignored. `switches` are bare `--name` flags;
/// `values` are read with flag_value, as `--name=VALUE` or as the two
/// arguments `--name VALUE`.
inline void require_known_flags(
    int argc, char** argv, std::initializer_list<std::string_view> switches,
    std::initializer_list<std::string_view> values) {
  const auto known = [](std::initializer_list<std::string_view> names,
                        std::string_view name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  const auto fail = [](const UsageError& e) {
    std::fprintf(stderr, "usage error: %s\n", e.what());
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    const std::size_t eq = arg.find('=');
    const std::string name(arg.substr(0, eq));
    if (known(values, name)) {
      if (eq != std::string_view::npos) continue;
      if (i + 1 == argc || std::string_view(argv[i + 1]).starts_with("--")) {
        fail(UsageError(name, "", "missing value"));
      }
      ++i;  // the value
    } else if (eq != std::string_view::npos || !known(switches, name)) {
      fail(UsageError(name,
                      eq == std::string_view::npos
                          ? ""
                          : std::string(arg.substr(eq + 1)),
                      "unknown flag"));
    }
  }
}

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
  static void append_csv_row(std::string& out,
                             const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += row[c];
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

/// Observability flags:
///   --obs              print per-layer / per-operation latency breakdowns
///   --obs-json=FILE    dump the full Observer JSON (metrics + histograms +
///                      span ring) to FILE ("-" = stdout)
///   --trace            also print the newest request's span tree — implies
///                      --obs
struct ObsFlags {
  bool enabled = false;
  bool trace = false;
  std::string json_path;
};

inline ObsFlags obs_flags(int argc, char** argv) {
  ObsFlags f;
  f.trace = flag_set(argc, argv, "--trace");
  f.json_path = flag_value(argc, argv, "--obs-json");
  f.enabled = f.trace || !f.json_path.empty() || flag_set(argc, argv, "--obs");
  return f;
}

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
