// hostbench: the host-side end-to-end benchmark of the simulator.
//
//   hostbench --workload table96 --seed 7 --seconds 10 --trace 0
//   hostbench --list
//
// One invocation measures one workload for --seconds. Every workload call
// runs in a fresh child process of this binary (so peak RSS is per call and
// no call inherits another's warm allocator), and the parent reports the
// median over calls. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Correctness: the call at the default seed must reproduce the
// committed golden digest (golden.txt), and every call at --seed must
// produce byte-identical simulated output.
//
// Exit codes: 0 ok, 1 a run failed its output check, 2 usage error.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "strict_parse.hpp"
#include "workloads.hpp"

extern char** environ;

namespace hostbench {
namespace {

// ---------------------------------------------------------------- metrics --

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  /// The end-to-end metric and workload this per-layer metric should move
  /// (empty for end-to-end metrics).
  const char* moves;
};

/// Must match BENCHMARK.json (checked by test_hostbench.py).
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s", "lower", ""},
    {"sim_ops_per_s", "1/s", "higher", ""},
    {"cpu_s", "s", "lower", ""},
    {"peak_rss_mib", "MiB", "lower", ""},
    {"setup_s", "s", "lower", ""},
};

constexpr MetricDef kPerLayer[] = {
    {"simcore.dispatch_ns", "ns", "lower", "sim_ops_per_s on table96"},
    {"simcore.resume_ns", "ns", "lower", "sim_ops_per_s on table96"},
    {"simcore.spawn_ns", "ns", "lower", "sim_ops_per_s on mixed_open"},
    {"simcore.limiter_ns", "ns", "lower", "wall_s on blob96"},
    {"netsim.transfer_small_ns", "ns", "lower", "sim_ops_per_s on table96"},
    {"netsim.transfer_bulk_ns", "ns", "lower", "wall_s on blob96"},
    {"cluster.execute_ns", "ns", "lower", "sim_ops_per_s on table96"},
    {"cluster.busy_reject_ns", "ns", "lower", "sim_ops_per_s on table96"},
    {"azure.table_op_ns", "ns", "lower", "sim_ops_per_s on table96"},
    {"azure.blob_page_op_ns", "ns", "lower", "wall_s on blob96"},
    {"azure.queue_op_ns", "ns", "lower", "sim_ops_per_s on mixed_open"},
    {"framework.keygen_zipf_ns", "ns", "lower", "sim_ops_per_s on mixed_open"},
    {"framework.arrival_ns", "ns", "lower", "sim_ops_per_s on mixed_open"},
    {"framework.session_ns", "ns", "lower",
     "sim_ops_per_s and peak_rss_mib on mixed_open"},
    {"framework.parse_us", "us", "lower", "setup_s on mixed_open"},
    {"faults.draw_ns", "ns", "lower", "sim_ops_per_s on mixed_open"},
    {"par.speedup", "x", "higher", "wall_s and cpu_s on sharded8"},
    {"netsim.transfers", "count", "lower", "work count of this workload"},
    {"netsim.bytes", "bytes", "lower", "work count of this workload"},
    {"cluster.requests", "count", "lower", "work count of this workload"},
    {"cluster.replica_commits", "count", "lower",
     "work count of this workload"},
    {"cluster.throttle_rejects", "count", "lower",
     "work count of this workload"},
    {"client.retry_attempts", "count", "lower",
     "work count of this workload"},
    {"framework.sessions", "count", "lower", "work count of this workload"},
    {"par.events", "count", "lower", "work count of this workload"},
    {"par.cross_events", "count", "lower", "work count of this workload"},
    {"obs.overhead_ratio", "ratio", "lower", "traced over untraced wall_s"},
    {"op_fail_ratio", "ratio", "lower", "failed over attempted sim ops"},
    {"attr.unattributed_share", "ratio", "lower",
     "wall_s share no unit cost explains"},
};

// -------------------------------------------------------------------- CLI --

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  std::int64_t seconds = 10;
  std::int64_t trace = 0;
  std::string golden = std::string(HOSTBENCH_DIR) + "/golden.txt";
  std::string child;  ///< internal: "run" | "traced"
  bool list = false;
  bool help = false;
};

constexpr const char* kUsage =
    "usage: hostbench --workload W [--seed N] [--seconds S] [--trace 0|1]\n"
    "                 [--golden FILE]\n"
    "       hostbench --list | --help\n"
    "  --workload W   table96 | blob96 | mixed_open | sharded8\n"
    "  --seed N       unsigned 64-bit workload seed (default 42, the seed\n"
    "                 of the committed golden digests)\n"
    "  --seconds S    measure for S seconds, 1..600 (default 10)\n"
    "  --trace 0|1    0: end-to-end metrics; 1: per-layer metrics\n"
    "  --golden FILE  golden digests (default: golden.txt beside the source)\n"
    "  --list         print every metric with its unit and exit\n"
    "  --child MODE   internal: one workload call in this process (run |\n"
    "                 traced), reported as a RESULT line\n"
    "Flags take `--flag value` or `--flag=value`; anything else is a usage\n"
    "error (exit 2).\n";

std::int64_t bounded(const char* flag, std::string_view text, std::int64_t lo,
                     std::int64_t hi) {
  const std::int64_t v = benchutil::require_int(flag, text);
  if (v < lo || v > hi) {
    throw benchutil::UsageError(flag, std::string(text),
                                "value out of range [" + std::to_string(lo) +
                                    ", " + std::to_string(hi) + "]");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, 2) != "--") {
      throw benchutil::UsageError(std::string(arg), "",
                                  "unexpected positional argument");
    }
    const std::size_t eq = arg.find('=');
    const std::string flag(arg.substr(0, eq));
    if (flag == "--list" || flag == "--help") {
      if (eq != std::string_view::npos) {
        throw benchutil::UsageError(flag, std::string(arg.substr(eq + 1)),
                                    "flag takes no value");
      }
      (flag == "--list" ? a.list : a.help) = true;
      continue;
    }
    static const char* const kValueFlags[] = {
        "--workload", "--seed", "--seconds", "--trace", "--golden", "--child"};
    if (std::find_if(std::begin(kValueFlags), std::end(kValueFlags),
                     [&](const char* f) { return flag == f; }) ==
        std::end(kValueFlags)) {
      throw benchutil::UsageError(flag, "", "unknown flag");
    }
    std::string_view value;
    if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw benchutil::UsageError(flag, "", "missing value");
    }
    if (flag == "--workload") {
      (void)workload_by_name(value);  // throws on an unknown name
      a.workload = std::string(value);
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = benchutil::require_uint64("--seed", value);
    } else if (flag == "--seconds") {
      a.seconds = bounded("--seconds", value, 1, 600);
    } else if (flag == "--trace") {
      a.trace = bounded("--trace", value, 0, 1);
    } else if (flag == "--golden") {
      a.golden = std::string(value);
    } else {
      if (value != "run" && value != "traced") {
        throw benchutil::UsageError("--child", std::string(value),
                                    "expected run | traced");
      }
      a.child = std::string(value);
    }
  }
  if (!have_workload && !a.list && !a.help) {
    throw benchutil::UsageError("--workload", "", "required");
  }
  return a;
}

// ------------------------------------------------------------------ stats --

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// First and third quartile, as Python's statistics.quantiles(v, n=4)
/// (exclusive method) gives them.
std::pair<double, double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  if (n == 0) return {0, 0};
  if (n == 1) return {v[0], v[0]};
  const auto q = [&](long i) {
    const long m = n + 1;
    long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4;
  };
  return {q(1), q(3)};
}

/// Shortest round-trip rendering; whole numbers (the counts) print as
/// integers rather than in exponent form.
std::string num(double v) {
  char buf[40];
  const auto fmt = std::abs(v) < 1e15 && v == std::trunc(v)
                       ? std::chars_format::fixed
                       : std::chars_format::general;
  const auto res = std::to_chars(buf, buf + sizeof buf, v, fmt);
  return std::string(buf, res.ptr);
}

// ----------------------------------------------------------------- child ---

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

int sharded_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

/// Median host seconds of repeated set-ups of `w`. Set-up takes
/// milliseconds, so it is repeated at least kMinSetups times and for about
/// kSetupBudget seconds. Measured after the workload call, so set-up
/// samples spread over the whole run window as the wall-time samples do.
double setup_median(Workload w, std::uint64_t seed) {
  constexpr std::size_t kMinSetups = 5;
  constexpr std::size_t kMaxSetups = 200;
  constexpr double kSetupBudget = 0.05;
  std::vector<double> samples;
  const auto t0 = std::chrono::steady_clock::now();
  while (samples.size() < kMaxSetups &&
         (samples.size() < kMinSetups ||
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                  .count() < kSetupBudget)) {
    samples.push_back(setup_seconds(w, seed));
  }
  return median(samples);
}

/// Child side: one workload call, reported as a single `RESULT key=value
/// ...` line. An untraced call also reports its set-up time.
int run_child(const Args& a) {
  const Workload w = workload_by_name(a.workload);
  const bool traced = a.child == "traced";
  const double cpu0 = cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  const RunOutput r = run_workload(w, a.seed, traced);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double cpu = cpu_seconds() - cpu0;
  std::string line = "RESULT digest=" + digest(r.canonical) +
                     " sim_ops=" + std::to_string(r.sim_ops) +
                     " attempted=" + std::to_string(r.ops_attempted) +
                     " failed=" + std::to_string(r.ops_failed) +
                     " wall_s=" + num(wall) + " cpu_s=" + num(cpu);
  for (const auto& [name, value] : r.counts) {
    line += " " + name + "=" + std::to_string(value);
  }
  if (!traced) line += " setup_s=" + num(setup_median(w, a.seed));
  std::printf("%s\n", line.c_str());
  return 0;
}

// ---------------------------------------------------------------- parent ---

struct Call {
  bool ok = false;  ///< exited 0 and printed a RESULT line
  std::map<std::string, std::string> fields;
  double peak_rss_mib = 0;

  double number(const std::string& key) const {
    const auto it = fields.find(key);
    return it == fields.end() ? 0 : std::strtod(it->second.c_str(), nullptr);
  }
  std::int64_t count(const std::string& key) const {
    const auto it = fields.find(key);
    return it == fields.end() ? 0 : std::strtoll(it->second.c_str(), nullptr, 10);
  }
};

/// Spawns this binary in child mode, collects its RESULT line and, through
/// wait4, its peak RSS. Waits for the child in every case.
Call spawn_child(const Args& a, const std::string& mode, std::uint64_t seed) {
  std::vector<std::string> args = {"hostbench",  "--child", mode,
                                   "--workload", a.workload,
                                   "--seed",     std::to_string(seed)};
  std::vector<char*> argv;
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);

  Call call;
  int fds[2];
  if (pipe(fds) != 0) return call;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  if (rc == 0) {
    char buf[4096];
    for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) {
      out.append(buf, static_cast<std::size_t>(n));
    }
  }
  close(fds[0]);
  if (rc != 0) return call;

  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  call.peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const std::size_t at = out.rfind("RESULT ");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      at == std::string::npos) {
    return call;
  }
  std::istringstream fields(out.substr(at + 7));
  for (std::string kv; fields >> kv;) {
    const std::size_t eq = kv.find('=');
    if (eq != std::string::npos) call.fields[kv.substr(0, eq)] = kv.substr(eq + 1);
  }
  call.ok = true;
  return call;
}

/// The committed digest for `workload`, or "" when the file has none.
std::string golden_digest(const std::string& path, const std::string& workload) {
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string name, value;
    row >> name >> value;
    if (name == workload) return value;
  }
  return "";
}

/// Outcome accounting shared by every call of one invocation. The system
/// under test is the simulator, so an operation "fails" when the simulator
/// does not reproduce it: its call crashed or its output digest mismatched.
/// Operations the simulated cloud itself failed, shed or dead-lettered are
/// part of the checked output; they count only toward op_fail_ratio.
struct Tally {
  bool correct = true;
  std::int64_t attempted = 0;   ///< simulated ops attempted, all calls
  std::int64_t failed = 0;      ///< ops of crashed or mismatched calls
  std::int64_t sim_failed = 0;  ///< ops the simulated cloud failed
  std::int64_t last_ops = 1;
  std::string digest;  ///< the first digest at --seed

  /// Books one call; a crash or digest mismatch fails all of its ops.
  void book(const Call& c, const std::string& expected, const char* what) {
    if (!c.ok) {
      std::fprintf(stderr, "hostbench: %s call crashed\n", what);
      correct = false;
      attempted += last_ops;
      failed += last_ops;
      return;
    }
    const std::int64_t ops = std::max<std::int64_t>(c.count("attempted"), 1);
    last_ops = ops;
    attempted += ops;
    const std::string& got = c.fields.at("digest");
    if (got != expected) {
      std::fprintf(stderr, "hostbench: %s output digest %s != expected %s\n",
                   what, got.c_str(), expected.c_str());
      correct = false;
      failed += ops;
      return;
    }
    sim_failed += c.count("failed");
  }

  /// Calls at --seed must all agree byte for byte with the first one.
  void book_measured(const Call& c, const char* what) {
    if (c.ok && digest.empty()) digest = c.fields.at("digest");
    book(c, digest, what);
  }
};

void check_golden(const Args& a, Tally& tally) {
  const std::string want = golden_digest(a.golden, a.workload);
  if (want.empty()) {
    std::fprintf(stderr, "hostbench: no golden digest for %s in %s\n",
                 a.workload.c_str(), a.golden.c_str());
    tally.correct = false;
  }
  tally.book(spawn_child(a, "run", kDefaultSeed), want, "golden");
}

using Clock = std::chrono::steady_clock;

bool time_left(Clock::time_point start, const Args& a, std::size_t calls,
               std::size_t min_calls) {
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  return calls < min_calls || elapsed < static_cast<double>(a.seconds);
}

void print_json(const Tally& t,
                const std::vector<std::pair<const MetricDef*, double>>& m) {
  std::string out = std::string("{\"correct\": ") +
                    (t.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(t.attempted) +
                    ", \"failed\": " + std::to_string(t.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    out += (i > 0 ? ", \"" : "\"") + std::string(m[i].first->name) +
           "\": {\"value\": " + num(m[i].second) + ", \"unit\": \"" +
           m[i].first->unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run_end_to_end(const Args& a) {
  Tally tally;
  check_golden(a, tally);

  std::map<std::string, std::vector<double>> series;
  const Clock::time_point start = Clock::now();
  for (std::size_t n = 0; time_left(start, a, n, 3); ++n) {
    const Call c = spawn_child(a, "run", a.seed);
    tally.book_measured(c, "measured");
    if (!c.ok) continue;
    const double wall = c.number("wall_s");
    series["wall_s"].push_back(wall);
    series["sim_ops_per_s"].push_back(c.number("sim_ops") / wall);
    series["cpu_s"].push_back(c.number("cpu_s"));
    series["peak_rss_mib"].push_back(c.peak_rss_mib);
    series["setup_s"].push_back(c.number("setup_s"));
  }

  std::printf("hostbench %s seed=%llu calls=%zu\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), series["wall_s"].size());
  std::printf("%-14s %14s %14s %14s %5s\n", "metric", "median", "q1", "q3",
              "n");
  std::vector<std::pair<const MetricDef*, double>> metrics;
  for (const MetricDef& m : kEndToEnd) {
    const std::vector<double>& v = series[m.name];
    const auto [q1, q3] = quartiles(v);
    std::printf("%-14s %14.6g %14.6g %14.6g %5zu  %s\n", m.name, median(v), q1,
                q3, v.size(), m.unit);
    metrics.emplace_back(&m, median(v));
  }
  print_json(tally, metrics);
  return tally.correct ? 0 : 1;
}

// ------------------------------------------------------------ trace mode ---

/// One row of the attribution table: count × unit cost.
struct Attribution {
  const char* cost;   ///< unit-cost metric
  const char* count;  ///< work-count metric
  bool top;           ///< disjoint from the other top rows of this workload
};

/// Which counts each workload's wall time is attributed over. Unit costs
/// are inclusive of the layers below them, so only the rows marked top are
/// summed for the unattributed remainder.
std::vector<Attribution> attribution_rows(Workload w) {
  std::vector<Attribution> rows = {
      {"netsim.transfer_small_ns", "netsim.transfers", false},
      {"cluster.execute_ns", "cluster.requests", false},
      {"cluster.busy_reject_ns", "cluster.throttle_rejects", true},
  };
  switch (w) {
    case Workload::kTable96:
      rows.push_back({"azure.table_op_ns", "cluster.requests", true});
      break;
    case Workload::kBlob96:
      rows.push_back({"azure.blob_page_op_ns", "cluster.requests", true});
      break;
    case Workload::kMixedOpen:
      rows[1].top = true;
      rows.push_back({"framework.session_ns", "framework.sessions", true});
      rows.push_back({"framework.keygen_zipf_ns", "framework.sessions", true});
      rows.push_back({"framework.arrival_ns", "framework.sessions", true});
      rows.push_back({"faults.draw_ns", "netsim.transfers", true});
      break;
    case Workload::kSharded8:
      rows.push_back({"azure.table_op_ns", "cluster.requests", true});
      rows.push_back({"simcore.dispatch_ns", "par.events", false});
      break;
  }
  return rows;
}

int run_traced(const Args& a) {
  Tally tally;
  check_golden(a, tally);

  std::map<std::string, double> value;
  for (const LayerCost& c : measure_layer_costs()) value[c.name] = c.value;

  // par.speedup: the sharded8 decomposition's kernel wall at one thread over
  // that at min(4, nproc) threads.
  std::vector<double> speedups;
  for (int i = 0; i < 3; ++i) {
    const double one = sharded_kernel_seconds(a.seed, 1);
    speedups.push_back(one / sharded_kernel_seconds(a.seed, sharded_threads()));
  }
  value["par.speedup"] = median(speedups);

  // Alternate untraced and traced calls so host drift hits both alike.
  std::vector<double> plain, traced;
  Call counts;
  const Clock::time_point start = Clock::now();
  for (std::size_t n = 0; time_left(start, a, n, 2); ++n) {
    const Call p = spawn_child(a, "run", a.seed);
    tally.book_measured(p, "untraced");
    if (p.ok) plain.push_back(p.number("wall_s"));
    // A traced call's output carries its observer export, so it is checked
    // for crashes only.
    const Call t = spawn_child(a, "traced", a.seed);
    if (!t.ok) {
      std::fprintf(stderr, "hostbench: traced call crashed\n");
      tally.correct = false;
      continue;
    }
    traced.push_back(t.number("wall_s"));
    counts = t;
  }
  const double wall = median(plain);
  value["obs.overhead_ratio"] = wall > 0 ? median(traced) / wall : 0;
  for (const MetricDef& m : kPerLayer) {
    if (std::string_view(m.unit) == "count" ||
        std::string_view(m.unit) == "bytes") {
      value[m.name] = static_cast<double>(counts.count(m.name));
    }
  }
  value["op_fail_ratio"] =
      tally.attempted > 0 ? static_cast<double>(tally.failed + tally.sim_failed) /
                                static_cast<double>(tally.attempted)
                          : 0;

  const Workload w = workload_by_name(a.workload);
  std::printf("hostbench %s seed=%llu traced: wall_s median %.6g over %zu "
              "untraced calls\n\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              wall, plain.size());
  std::printf("attribution (count x unit cost; unit costs are inclusive of "
              "lower layers, * = summed for the remainder)\n");
  std::printf("  %-26s %-26s %14s %12s %8s\n", "unit cost", "count", "count",
              "seconds", "share");
  double top_share = 0;
  for (const Attribution& r : attribution_rows(w)) {
    const double seconds = value[r.count] * value[r.cost] * 1e-9;
    const double share = wall > 0 ? seconds / wall : 0;
    if (r.top) top_share += share;
    std::printf("%c %-26s %-26s %14.0f %12.6f %7.2f%%\n", r.top ? '*' : ' ',
                r.cost, r.count, value[r.count], seconds, share * 100);
  }
  value["attr.unattributed_share"] = 1.0 - top_share;
  std::printf("  %-26s %-26s %14s %12.6f %7.2f%%\n\n", "unattributed", "", "",
              wall * (1.0 - top_share), (1.0 - top_share) * 100);

  std::printf("  %-26s %16s %-6s  %s\n", "per-layer metric", "value", "unit",
              "should move");
  std::vector<std::pair<const MetricDef*, double>> metrics;
  for (const MetricDef& m : kPerLayer) {
    std::printf("  %-26s %16.6g %-6s  %s\n", m.name, value[m.name], m.unit,
                m.moves);
    metrics.emplace_back(&m, value[m.name]);
  }
  print_json(tally, metrics);
  return tally.correct ? 0 : 1;
}

void list_metrics() {
  for (const MetricDef& m : kEndToEnd) {
    std::printf("end_to_end %s %s %s\n", m.name, m.unit, m.better);
  }
  for (const MetricDef& m : kPerLayer) {
    std::printf("per_layer %s %s %s\n", m.name, m.unit, m.better);
  }
  for (const std::string& w : workload_names()) {
    std::printf("workload %s\n", w.c_str());
  }
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  using namespace hostbench;
  Args a;
  try {
    a = parse_args(argc, argv);
  } catch (const benchutil::UsageError& e) {
    std::fprintf(stderr, "usage error: %s\n%s", e.what(), kUsage);
    return 2;
  }
  if (a.help) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (a.list) {
    list_metrics();
    return 0;
  }
  try {
    if (!a.child.empty()) return run_child(a);
    return a.trace == 1 ? run_traced(a) : run_end_to_end(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 1;
  }
}
