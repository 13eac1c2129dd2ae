// Declarative scenario DSL (ROADMAP item 3): one JSON spec file describes a
// whole benchmark — service mix, key/size distributions, arrival process,
// think time, fault plan, and cluster shape — and a single generic driver
// (bench/bench_scenario.cpp) interprets it deterministically. Experiments
// become data: adding a workload is writing a file under scenarios/, not a
// new binary.
//
// The format is strict JSON (UTF-8, `//` line comments allowed) with a
// closed schema: unknown keys, duplicate keys, out-of-range values, and
// invalid service/op combinations are *typed* errors (ScenarioError) that
// carry the JSON path plus the line/column of the offending token — a spec
// typo fails loudly at load time, never silently at run time (the same
// philosophy as the bench_util flag-parsing sweep in this PR).
//
// Two modes:
//  * figure mode — `"figure": {"id": "fig4", ...}` replays one of the six
//    paper figures through bench_scenario's figN_table builders; at the
//    paper-scale defaults the tables match tests/golden/figN.csv
//    byte-for-byte.
//  * generic mode — `"mix": [...]` runs an open-loop LoadEngine workload:
//    sessions arrive per the arrival process, each drawing a mix entry, a
//    key (framework/keygen.hpp) and a value size, then issuing one storage
//    operation against a CloudEnvironment.
//
// Determinism contract: a Scenario is a pure value; every derived RNG
// stream (arrivals, sessions, key generator, faults) defaults to a distinct
// function of the single top-level `seed`, so one integer replays the whole
// run byte-identically.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "framework/arrivals.hpp"
#include "framework/keygen.hpp"
#include "simcore/time.hpp"

namespace framework {

/// Spec-file diagnostic: JSON path (e.g. "scenario.mix[1].weight"), the
/// 1-based line/column of the offending token, and the reason. what() is
/// pre-formatted as "<path> (line L, col C): <reason>".
class ScenarioError : public std::runtime_error {
 public:
  ScenarioError(std::string path, int line, int col, std::string why)
      : std::runtime_error(path + " (line " + std::to_string(line) +
                           ", col " + std::to_string(col) + "): " + why),
        path_(std::move(path)),
        reason_(std::move(why)),
        line_(line),
        col_(col) {}

  const std::string& path() const noexcept { return path_; }
  const std::string& reason() const noexcept { return reason_; }
  int line() const noexcept { return line_; }
  int col() const noexcept { return col_; }

 private:
  std::string path_;
  std::string reason_;
  int line_;
  int col_;
};

/// One weighted entry of the workload mix.
struct ScenarioMixEntry {
  enum class Service { kBlob, kQueue, kTable, kSql };
  Service service = Service::kTable;
  /// Validated per service:
  ///   blob:  read | write | list | delete | mixed
  ///   queue: put | get | peek | mixed
  ///   table: read | insert | update | scan | rmw | mixed
  ///   sql:   read | write | mixed
  /// "mixed" resolves per op via the scenario-level read_ratio.
  std::string op = "mixed";
  /// Relative weight, > 0 and finite. A zero weight is rejected at parse
  /// time (delete the entry instead): silently-dead mix entries were the
  /// class of bug this PR's boundary sweep exists to kill.
  double weight = 1.0;
};

const char* service_name(ScenarioMixEntry::Service s) noexcept;

/// Which simulated storage backend a generic-mode scenario runs against
/// (spec key "backend"; the driver layer in src/storage maps each kind to a
/// storage::Driver implementation).
enum class BackendKind {
  /// The paper's Azure-style stack: all four services, consistent
  /// list-after-write, per-account 5,000 tx/s gate (ServerBusyError).
  kAzure,
  /// S3-like object store: objects only (no queue/table/sql), eventual
  /// list-after-write, per-prefix request caps with 503 SlowDown.
  kS3,
  /// Tiered placement: objects route by size between an Azure-style fast
  /// tier and the S3-like capacity tier; queue/table/sql ride the fast
  /// tier. Listings merge both tiers, so they inherit S3's eventuality.
  kTiered,
};

/// What a backend can do — the contract surface the parser validates mix
/// entries against, and the conformance suite asserts per driver.
struct BackendCaps {
  bool has_blobs = true;
  bool has_queues = true;
  bool has_tables = true;
  bool has_sql = true;
  /// A completed write (or delete) is visible to an immediately following
  /// list. False = eventual list-after-write (S3-style visibility lag).
  bool consistent_list = true;
  /// Human-readable throttle contract, for diagnostics and docs.
  const char* throttle_model = "";
};

const char* backend_name(BackendKind kind) noexcept;
BackendCaps backend_caps(BackendKind kind) noexcept;

/// Whether `kind` serves mix entries of `service` at all. The parser turns
/// a false here into a located ScenarioError; bench_scenario re-checks it
/// for --backend overrides.
bool backend_supports(BackendKind kind,
                      ScenarioMixEntry::Service service) noexcept;

/// Value (payload) size in bytes: fixed when lo == hi, else uniform in
/// [lo, hi] drawn from the session's private stream.
struct ScenarioValueSize {
  std::int64_t lo = 1024;
  std::int64_t hi = 1024;
};

/// Client think time before each operation (excluded from latency).
struct ScenarioThink {
  sim::Duration mean = 0;
  /// Relative jitter in [0, 1]: actual delay is mean * (1 + jitter * u),
  /// u uniform in [-1, 1) from the session stream.
  double jitter = 0;
};

/// The subset of faults::FaultConfig a spec can arm.
struct ScenarioFaults {
  std::uint64_t seed = 0;  ///< 0 = derive from the scenario seed
  double drop_probability = 0;
  double duplicate_probability = 0;
  double latency_spike_probability = 0;
  double corruption_probability = 0;
  int server_crashes = 0;

  bool enabled() const noexcept {
    return drop_probability > 0 || duplicate_probability > 0 ||
           latency_spike_probability > 0 || corruption_probability > 0 ||
           server_crashes > 0;
  }
};

/// Cluster shape overrides.
struct ScenarioCluster {
  int partition_servers = 16;
  bool balancer = false;
  /// false = ThrottleMode::kReject (Azure behaviour), true = kQueue.
  bool throttle_queue = false;
};

/// Figure-replay mode: which paper figure, at which sweep points.
struct ScenarioFigure {
  int id = 4;                ///< 4..9
  std::vector<int> workers;  ///< empty = the figure's default sweep
  int repeats = 10;          ///< fig4/fig5
  std::int64_t messages = 20'000;  ///< fig6/fig7/fig9
  int entities = 500;              ///< fig8/fig9
  bool no_anomaly = false;         ///< fig6 ablation
  bool no_replica_reads = false;   ///< fig4 ablation
};

struct Scenario {
  std::string name;
  std::string description;

  /// Master seed: arrivals.seed, keys.seed, faults.seed and the session
  /// seed all derive from it unless a section sets its own.
  std::uint64_t seed = 0x5CE7A210;

  // ------------------------------------------------------- generic mode ----
  /// Which storage backend serves the mix (spec key "backend": "azure" |
  /// "s3" | "tiered"). Figure mode is Azure-defined and rejects the key.
  BackendKind backend = BackendKind::kAzure;
  /// Tiered backend only: object writes of at least this many bytes land
  /// on the capacity (S3-like) tier, smaller ones on the fast tier.
  std::int64_t tier_split_bytes = 256 * 1024;
  /// Total sessions offered (one storage operation each).
  std::int64_t operations = 1'000;
  /// Resolves "mixed" ops: probability that a mixed op is a read.
  double read_ratio = 0.5;
  /// Queues a put publishes to (pub/sub fanout). Gets drain one queue.
  int queue_fanout = 1;
  /// Objects pre-created per service before load starts; -1 = derive
  /// (min(keys.space, 10'000); queues cap their pre-seed at 1'000).
  std::int64_t populate = -1;
  /// Table-partition shaping: row keys per partition key.
  std::int64_t rows_per_partition = 128;
  int max_in_flight = 1'024;
  int max_pending = 8'192;

  ArrivalConfig arrivals;
  ScenarioThink think;
  KeyGenConfig keys;
  ScenarioValueSize values;
  std::vector<ScenarioMixEntry> mix;  ///< non-empty iff generic mode
  ScenarioCluster cluster;
  ScenarioFaults faults;

  // -------------------------------------------------------- figure mode ----
  std::optional<ScenarioFigure> figure;

  bool figure_mode() const noexcept { return figure.has_value(); }

  /// The resolved pre-population count (populate, or its derived default).
  std::int64_t populate_count() const noexcept {
    if (populate >= 0) return populate;
    const std::uint64_t cap = 10'000;
    return static_cast<std::int64_t>(keys.space < cap ? keys.space : cap);
  }
};

/// splitmix64-style derivation of per-section seeds from the master seed —
/// the same function the parser uses for defaulted section seeds, exposed
/// so the driver derives its session seed consistently.
std::uint64_t scenario_derive_seed(std::uint64_t seed,
                                   std::uint64_t salt) noexcept;

/// Parses and validates a spec from JSON text. Throws ScenarioError with
/// path + line/col on any syntax, schema, or range violation.
Scenario parse_scenario(std::string_view text);

/// Reads `path` and parses it. File-system failures are reported as a
/// ScenarioError at line 0.
Scenario load_scenario_file(const std::string& path);

}  // namespace framework
