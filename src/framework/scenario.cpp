#include "framework/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace framework {
namespace {

// =========================================================== JSON layer ====
//
// A minimal recursive-descent JSON reader, written here instead of vendoring
// a library (the repo's no-new-deps rule). Deliberate deviations from RFC
// 8259, both in the *lenient* direction a config dialect wants:
//   * `//` line comments are skipped as whitespace;
//   * and none in the permissive direction: duplicate object keys are a
//     hard error (silent last-wins is exactly the flag-parsing bug class
//     this PR fixes), as is trailing text after the top-level value.
// Every node remembers the line/column of its first token so the schema
// binder can point at the offending value, not just the file.

struct JsonNode {
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool b = false;
  std::int64_t i = 0;   // kInt
  double d = 0;         // kDouble
  std::string s;        // kString
  std::vector<JsonNode> arr;
  // Object members in file order (deterministic diagnostics), with the
  // key token's (line, col) kept in the parallel obj_key_loc.
  std::vector<std::pair<std::string, JsonNode>> obj;
  std::vector<std::pair<int, int>> obj_key_loc;
  int line = 0;
  int col = 0;

  const JsonNode* find(std::string_view key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  bool is_number() const noexcept {
    return kind == Kind::kInt || kind == Kind::kDouble;
  }
  double as_double() const noexcept {
    return kind == Kind::kInt ? static_cast<double>(i) : d;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonNode parse() {
    JsonNode root = value();
    skip_ws();
    if (pos_ < text_.size()) {
      fail("trailing content after the top-level value");
    }
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw ScenarioError("<spec>", line_, col_, why);
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  char take() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void skip_ws() {
    for (;;) {
      while (pos_ < text_.size() &&
             (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
              peek() == '\r')) {
        take();
      }
      if (pos_ + 1 < text_.size() && text_[pos_] == '/' &&
          text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && peek() != '\n') take();
        continue;
      }
      return;
    }
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'" +
           (pos_ >= text_.size() ? " but the spec ended"
                                 : std::string(", got '") + peek() + "'"));
    }
    take();
  }

  JsonNode value() {
    skip_ws();
    if (pos_ >= text_.size()) fail("the spec ended where a value was expected");
    JsonNode n;
    n.line = line_;
    n.col = col_;
    switch (peek()) {
      case '{':
        object(n);
        return n;
      case '[':
        array(n);
        return n;
      case '"':
        n.kind = JsonNode::Kind::kString;
        n.s = string_token();
        return n;
      case 't':
        keyword("true");
        n.kind = JsonNode::Kind::kBool;
        n.b = true;
        return n;
      case 'f':
        keyword("false");
        n.kind = JsonNode::Kind::kBool;
        n.b = false;
        return n;
      case 'n':
        keyword("null");
        n.kind = JsonNode::Kind::kNull;
        return n;
      default:
        number(n);
        return n;
    }
  }

  void keyword(std::string_view word) {
    for (const char c : word) {
      if (peek() != c) fail("unrecognized token (expected '" +
                            std::string(word) + "')");
      take();
    }
  }

  void object(JsonNode& n) {
    n.kind = JsonNode::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      take();
      return;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected a quoted object key");
      const int key_line = line_;
      const int key_col = col_;
      std::string key = string_token();
      if (n.find(key) != nullptr) {
        throw ScenarioError("<spec>", key_line, key_col,
                            "duplicate key '" + key +
                                "' — duplicates are an error, not "
                                "last-wins");
      }
      skip_ws();
      expect(':');
      n.obj.emplace_back(std::move(key), value());
      n.obj_key_loc.emplace_back(key_line, key_col);
      skip_ws();
      if (peek() == ',') {
        take();
        continue;
      }
      expect('}');
      return;
    }
  }

  void array(JsonNode& n) {
    n.kind = JsonNode::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      take();
      return;
    }
    for (;;) {
      n.arr.push_back(value());
      skip_ws();
      if (peek() == ',') {
        take();
        continue;
      }
      expect(']');
      return;
    }
  }

  std::string string_token() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string (use \\n etc.)");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape sequence");
      const char e = take();
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned v = 0;
          for (int k = 0; k < 4; ++k) {
            if (pos_ >= text_.size()) fail("unterminated \\u escape");
            const char h = take();
            v <<= 4;
            if (h >= '0' && h <= '9') {
              v |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              v |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              v |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid hex digit in \\u escape");
            }
          }
          if (v >= 0xD800 && v <= 0xDFFF) {
            fail("surrogate \\u escapes are not supported");
          }
          // UTF-8 encode the code point.
          if (v < 0x80) {
            out.push_back(static_cast<char>(v));
          } else if (v < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (v >> 6)));
            out.push_back(static_cast<char>(0x80 | (v & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (v >> 12)));
            out.push_back(static_cast<char>(0x80 | ((v >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (v & 0x3F)));
          }
          break;
        }
        default:
          fail(std::string("unknown escape '\\") + e + "'");
      }
    }
  }

  void number(JsonNode& n) {
    const std::size_t start = pos_;
    if (peek() == '-') take();
    if (!std::isdigit(static_cast<unsigned char>(peek()))) {
      fail("unrecognized token (expected a value)");
    }
    bool integral = true;
    while (std::isdigit(static_cast<unsigned char>(peek()))) take();
    if (peek() == '.') {
      integral = false;
      take();
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digits must follow the decimal point");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) take();
    }
    if (peek() == 'e' || peek() == 'E') {
      integral = false;
      take();
      if (peek() == '+' || peek() == '-') take();
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digits must follow the exponent");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) take();
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (integral) {
      // Same strictness as benchutil::parse_int: full-token from_chars.
      const auto r = std::from_chars(tok.data(), tok.data() + tok.size(), n.i);
      if (r.ec == std::errc{} && r.ptr == tok.data() + tok.size()) {
        n.kind = JsonNode::Kind::kInt;
        return;
      }
      fail("integer does not fit in a 64-bit integer");
    }
    const auto r = std::from_chars(tok.data(), tok.data() + tok.size(), n.d);
    if (r.ec != std::errc{} || r.ptr != tok.data() + tok.size() ||
        !std::isfinite(n.d)) {
      fail("number out of range");
    }
    n.kind = JsonNode::Kind::kDouble;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

// ========================================================= schema layer ====

[[noreturn]] void fail_at(const JsonNode& n, const std::string& path,
                          const std::string& why) {
  throw ScenarioError(path, n.line, n.col, why);
}

const char* kind_name(JsonNode::Kind k) {
  switch (k) {
    case JsonNode::Kind::kNull: return "null";
    case JsonNode::Kind::kBool: return "a boolean";
    case JsonNode::Kind::kInt: return "an integer";
    case JsonNode::Kind::kDouble: return "a number";
    case JsonNode::Kind::kString: return "a string";
    case JsonNode::Kind::kArray: return "an array";
    case JsonNode::Kind::kObject: return "an object";
  }
  return "?";
}

const JsonNode& expect_object(const JsonNode& n, const std::string& path) {
  if (n.kind != JsonNode::Kind::kObject) {
    fail_at(n, path, std::string("expected an object, got ") +
                         kind_name(n.kind));
  }
  return n;
}

/// Closed-schema enforcement: the first member whose key is not in
/// `allowed` is an error at that key's location. Members are checked in
/// file order, so diagnostics are deterministic.
void reject_unknown(const JsonNode& obj, const std::string& path,
                    std::initializer_list<std::string_view> allowed) {
  for (std::size_t idx = 0; idx < obj.obj.size(); ++idx) {
    const std::string& key = obj.obj[idx].first;
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      std::string known;
      for (const std::string_view a : allowed) {
        if (!known.empty()) known += ", ";
        known += a;
      }
      throw ScenarioError(path, obj.obj_key_loc[idx].first,
                          obj.obj_key_loc[idx].second,
                          "unknown key '" + key + "' (known keys: " + known +
                              ")");
    }
  }
}

std::string join(const std::string& path, const char* key) {
  return path + "." + key;
}

double get_num(const JsonNode& obj, const std::string& path, const char* key,
               double fallback, double min, double max) {
  const JsonNode* n = obj.find(key);
  if (n == nullptr) return fallback;
  const std::string p = join(path, key);
  if (!n->is_number()) {
    fail_at(*n, p, std::string("expected a number, got ") +
                       kind_name(n->kind));
  }
  const double v = n->as_double();
  if (!(v >= min && v <= max)) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "value %g out of range [%g, %g]", v, min,
                  max);
    fail_at(*n, p, buf);
  }
  return v;
}

std::int64_t get_int(const JsonNode& obj, const std::string& path,
                     const char* key, std::int64_t fallback, std::int64_t min,
                     std::int64_t max) {
  const JsonNode* n = obj.find(key);
  if (n == nullptr) return fallback;
  const std::string p = join(path, key);
  if (n->kind != JsonNode::Kind::kInt) {
    fail_at(*n, p, std::string("expected an integer, got ") +
                       kind_name(n->kind));
  }
  if (n->i < min || n->i > max) {
    fail_at(*n, p,
            "value " + std::to_string(n->i) + " out of range [" +
                std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  return n->i;
}

std::uint64_t get_seed(const JsonNode& obj, const std::string& path,
                       const char* key, std::uint64_t fallback) {
  const JsonNode* n = obj.find(key);
  if (n == nullptr) return fallback;
  const std::string p = join(path, key);
  if (n->kind != JsonNode::Kind::kInt || n->i < 0) {
    fail_at(*n, p, "expected a non-negative integer seed");
  }
  return static_cast<std::uint64_t>(n->i);
}

bool get_bool(const JsonNode& obj, const std::string& path, const char* key,
              bool fallback) {
  const JsonNode* n = obj.find(key);
  if (n == nullptr) return fallback;
  if (n->kind != JsonNode::Kind::kBool) {
    fail_at(*n, join(path, key),
            std::string("expected true or false, got ") + kind_name(n->kind));
  }
  return n->b;
}

std::string get_str(const JsonNode& obj, const std::string& path,
                    const char* key, const std::string& fallback) {
  const JsonNode* n = obj.find(key);
  if (n == nullptr) return fallback;
  if (n->kind != JsonNode::Kind::kString) {
    fail_at(*n, join(path, key),
            std::string("expected a string, got ") + kind_name(n->kind));
  }
  return n->s;
}

using framework::scenario_derive_seed;
constexpr auto derive_seed = scenario_derive_seed;

// -------------------------------------------------------------- sections ----

void bind_arrivals(const JsonNode& n, const std::string& path,
                   ArrivalConfig& a, std::uint64_t master_seed) {
  expect_object(n, path);
  reject_unknown(n, path,
                 {"kind", "seed", "rate_per_sec", "period_volume", "period_s",
                  "amplitude", "peak_at_s", "spike_at_s", "spike_duration_s",
                  "spike_rate_per_sec"});
  const std::string kind = get_str(n, path, "kind", "poisson");
  if (kind == "poisson") {
    a.kind = ArrivalConfig::Kind::kPoisson;
  } else if (kind == "diurnal") {
    a.kind = ArrivalConfig::Kind::kDiurnal;
  } else if (kind == "flash_crowd") {
    a.kind = ArrivalConfig::Kind::kFlashCrowd;
  } else {
    fail_at(*n.find("kind"), join(path, "kind"),
            "unknown arrival kind '" + kind +
                "' (poisson | diurnal | flash_crowd)");
  }
  a.seed = get_seed(n, path, "seed", derive_seed(master_seed, 0x10AD));
  a.rate_per_sec = get_num(n, path, "rate_per_sec", a.rate_per_sec, 0.0, 1e9);
  a.period_volume =
      get_num(n, path, "period_volume", a.period_volume, 1.0, 1e15);
  a.period = sim::Duration(static_cast<std::int64_t>(
      get_num(n, path, "period_s", sim::to_seconds(a.period), 1e-3, 1e9) *
      1e9));
  // amplitude == 1 would make the trough rate exactly 0 and the thinning
  // envelope degenerate; the contract is the half-open [0, 1).
  a.amplitude = get_num(n, path, "amplitude", a.amplitude, 0.0, 1.0);
  if (a.amplitude >= 1.0) {
    fail_at(*n.find("amplitude"), join(path, "amplitude"),
            "amplitude must be in [0, 1) — 1.0 degenerates the diurnal "
            "envelope");
  }
  a.peak_at = static_cast<sim::TimePoint>(
      get_num(n, path, "peak_at_s", sim::to_seconds(a.peak_at), 0.0, 1e9) *
      1e9);
  a.spike_at = static_cast<sim::TimePoint>(
      get_num(n, path, "spike_at_s", 0.0, 0.0, 1e9) * 1e9);
  a.spike_duration = static_cast<sim::Duration>(
      get_num(n, path, "spike_duration_s", 0.0, 0.0, 1e9) * 1e9);
  a.spike_rate_per_sec =
      get_num(n, path, "spike_rate_per_sec", 0.0, 0.0, 1e9);
  if (a.kind == ArrivalConfig::Kind::kPoisson && a.rate_per_sec <= 0) {
    fail_at(n, path, "poisson arrivals need rate_per_sec > 0");
  }
}

void bind_keys(const JsonNode& n, const std::string& path, KeyGenConfig& k,
               std::uint64_t master_seed) {
  expect_object(n, path);
  reject_unknown(n, path, {"kind", "space", "zipf_s", "seed"});
  const std::string kind = get_str(n, path, "kind", "uniform");
  if (kind == "uniform") {
    k.kind = KeyGenConfig::Kind::kUniform;
  } else if (kind == "zipf") {
    k.kind = KeyGenConfig::Kind::kZipf;
  } else if (kind == "golden_stride") {
    k.kind = KeyGenConfig::Kind::kGoldenStride;
  } else if (kind == "coverage") {
    k.kind = KeyGenConfig::Kind::kCoverage;
  } else {
    fail_at(*n.find("kind"), join(path, "kind"),
            "unknown key-generator kind '" + kind +
                "' (uniform | zipf | golden_stride | coverage)");
  }
  const std::int64_t space =
      get_int(n, path, "space", 1'024, 1, std::int64_t{1} << 40);
  k.space = static_cast<std::uint64_t>(space);
  // s == 0 is the valid degenerate-to-uniform boundary (KeyGen routes it
  // through the exact uniform path); kMaxZipfS mirrors keygen.hpp.
  k.zipf_s = get_num(n, path, "zipf_s", k.zipf_s, 0.0, kMaxZipfS);
  k.seed = get_seed(n, path, "seed", derive_seed(master_seed, 0x4E59));
}

void bind_think(const JsonNode& n, const std::string& path,
                ScenarioThink& t) {
  expect_object(n, path);
  reject_unknown(n, path, {"mean_ms", "jitter"});
  t.mean = static_cast<sim::Duration>(
      get_num(n, path, "mean_ms", 0.0, 0.0, 1e9) * 1e6);
  t.jitter = get_num(n, path, "jitter", 0.0, 0.0, 1.0);
}

void bind_values(const JsonNode& n, const std::string& path,
                 ScenarioValueSize& v) {
  expect_object(n, path);
  reject_unknown(n, path, {"bytes", "min_bytes", "max_bytes"});
  constexpr std::int64_t kMax = std::int64_t{1} << 32;
  if (const JsonNode* fixed = n.find("bytes")) {
    if (n.find("min_bytes") != nullptr || n.find("max_bytes") != nullptr) {
      fail_at(*fixed, join(path, "bytes"),
              "give either bytes or min_bytes/max_bytes, not both");
    }
    v.lo = v.hi = get_int(n, path, "bytes", 1'024, 1, kMax);
    return;
  }
  v.lo = get_int(n, path, "min_bytes", 1'024, 1, kMax);
  v.hi = get_int(n, path, "max_bytes", v.lo, 1, kMax);
  if (v.lo > v.hi) {
    fail_at(*n.find("min_bytes"), join(path, "min_bytes"),
            "min_bytes " + std::to_string(v.lo) + " exceeds max_bytes " +
                std::to_string(v.hi));
  }
}

bool op_valid(ScenarioMixEntry::Service svc, const std::string& op) {
  using S = ScenarioMixEntry::Service;
  if (op == "mixed") return true;
  switch (svc) {
    case S::kBlob:
      return op == "read" || op == "write" || op == "list" || op == "delete";
    case S::kQueue:
      return op == "put" || op == "get" || op == "peek";
    case S::kTable:
      return op == "read" || op == "insert" || op == "update" ||
             op == "scan" || op == "rmw";
    case S::kSql:
      return op == "read" || op == "write";
  }
  return false;
}

void bind_mix(const JsonNode& n, const std::string& path,
              std::vector<ScenarioMixEntry>& mix) {
  if (n.kind != JsonNode::Kind::kArray) {
    fail_at(n, path, std::string("expected an array, got ") +
                         kind_name(n.kind));
  }
  if (n.arr.empty()) fail_at(n, path, "mix must have at least one entry");
  for (std::size_t idx = 0; idx < n.arr.size(); ++idx) {
    const JsonNode& e = n.arr[idx];
    const std::string p = path + "[" + std::to_string(idx) + "]";
    expect_object(e, p);
    reject_unknown(e, p, {"service", "op", "weight"});
    ScenarioMixEntry out;
    const JsonNode* svc = e.find("service");
    if (svc == nullptr) fail_at(e, p, "missing required key 'service'");
    const std::string name = get_str(e, p, "service", "");
    if (name == "blob") {
      out.service = ScenarioMixEntry::Service::kBlob;
    } else if (name == "queue") {
      out.service = ScenarioMixEntry::Service::kQueue;
    } else if (name == "table") {
      out.service = ScenarioMixEntry::Service::kTable;
    } else if (name == "sql") {
      out.service = ScenarioMixEntry::Service::kSql;
    } else {
      fail_at(*svc, join(p, "service"),
              "unknown service '" + name + "' (blob | queue | table | sql)");
    }
    out.op = get_str(e, p, "op", "mixed");
    if (!op_valid(out.service, out.op)) {
      fail_at(*e.find("op"), join(p, "op"),
              "op '" + out.op + "' is not valid for service '" + name + "'");
    }
    out.weight = get_num(e, p, "weight", 1.0, 0.0, 1e9);
    if (out.weight <= 0.0) {
      fail_at(e.find("weight") != nullptr ? *e.find("weight") : e,
              join(p, "weight"),
              "zero-weight mix entries are rejected — delete the entry "
              "instead of zeroing it");
    }
    mix.push_back(std::move(out));
  }
}

void bind_cluster(const JsonNode& n, const std::string& path,
                  ScenarioCluster& c) {
  expect_object(n, path);
  reject_unknown(n, path, {"partition_servers", "balancer", "throttle"});
  c.partition_servers = static_cast<int>(
      get_int(n, path, "partition_servers", c.partition_servers, 1, 4'096));
  c.balancer = get_bool(n, path, "balancer", false);
  const std::string throttle = get_str(n, path, "throttle", "reject");
  if (throttle == "reject") {
    c.throttle_queue = false;
  } else if (throttle == "queue") {
    c.throttle_queue = true;
  } else {
    fail_at(*n.find("throttle"), join(path, "throttle"),
            "unknown throttle mode '" + throttle + "' (reject | queue)");
  }
}

void bind_faults(const JsonNode& n, const std::string& path,
                 ScenarioFaults& f, std::uint64_t master_seed) {
  expect_object(n, path);
  reject_unknown(n, path,
                 {"seed", "drop_probability", "duplicate_probability",
                  "latency_spike_probability", "corruption_probability",
                  "server_crashes"});
  f.seed = get_seed(n, path, "seed", derive_seed(master_seed, 0xFA));
  f.drop_probability = get_num(n, path, "drop_probability", 0.0, 0.0, 1.0);
  f.duplicate_probability =
      get_num(n, path, "duplicate_probability", 0.0, 0.0, 1.0);
  f.latency_spike_probability =
      get_num(n, path, "latency_spike_probability", 0.0, 0.0, 1.0);
  f.corruption_probability =
      get_num(n, path, "corruption_probability", 0.0, 0.0, 1.0);
  f.server_crashes =
      static_cast<int>(get_int(n, path, "server_crashes", 0, 0, 1'000));
}

void bind_figure(const JsonNode& n, const std::string& path,
                 ScenarioFigure& f) {
  expect_object(n, path);
  reject_unknown(n, path, {"id", "workers", "repeats", "messages", "entities",
                           "no_anomaly", "no_replica_reads"});
  const JsonNode* id = n.find("id");
  if (id == nullptr) fail_at(n, path, "missing required key 'id'");
  const std::string name = get_str(n, path, "id", "");
  if (name.size() == 4 && name.compare(0, 3, "fig") == 0 &&
      name[3] >= '4' && name[3] <= '9') {
    f.id = name[3] - '0';
  } else {
    fail_at(*id, join(path, "id"),
            "unknown figure '" + name + "' (fig4 .. fig9)");
  }
  if (const JsonNode* w = n.find("workers")) {
    const std::string p = join(path, "workers");
    if (w->kind != JsonNode::Kind::kArray || w->arr.empty()) {
      fail_at(*w, p, "expected a non-empty array of worker counts");
    }
    for (const JsonNode& e : w->arr) {
      if (e.kind != JsonNode::Kind::kInt || e.i < 1 || e.i > 100'000) {
        fail_at(e, p, "worker counts must be integers in [1, 100000]");
      }
      f.workers.push_back(static_cast<int>(e.i));
    }
  }
  f.repeats = static_cast<int>(get_int(n, path, "repeats", 10, 1, 1'000));
  f.messages = get_int(n, path, "messages", 20'000, 1, 100'000'000);
  f.entities =
      static_cast<int>(get_int(n, path, "entities", 500, 1, 1'000'000));
  f.no_anomaly = get_bool(n, path, "no_anomaly", false);
  f.no_replica_reads = get_bool(n, path, "no_replica_reads", false);
}

}  // namespace

/// splitmix64 finalizer: per-section default seeds derive from the master
/// seed so distinct sections never share a stream by accident.
std::uint64_t scenario_derive_seed(std::uint64_t seed,
                                   std::uint64_t salt) noexcept {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

const char* service_name(ScenarioMixEntry::Service s) noexcept {
  switch (s) {
    case ScenarioMixEntry::Service::kBlob: return "blob";
    case ScenarioMixEntry::Service::kQueue: return "queue";
    case ScenarioMixEntry::Service::kTable: return "table";
    case ScenarioMixEntry::Service::kSql: return "sql";
  }
  return "?";
}

const char* backend_name(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::kAzure: return "azure";
    case BackendKind::kS3: return "s3";
    case BackendKind::kTiered: return "tiered";
  }
  return "?";
}

BackendCaps backend_caps(BackendKind kind) noexcept {
  BackendCaps c;
  switch (kind) {
    case BackendKind::kAzure:
      c.throttle_model = "per-account 5,000 tx/s gate (ServerBusy)";
      break;
    case BackendKind::kS3:
      c.has_queues = false;
      c.has_tables = false;
      c.has_sql = false;
      c.consistent_list = false;
      c.throttle_model = "per-prefix request caps (503 SlowDown)";
      break;
    case BackendKind::kTiered:
      // Listings merge the capacity tier, so they inherit its eventuality.
      c.consistent_list = false;
      c.throttle_model =
          "fast tier: account gate; capacity tier: per-prefix SlowDown";
      break;
  }
  return c;
}

bool backend_supports(BackendKind kind,
                      ScenarioMixEntry::Service service) noexcept {
  const BackendCaps c = backend_caps(kind);
  switch (service) {
    case ScenarioMixEntry::Service::kBlob: return c.has_blobs;
    case ScenarioMixEntry::Service::kQueue: return c.has_queues;
    case ScenarioMixEntry::Service::kTable: return c.has_tables;
    case ScenarioMixEntry::Service::kSql: return c.has_sql;
  }
  return false;
}

Scenario parse_scenario(std::string_view text) {
  const JsonNode root = JsonParser(text).parse();
  const std::string path = "scenario";
  expect_object(root, path);
  reject_unknown(root, path,
                 {"name", "description", "seed", "backend", "tier_split_bytes",
                  "operations", "read_ratio", "queue_fanout", "populate",
                  "rows_per_partition", "max_in_flight", "max_pending",
                  "arrivals", "think", "keys", "values", "mix", "cluster",
                  "faults", "figure"});

  Scenario sc;
  sc.name = get_str(root, path, "name", "");
  if (sc.name.empty()) {
    fail_at(root, path, "missing required key 'name' (a non-empty string)");
  }
  sc.description = get_str(root, path, "description", "");
  sc.seed = get_seed(root, path, "seed", sc.seed);
  sc.operations =
      get_int(root, path, "operations", sc.operations, 1, 100'000'000);
  sc.read_ratio = get_num(root, path, "read_ratio", sc.read_ratio, 0.0, 1.0);
  sc.queue_fanout =
      static_cast<int>(get_int(root, path, "queue_fanout", 1, 1, 64));
  sc.populate = get_int(root, path, "populate", -1, -1, 10'000'000);
  sc.rows_per_partition =
      get_int(root, path, "rows_per_partition", sc.rows_per_partition, 1,
              1'000'000);
  sc.max_in_flight = static_cast<int>(
      get_int(root, path, "max_in_flight", sc.max_in_flight, 1, 1'000'000));
  sc.max_pending = static_cast<int>(
      get_int(root, path, "max_pending", sc.max_pending, 0, 10'000'000));

  const std::string backend = get_str(root, path, "backend", "azure");
  if (backend == "azure") {
    sc.backend = BackendKind::kAzure;
  } else if (backend == "s3") {
    sc.backend = BackendKind::kS3;
  } else if (backend == "tiered") {
    sc.backend = BackendKind::kTiered;
  } else {
    fail_at(*root.find("backend"), join(path, "backend"),
            "unknown backend '" + backend + "' (azure | s3 | tiered)");
  }
  if (const JsonNode* n = root.find("tier_split_bytes")) {
    if (sc.backend != BackendKind::kTiered) {
      fail_at(*n, join(path, "tier_split_bytes"),
              "tier_split_bytes only applies to backend 'tiered'");
    }
    sc.tier_split_bytes =
        get_int(root, path, "tier_split_bytes", sc.tier_split_bytes, 1,
                std::int64_t{1} << 32);
  }

  // Per-section default seeds derive from the master seed.
  sc.arrivals.seed = derive_seed(sc.seed, 0x10AD);
  sc.keys.seed = derive_seed(sc.seed, 0x4E59);
  sc.faults.seed = derive_seed(sc.seed, 0xFA);

  if (const JsonNode* n = root.find("arrivals")) {
    bind_arrivals(*n, join(path, "arrivals"), sc.arrivals, sc.seed);
  }
  if (const JsonNode* n = root.find("think")) {
    bind_think(*n, join(path, "think"), sc.think);
  }
  if (const JsonNode* n = root.find("keys")) {
    bind_keys(*n, join(path, "keys"), sc.keys, sc.seed);
  }
  if (const JsonNode* n = root.find("values")) {
    bind_values(*n, join(path, "values"), sc.values);
  }
  if (const JsonNode* n = root.find("cluster")) {
    bind_cluster(*n, join(path, "cluster"), sc.cluster);
  }
  if (const JsonNode* n = root.find("faults")) {
    bind_faults(*n, join(path, "faults"), sc.faults, sc.seed);
  }

  const JsonNode* fig = root.find("figure");
  const JsonNode* mix = root.find("mix");
  if (fig != nullptr && mix != nullptr) {
    fail_at(*mix, join(path, "mix"),
            "a figure-mode spec cannot also declare a mix — pick one mode");
  }
  if (fig != nullptr) {
    // Generic-only sections are meaningless in figure mode; rejecting them
    // beats silently ignoring half a spec. The backend key in particular:
    // figure replays are *defined* by the Azure contract (pinned by the
    // tests/golden CSVs), so a non-Azure figure spec is a contradiction.
    for (const char* key :
         {"arrivals", "keys", "values", "think", "backend",
          "tier_split_bytes"}) {
      if (const JsonNode* n = root.find(key)) {
        fail_at(*n, join(path, key),
                std::string("'") + key +
                    "' has no effect in figure mode — remove it");
      }
    }
    ScenarioFigure f;
    bind_figure(*fig, join(path, "figure"), f);
    sc.figure = std::move(f);
    return sc;
  }
  if (mix == nullptr) {
    fail_at(root, path, "a spec needs either 'mix' (generic mode) or "
                        "'figure' (figure-replay mode)");
  }
  bind_mix(*mix, join(path, "mix"), sc.mix);

  // Capability check: every mix entry must name a service the declared
  // backend actually has. The diagnostic points at the entry's 'service'
  // token and names the capability flag so the fix is obvious.
  for (std::size_t i = 0; i < sc.mix.size(); ++i) {
    if (backend_supports(sc.backend, sc.mix[i].service)) continue;
    const JsonNode& e = mix->arr[i];
    const JsonNode* svc = e.find("service");
    const std::string p =
        join(path, "mix") + "[" + std::to_string(i) + "]";
    const char* cap = "?";
    switch (sc.mix[i].service) {
      case ScenarioMixEntry::Service::kBlob: cap = "has_blobs"; break;
      case ScenarioMixEntry::Service::kQueue: cap = "has_queues"; break;
      case ScenarioMixEntry::Service::kTable: cap = "has_tables"; break;
      case ScenarioMixEntry::Service::kSql: cap = "has_sql"; break;
    }
    fail_at(svc != nullptr ? *svc : e, join(p, "service"),
            std::string("backend '") + backend_name(sc.backend) + "' has no " +
                service_name(sc.mix[i].service) + " service (capability " +
                cap + "=false) — drop the entry or pick a backend that "
                "serves it");
  }

  // The queue message cap is a hard service limit (48 KiB usable payload);
  // catching it at parse time gives a located diagnostic instead of a
  // mid-run InvalidArgumentError.
  constexpr std::int64_t kMaxQueuePayload = 49'152;
  const bool has_queue =
      std::any_of(sc.mix.begin(), sc.mix.end(), [](const ScenarioMixEntry& e) {
        return e.service == ScenarioMixEntry::Service::kQueue;
      });
  if (has_queue && sc.values.hi > kMaxQueuePayload) {
    const JsonNode* v = root.find("values");
    fail_at(v != nullptr ? *v : root, join(path, "values"),
            "queue messages cap at " + std::to_string(kMaxQueuePayload) +
                " bytes; lower the value size or drop the queue entries");
  }

  // Validate the key-generator config eagerly so the diagnostic points at
  // the spec, not at a KeyGen constructor throw deep inside the driver.
  try {
    KeyGen probe(sc.keys);
  } catch (const KeyGenError& e) {
    const JsonNode* n = root.find("keys");
    fail_at(n != nullptr ? *n : root, join(path, "keys"), e.what());
  }
  return sc;
}

Scenario load_scenario_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw ScenarioError(path, 0, 0, "cannot open spec file");
  }
  std::string text;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    text.append(buf, got);
  }
  std::fclose(f);
  try {
    return parse_scenario(text);
  } catch (ScenarioError& e) {
    // Re-anchor "<spec>" lexer errors on the file name for usability.
    if (e.path() == "<spec>") {
      throw ScenarioError(path, e.line(), e.col(), e.reason());
    }
    throw;
  }
}

}  // namespace framework
