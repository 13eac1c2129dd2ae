// Strict numeric parsing, shared by the bench binaries, the chaos harness,
// hostbench and the example programs, and parse_flags, the one
// command-line flag parser of the bench binaries and the chaos harness.
// Deliberately dependency-free (no simulator headers) so tests and
// examples can include just this.
//
// The contract for every parser here: the WHOLE token must parse (no
// trailing junk), empty input is an error, overflow is an error, and
// doubles must additionally be finite — never the atoi/atof/unchecked-stod
// behaviour of turning "abc" into 0 or "1e999" into inf.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

namespace benchutil {

/// Typed usage error: names the flag, the offending text, and the reason.
class UsageError : public std::runtime_error {
 public:
  UsageError(std::string flag, std::string value, std::string reason)
      : std::runtime_error(flag + "=" + value + ": " + reason),
        flag_(std::move(flag)),
        value_(std::move(value)),
        reason_(std::move(reason)) {}

  const std::string& flag() const noexcept { return flag_; }
  const std::string& value() const noexcept { return value_; }
  const std::string& reason() const noexcept { return reason_; }

 private:
  std::string flag_, value_, reason_;
};

enum class IntParse { kOk, kEmpty, kBadDigit, kTrailingJunk, kOverflow };

/// Strict full-string integer parse (optional leading '-', decimal only).
inline IntParse parse_int(std::string_view text, std::int64_t& out) {
  if (text.empty()) return IntParse::kEmpty;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec == std::errc::result_out_of_range) return IntParse::kOverflow;
  if (ec != std::errc{}) return IntParse::kBadDigit;
  if (ptr != last) return IntParse::kTrailingJunk;
  return IntParse::kOk;
}

/// Strict full-string unsigned 64-bit parse (decimal only, no sign) — for
/// seed-valued flags whose range exceeds int64.
inline IntParse parse_uint64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return IntParse::kEmpty;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec == std::errc::result_out_of_range) return IntParse::kOverflow;
  if (ec != std::errc{}) return IntParse::kBadDigit;
  if (ptr != last) return IntParse::kTrailingJunk;
  return IntParse::kOk;
}

enum class DoubleParse { kOk, kEmpty, kBadDigit, kTrailingJunk, kNotFinite };

/// Strict full-string double parse. The entire token must be consumed and
/// the result must be finite ("nan", "inf", and overflowing exponents are
/// all errors — a rate or probability of inf is never what the user meant).
inline DoubleParse parse_double(std::string_view text, double& out) {
  if (text.empty()) return DoubleParse::kEmpty;
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec == std::errc::result_out_of_range) return DoubleParse::kNotFinite;
  if (ec != std::errc{}) return DoubleParse::kBadDigit;
  if (ptr != last) return DoubleParse::kTrailingJunk;
#else
  // Fallback: strtod on a NUL-terminated copy, full-consumption enforced.
  const std::string copy(text);
  char* end = nullptr;
  out = std::strtod(copy.c_str(), &end);
  if (end == copy.c_str()) return DoubleParse::kBadDigit;
  if (end != copy.c_str() + copy.size()) return DoubleParse::kTrailingJunk;
#endif
  if (!std::isfinite(out)) return DoubleParse::kNotFinite;
  return DoubleParse::kOk;
}

/// parse_int with the failure modes rendered as UsageError — the shared
/// "one flag value, or die with a message naming it" helper.
inline std::int64_t require_int(const char* flag, std::string_view text) {
  std::int64_t value = 0;
  switch (parse_int(text, value)) {
    case IntParse::kEmpty:
      throw UsageError(flag, std::string(text),
                       "expected an integer, got an empty value");
    case IntParse::kBadDigit:
    case IntParse::kTrailingJunk:
      throw UsageError(flag, std::string(text),
                       "expected an integer, got non-numeric text");
    case IntParse::kOverflow:
      throw UsageError(flag, std::string(text),
                       "value does not fit in a 64-bit integer");
    case IntParse::kOk:
      break;
  }
  return value;
}

/// parse_uint64 rendered as UsageError.
inline std::uint64_t require_uint64(const char* flag, std::string_view text) {
  std::uint64_t value = 0;
  switch (parse_uint64(text, value)) {
    case IntParse::kEmpty:
      throw UsageError(flag, std::string(text),
                       "expected an unsigned integer, got an empty value");
    case IntParse::kBadDigit:
    case IntParse::kTrailingJunk:
      throw UsageError(flag, std::string(text),
                       "expected an unsigned integer, got non-numeric text");
    case IntParse::kOverflow:
      throw UsageError(flag, std::string(text),
                       "value does not fit in an unsigned 64-bit integer");
    case IntParse::kOk:
      break;
  }
  return value;
}

/// parse_double rendered as UsageError.
inline double require_double(const char* flag, std::string_view text) {
  double value = 0;
  switch (parse_double(text, value)) {
    case DoubleParse::kEmpty:
      throw UsageError(flag, std::string(text),
                       "expected a number, got an empty value");
    case DoubleParse::kBadDigit:
    case DoubleParse::kTrailingJunk:
      throw UsageError(flag, std::string(text),
                       "expected a number, got non-numeric text");
    case DoubleParse::kNotFinite:
      throw UsageError(flag, std::string(text),
                       "value must be a finite number");
    case DoubleParse::kOk:
      break;
  }
  return value;
}

/// One declared command-line flag: its name, the variable an explicit value
/// is written to (a bool* makes it a bare switch), one line of --help text,
/// and the bounds an explicit integer or double value must lie in. Integer
/// bounds are held as doubles, which is exact up to 2^53.
struct Flag {
  const char* name;
  std::variant<bool*, std::int64_t*, std::uint64_t*, double*, std::string*>
      out;
  const char* help;
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
};

/// Renders a bound compactly ("1000000", "0.001", "inf").
inline std::string fmt_bound(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  return buf;
}

/// Reads argv against the declared `flags` in one pass. Switches are bare
/// (`--csv`); value flags take `--name=V` or `--name V`, where a V that
/// starts with `--` is taken for the next flag, so the value is missing.
/// Values parse strictly and explicit values must lie in [min, max]; a
/// flag left off the command line keeps its variable's initial value
/// unchecked, so a sentinel default (0 = "pick by preset") works. When a
/// flag repeats, every occurrence must parse and the first one wins.
/// Throws UsageError on an unknown flag, a positional argument, a missing
/// value or a switch given a value. Returns true when `--help` was given.
inline bool parse_flags_checked(int argc, char** argv,
                                std::initializer_list<Flag> flags) {
  std::vector<bool> seen(flags.size());
  bool help = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    const std::size_t eq = arg.find('=');
    const std::string name(arg.substr(0, eq));
    const bool has_value = eq != std::string_view::npos;
    std::string value(has_value ? arg.substr(eq + 1) : "");
    if (!arg.starts_with("--")) {
      throw UsageError(name, value, "unexpected positional argument");
    }
    if (name == "--help") {
      if (has_value) throw UsageError(name, value, "switch takes no value");
      help = true;
      continue;
    }
    const Flag* f = std::find_if(flags.begin(), flags.end(),
                                 [&](const Flag& g) { return name == g.name; });
    if (f == flags.end()) throw UsageError(name, value, "unknown flag");
    if (std::holds_alternative<bool*>(f->out)) {
      if (has_value) throw UsageError(name, value, "switch takes no value");
    } else if (!has_value) {
      if (i + 1 == argc || std::string_view(argv[i + 1]).starts_with("--")) {
        throw UsageError(name, "", "missing value");
      }
      value = argv[++i];
    }
    const auto k = static_cast<std::size_t>(f - flags.begin());
    const bool first = !seen[k];
    seen[k] = true;
    std::visit(
        [&](auto* out) {
          using T = std::remove_pointer_t<decltype(out)>;
          T v{};
          if constexpr (std::is_same_v<T, bool>) {
            v = true;
          } else if constexpr (std::is_same_v<T, std::string>) {
            v = value;
          } else if constexpr (std::is_same_v<T, std::int64_t>) {
            v = require_int(f->name, value);
          } else if constexpr (std::is_same_v<T, std::uint64_t>) {
            v = require_uint64(f->name, value);
          } else {
            v = require_double(f->name, value);
          }
          if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
            if (static_cast<double>(v) < f->min ||
                static_cast<double>(v) > f->max) {
              throw UsageError(f->name, value,
                               "value out of range [" + fmt_bound(f->min) +
                                   ", " + fmt_bound(f->max) + "]");
            }
          }
          if (first) *out = std::move(v);
        },
        f->out);
  }
  return help;
}

/// The flag table as --help prints it: one line per flag with its value
/// placeholder, help text and bounds.
inline void print_flag_help(const char* prog,
                            std::initializer_list<Flag> flags) {
  const char* slash = std::strrchr(prog, '/');
  std::printf("usage: %s [flags]\n", slash != nullptr ? slash + 1 : prog);
  for (const Flag& f : flags) {
    static constexpr const char* kPlaceholder[] = {"", "=N", "=N", "=X",
                                                   "=VALUE"};
    const std::string name = f.name + std::string(kPlaceholder[f.out.index()]);
    std::string range;
    if (std::isfinite(f.min) || std::isfinite(f.max)) {
      range = " [" + fmt_bound(f.min) + ", " + fmt_bound(f.max) + "]";
    }
    std::printf("  %-18s %s%s\n", name.c_str(), f.help, range.c_str());
  }
  std::printf("  %-18s %s\n", "--help", "print this help and exit");
  std::printf(
      "Value flags take --name=V or --name V; the first occurrence wins.\n"
      "Anything else is a usage error (exit 2).\n");
}

/// parse_flags_checked for main(): on --help prints the flag table to
/// stdout and exits 0; on bad input prints "usage error: ..." to stderr and
/// exits 2.
inline void parse_flags(int argc, char** argv,
                        std::initializer_list<Flag> flags) {
  try {
    if (!parse_flags_checked(argc, argv, flags)) return;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "usage error: %s\n", e.what());
    std::exit(2);
  }
  print_flag_help(argv[0], flags);
  std::exit(0);
}

}  // namespace benchutil
