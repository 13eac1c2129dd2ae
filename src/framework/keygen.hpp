// Key / offset generator toolkit for the scenario DSL (scenario.hpp), in
// the spirit of elbencho's toolkits/offsetgen and toolkits/random: every
// generator is a pure function of (config, seed, call index), so a scenario
// replay draws byte-identical key sequences on every platform.
//
//  * kUniform      — independent uniform draws over [0, space).
//  * kZipf         — Zipf(s) hot-key skew via Hörmann–Derflinger
//                    rejection-inversion: O(1) per draw, no per-key table,
//                    any s >= 0. s == 0 degenerates to *exactly* the uniform
//                    generator (one draw, no rejection loop) — an earlier
//                    draft fed s == 0 through the rejection path, which
//                    consumed a different number of RNG draws per key and
//                    broke replay parity against a uniform spec.
//  * kGoldenStride — deterministic full-coverage stride: key_i = (start +
//                    i * step) mod space with step the odd golden-ratio
//                    stride made coprime to space, so `space` consecutive
//                    draws visit every key exactly once, maximally spread.
//  * kCoverage     — random-aligned full coverage: a seeded 4-round Feistel
//                    permutation over the next power of two, cycle-walked
//                    down to [0, space) — every key exactly once per cycle,
//                    in pseudo-random order.
//
// Stride and coverage generators cycle: draw `space` keys and the sequence
// starts over (same permutation — the cycle is part of the contract).
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "simcore/random.hpp"

namespace framework {

/// Upper bound on the Zipf exponent: beyond it the hottest key takes
/// essentially all probability mass and the pow() terms underflow.
inline constexpr double kMaxZipfS = 16.0;

struct KeyGenConfig {
  enum class Kind { kUniform, kZipf, kGoldenStride, kCoverage };
  Kind kind = Kind::kUniform;

  /// Number of distinct keys; draws are in [0, space). Must be >= 1.
  std::uint64_t space = 1;

  /// Zipf exponent (kZipf only). 0 is the uniform boundary; must be finite,
  /// >= 0, and <= 16 (beyond that the hottest key takes essentially all
  /// probability mass and the pow() terms underflow).
  double zipf_s = 0.99;

  /// Seed of the generator's private RNG stream.
  std::uint64_t seed = 0x5EED;
};

/// Thrown by KeyGen on an invalid config. Scenario parsing re-wraps this
/// with the spec-file location.
class KeyGenError : public std::invalid_argument {
 public:
  explicit KeyGenError(const std::string& what)
      : std::invalid_argument(what) {}
};

class KeyGen {
 public:
  explicit KeyGen(const KeyGenConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {
    if (cfg.space < 1) {
      throw KeyGenError("keygen: space must be >= 1");
    }
    if (cfg.kind == KeyGenConfig::Kind::kZipf) {
      if (!std::isfinite(cfg.zipf_s) || cfg.zipf_s < 0 ||
          cfg.zipf_s > kMaxZipfS) {
        throw KeyGenError("keygen: zipf_s must be finite and in [0, 16]");
      }
      if (cfg.zipf_s > 0) setup_zipf();
    }
    if (cfg.kind == KeyGenConfig::Kind::kGoldenStride) setup_stride();
    if (cfg.kind == KeyGenConfig::Kind::kCoverage) setup_coverage();
  }

  const KeyGenConfig& config() const noexcept { return cfg_; }

  /// The next key in [0, space).
  std::uint64_t next() {
    switch (cfg_.kind) {
      case KeyGenConfig::Kind::kUniform:
        return draw_uniform();
      case KeyGenConfig::Kind::kZipf:
        // s == 0 is uniform by definition; route it through the exact
        // uniform path (one draw) rather than the rejection loop.
        return cfg_.zipf_s == 0 ? draw_uniform() : draw_zipf();
      case KeyGenConfig::Kind::kGoldenStride: {
        const std::uint64_t k =
            (stride_start_ + index_ % cfg_.space * stride_step_) % cfg_.space;
        ++index_;
        return k;
      }
      case KeyGenConfig::Kind::kCoverage:
        return draw_coverage();
    }
    return 0;  // unreachable
  }

 private:
  std::uint64_t draw_uniform() {
    return static_cast<std::uint64_t>(
        rng_.uniform(0, static_cast<std::int64_t>(cfg_.space) - 1));
  }

  // ----------------------------------------------------------------- zipf --
  // Rejection-inversion (Hörmann & Derflinger 1996) for Zipf on {1..n},
  // exponent q > 0, in the Apache Commons RejectionInversionZipfSampler
  // formulation: H is the antiderivative of the envelope h(x) = x^-q
  // anchored at H(1) = 0, u is inverted through H, and a candidate is
  // accepted either inside the always-accept band (k - x <= cut) or by the
  // exact-mass test. All constants precomputed at construction.
  void setup_zipf() {
    const double n = static_cast<double>(cfg_.space);
    const double q = cfg_.zipf_s;
    zipf_hx1_ = zipf_h(1.5) - 1.0;
    zipf_hn_ = zipf_h(n + 0.5);
    zipf_cut_ = 2.0 - zipf_hinv(zipf_h(2.5) - std::pow(2.0, -q));
  }

  double zipf_h(double x) const {
    const double q = cfg_.zipf_s;
    return q == 1.0 ? std::log(x)
                    : (std::pow(x, 1.0 - q) - 1.0) / (1.0 - q);
  }
  double zipf_hinv(double x) const {
    const double q = cfg_.zipf_s;
    return q == 1.0 ? std::exp(x)
                    : std::pow(1.0 + (1.0 - q) * x, 1.0 / (1.0 - q));
  }

  std::uint64_t draw_zipf() {
    const double n = static_cast<double>(cfg_.space);
    const double q = cfg_.zipf_s;
    for (;;) {
      const double u = zipf_hn_ + rng_.next_double() * (zipf_hx1_ - zipf_hn_);
      const double x = zipf_hinv(u);
      double k = std::floor(x + 0.5);
      if (k < 1.0) k = 1.0;
      if (k > n) k = n;
      if (k - x <= zipf_cut_ ||
          u >= zipf_h(k + 0.5) - std::pow(k, -q)) {
        return static_cast<std::uint64_t>(k) - 1;  // 0-based
      }
    }
  }

  // --------------------------------------------------------------- stride --
  void setup_stride() {
    // Odd stride nearest to space / golden ratio, bumped until coprime with
    // space (gcd 1 guarantees full coverage in `space` steps).
    const double phi = 0.6180339887498949;
    std::uint64_t step =
        static_cast<std::uint64_t>(static_cast<double>(cfg_.space) * phi);
    if (step < 1) step = 1;
    step |= 1;
    while (gcd(step, cfg_.space) != 1) step += 2;
    stride_step_ = step % cfg_.space;  // space == 1 => step 0, constant key
    stride_start_ = rng_.next_u64() % cfg_.space;
  }

  static std::uint64_t gcd(std::uint64_t a, std::uint64_t b) noexcept {
    while (b != 0) {
      const std::uint64_t t = a % b;
      a = b;
      b = t;
    }
    return a;
  }

  // ------------------------------------------------------------- coverage --
  // Seeded Feistel network over 2*half_bits_ bits (the next even-width power
  // of two >= space), cycle-walked: indices permute within [0, 2^w); values
  // >= space are re-fed through the permutation until one lands in range.
  // Expected walk length < 2 because 2^w < 2 * space... within a factor of
  // 4 for odd widths; still O(1) amortized.
  void setup_coverage() {
    int bits = 1;
    while ((std::uint64_t{1} << bits) < cfg_.space && bits < 62) ++bits;
    if (bits % 2 != 0) ++bits;  // even width so halves are equal
    half_bits_ = bits / 2;
    half_mask_ = (std::uint64_t{1} << half_bits_) - 1;
    for (auto& k : feistel_keys_) k = rng_.next_u64();
  }

  std::uint64_t permute(std::uint64_t x) const noexcept {
    std::uint64_t left = (x >> half_bits_) & half_mask_;
    std::uint64_t right = x & half_mask_;
    for (const std::uint64_t key : feistel_keys_) {
      const std::uint64_t f = sim::mix64(right ^ key) & half_mask_;
      const std::uint64_t next_left = right;
      right = left ^ f;
      left = next_left;
    }
    return (left << half_bits_) | right;
  }

  std::uint64_t draw_coverage() {
    // Cycle-walk: starting from an in-range index, apply the big-domain
    // permutation until the image lands back in [0, space). The restricted
    // map is itself a permutation of [0, space) (the standard
    // format-preserving-encryption argument), so `space` consecutive draws
    // visit every key exactly once.
    std::uint64_t v = permute(index_);
    index_ = (index_ + 1) % cfg_.space;
    while (v >= cfg_.space) v = permute(v);
    return v;
  }

  KeyGenConfig cfg_;
  sim::Random rng_;

  // zipf constants
  double zipf_hx1_ = 0, zipf_hn_ = 0, zipf_cut_ = 0;
  // stride state
  std::uint64_t stride_step_ = 1, stride_start_ = 0;
  // coverage state
  int half_bits_ = 1;
  std::uint64_t half_mask_ = 1;
  std::uint64_t feistel_keys_[4] = {0, 0, 0, 0};
  // call index for the deterministic (stride / coverage) generators
  std::uint64_t index_ = 0;
};

}  // namespace framework
