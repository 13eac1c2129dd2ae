// Deterministic pseudo-random source for simulated processes.
//
// xoshiro256** seeded via splitmix64 — fast, high quality, and identical on
// every platform (unlike std:: distributions, whose output is
// implementation-defined). All distribution helpers here are hand-rolled so
// runs are bit-reproducible.
#pragma once

#include <cmath>
#include <cstdint>

namespace sim {

/// splitmix64's output function: a bijective 64-bit mixer.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Output `k` (0-based) of splitmix64 started from state `seed`: a seed for
/// stream `k` that is a pure function of (seed, k).
constexpr std::uint64_t stream_seed(std::uint64_t seed,
                                    std::uint64_t k) noexcept {
  return mix64(seed + 0x9E3779B97F4A7C15ull * (k + 1));
}

class Random {
 public:
  explicit Random(std::uint64_t seed = 0x9E3779B97F4A7C15ull) {
    // splitmix64 to spread the seed across all 256 bits of state.
    for (std::uint64_t k = 0; k < 4; ++k) state_[k] = stream_seed(seed, k);
  }

  /// Uniform 64-bit value.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) noexcept {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    // Lemire's multiply-shift bounded generation (tiny bias is irrelevant
    // at simulation scale and keeps the generator branch-free).
    const unsigned __int128 m =
        static_cast<unsigned __int128>(next_u64()) * span;
    return lo + static_cast<std::int64_t>(m >> 64);
  }

  /// True with probability `p` (one draw; p <= 0 never, p >= 1 always).
  bool bernoulli(double p) noexcept { return next_double() < p; }

  /// Exponentially distributed value with the given mean.
  double exponential(double mean) noexcept {
    double u = next_double();
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
  }

  /// Normally distributed value (Box–Muller, one value per call).
  double normal(double mean, double stddev) noexcept {
    double u1 = next_double();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double u2 = next_double();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * mag * std::cos(6.28318530717958647692 * u2);
  }

  /// Forks an independent stream (for per-process determinism).
  Random fork() noexcept { return Random(next_u64()); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4];
};

}  // namespace sim
