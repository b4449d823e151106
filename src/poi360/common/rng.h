#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <random>

namespace poi360 {

/// MT19937-64 with the seeding, twist and tempering of `std::mt19937_64`:
/// for the same seed it yields the same 64-bit words. The twist selects the
/// matrix term with a mask instead of libstdc++'s `(y & 1) ? A : 0`, a
/// branch that mispredicts on about half of the 312 words of every twist.
/// Models UniformRandomBitGenerator, so it plugs into `std::` distributions.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      const result_type x = state_[i - 1];
      state_[i] = 6364136223846793005ull * (x ^ (x >> 62)) + i;
    }
  }

  result_type operator()() {
    if (index_ >= kN) twist();
    result_type z = state_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr result_type kUpper = ~result_type{0} << 31;
  static constexpr result_type kLower = ~kUpper;
  static constexpr result_type kMatrix = 0xb5026f5aa96619e9ull;

  static result_type mix(result_type hi, result_type lo, result_type far) {
    const result_type y = (hi & kUpper) | (lo & kLower);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
  }

  void twist() {
    std::size_t k = 0;
    for (; k < kN - kM; ++k) {
      state_[k] = mix(state_[k], state_[k + 1], state_[k + kM]);
    }
    for (; k < kN - 1; ++k) {
      state_[k] = mix(state_[k], state_[k + 1], state_[k + kM - kN]);
    }
    state_[kN - 1] = mix(state_[kN - 1], state_[0], state_[kM - 1]);
    index_ = 0;
  }

  std::array<result_type, kN> state_{};
  std::size_t index_ = kN;
};

/// Uniform double in [0, 1) from one word of `g`, equal to
/// `std::generate_canonical<double, 53>(g)` for a full 64-bit generator: the
/// word converted to double (rounded once) and scaled by 2^-64, clamped below
/// 1. The word is split into two 32-bit halves, each converted exactly, so
/// the conversion needs no sign test; their sum rounds exactly as
/// `static_cast<double>(u)` does.
template <typename Generator>
double canonical(Generator& g) {
  const std::uint64_t u = g();
  const double v = (static_cast<double>(u >> 32) * 4294967296.0 +
                    static_cast<double>(static_cast<std::uint32_t>(u))) *
                   0x1p-64;
  if (v >= 1.0) [[unlikely]] {
    return std::nextafter(1.0, 0.0);
  }
  return v;
}

/// Deterministic random source used across the simulator.
///
/// Every stochastic component takes an explicit Rng (or a seed) so that each
/// experiment run is exactly reproducible, and so that independent components
/// can use decorrelated streams (see `fork`).
///
/// The stream is libstdc++'s: `std::mt19937_64`, `std::generate_canonical`
/// and the `std::` distributions' formulas, reproduced bit for bit (DESIGN.md
/// §8.4). Only `uniform_int` still defers to the C++ library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1) from one engine word (see poi360::canonical).
  double canonical() { return poi360::canonical(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return canonical() * (hi - lo) + lo; }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Gaussian with the given mean and standard deviation (Marsaglia polar
  /// method). Each pair yields one value; the other is discarded, as a
  /// freshly built `std::normal_distribution` discards it.
  double normal(double mean, double stddev) {
    double x = 0.0;
    double y = 0.0;
    double r2 = 0.0;
    do {
      x = 2.0 * canonical() - 1.0;
      y = 2.0 * canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
    return y * mult * stddev + mean;
  }

  /// Exponential with the given mean (mean must be > 0).
  double exponential(double mean) {
    return -std::log(1.0 - canonical()) / (1.0 / mean);
  }

  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return canonical() < p;
  }

  /// Derives an independent stream; deterministic in (parent seed, salt).
  Rng fork(std::uint64_t salt) {
    // SplitMix64 finalizer over a fresh draw keeps forks decorrelated even
    // for adjacent salts.
    std::uint64_t x = engine_() + salt * 0x9E3779B97F4A7C15ull;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return Rng(x);
  }

  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace poi360
