// Differential tests: poi360::Rng reproduces libstdc++'s random stream bit
// for bit. Every comparison is on the exact bits of the result; a model or
// bench number moves if any of these does.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "poi360/common/rng.h"
#include "poi360/runner/experiment_spec.h"

namespace poi360 {
namespace {

constexpr int kDraws = 100'000;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// The seeds every stream test runs on: edge values plus the repeat seeds
// the experiment runner hands to sessions.
std::vector<std::uint64_t> stream_seeds() {
  std::vector<std::uint64_t> seeds = {0, 1, 7, ~std::uint64_t{0}};
  for (int r = 0; r < 10; ++r) {
    seeds.push_back(runner::derive_seed(1, r));
    seeds.push_back(runner::derive_seed(777, r));
  }
  return seeds;
}

TEST(RngDifferential, EngineMatchesStdMt19937_64) {
  const auto seeds = stream_seeds();
  ASSERT_EQ(seeds.size(), 24u);
  for (const std::uint64_t seed : seeds) {
    Mt19937_64 got(seed);
    std::mt19937_64 want(seed);
    for (int i = 0; i < 6 * 312 + 1; ++i) {  // six twists and one word
      ASSERT_EQ(got(), want()) << "seed " << seed << " word " << i;
    }
  }
}

// Returns a fixed word, so generate_canonical's conversion is probed at
// chosen points (rounding ties, the top of the range).
struct StubEngine {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type word;
  result_type operator()() { return word; }
};

TEST(RngDifferential, CanonicalMatchesGenerateCanonical) {
  const std::uint64_t top = ~std::uint64_t{0};
  const std::uint64_t words[] = {
      0,
      1,
      (std::uint64_t{1} << 53) - 1,
      (std::uint64_t{1} << 53) + 1,  // tie, rounds to even
      (std::uint64_t{1} << 53) + 3,  // tie, rounds up
      std::uint64_t{1} << 63,
      (std::uint64_t{1} << 63) + 1024,  // tie at the top binade
      top - (std::uint64_t{1} << 11),   // largest double below 2^64
      top - (std::uint64_t{1} << 10),   // tie, rounds up to 2^64
      top,                              // rounds to 2^64: clamped below 1
  };
  for (const std::uint64_t w : words) {
    StubEngine got_engine{w};
    StubEngine want_engine{w};
    const double got = canonical(got_engine);
    const double want = std::generate_canonical<double, 53>(want_engine);
    EXPECT_EQ(bits(got), bits(want)) << "word " << w;
    EXPECT_LT(got, 1.0) << "word " << w;
  }
  StubEngine max_engine{top};
  EXPECT_EQ(bits(canonical(max_engine)), bits(std::nextafter(1.0, 0.0)));

  // Random words, and random words with the low bits forced to the
  // rounding boundary of each binade.
  std::mt19937_64 words_rng(99);
  for (int i = 0; i < kDraws; ++i) {
    std::uint64_t w = words_rng();
    if (i % 2) w = (w & ~std::uint64_t{0x7ff}) | 0x400;
    StubEngine got_engine{w};
    StubEngine want_engine{w};
    ASSERT_EQ(bits(canonical(got_engine)),
              bits(std::generate_canonical<double, 53>(want_engine)))
        << "word " << w;
  }
}

// Runs `draw` on an Rng and `want` on a parallel std::mt19937_64 with the
// same seed, kDraws times per seed, comparing bits.
template <typename Draw, typename Want>
void expect_same_stream(Draw draw, Want want) {
  for (const std::uint64_t seed : {std::uint64_t{1}, runner::derive_seed(7, 3),
                                   ~std::uint64_t{0}}) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < kDraws; ++i) {
      ASSERT_EQ(bits(draw(rng, i)), bits(want(ref, i)))
          << "seed " << seed << " draw " << i;
    }
    // Both consumed the same number of engine words.
    ASSERT_EQ(rng.engine()(), ref()) << "seed " << seed;
  }
}

TEST(RngDifferential, NormalMatchesStdNormalDistribution) {
  const double means[] = {0.0, -3.5, 120.0};
  const double stddevs[] = {1.0, 0.25, 4000.0, 1e-9};
  expect_same_stream(
      [&](Rng& r, int i) { return r.normal(means[i % 3], stddevs[i % 4]); },
      [&](std::mt19937_64& g, int i) {
        return std::normal_distribution<double>(means[i % 3],
                                                stddevs[i % 4])(g);
      });
}

TEST(RngDifferential, ExponentialMatchesStdExponentialDistribution) {
  const double means[] = {1.0, 0.03, 45.0, 7200.0};
  expect_same_stream(
      [&](Rng& r, int i) { return r.exponential(means[i % 4]); },
      [&](std::mt19937_64& g, int i) {
        return std::exponential_distribution<double>(1.0 / means[i % 4])(g);
      });
}

TEST(RngDifferential, BernoulliMatchesStdBernoulliDistribution) {
  // p strictly inside (0, 1): at the clamped ends Rng draws nothing.
  const double ps[] = {0.5, 1e-6, 0.02, 0.999999, 0.3};
  expect_same_stream(
      [&](Rng& r, int i) { return r.bernoulli(ps[i % 5]) ? 1.0 : 0.0; },
      [&](std::mt19937_64& g, int i) {
        return std::bernoulli_distribution(ps[i % 5])(g) ? 1.0 : 0.0;
      });
}

TEST(RngDifferential, UniformMatchesStdUniformRealDistribution) {
  const double los[] = {0.0, -1.0, 1e6, -0.5};
  const double his[] = {1.0, 1.0, 1e6 + 3.0, 0.5};
  expect_same_stream(
      [&](Rng& r, int i) { return r.uniform(los[i % 4], his[i % 4]); },
      [&](std::mt19937_64& g, int i) {
        return std::uniform_real_distribution<double>(los[i % 4],
                                                      his[i % 4])(g);
      });
}

TEST(RngDifferential, UniformIntMatchesStdUniformIntDistribution) {
  const std::int64_t his[] = {1, 6, 1'000'000, std::int64_t{1} << 40};
  expect_same_stream(
      [&](Rng& r, int i) {
        return static_cast<double>(r.uniform_int(-3, his[i % 4]));
      },
      [&](std::mt19937_64& g, int i) {
        return static_cast<double>(
            std::uniform_int_distribution<std::int64_t>(-3, his[i % 4])(g));
      });
}

// The fork recipe (SplitMix64 over one parent word) rebuilt on std::.
std::mt19937_64 std_fork(std::mt19937_64& parent, std::uint64_t salt) {
  std::uint64_t x = parent() + salt * 0x9E3779B97F4A7C15ull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return std::mt19937_64(x);
}

TEST(RngDifferential, ForkMatchesStdStream) {
  expect_same_stream(
      [](Rng& r, int i) {
        Rng child = r.fork(static_cast<std::uint64_t>(i));
        return child.normal(0.0, 1.0) + child.uniform(0.0, 1.0);
      },
      [](std::mt19937_64& g, int i) {
        std::mt19937_64 child = std_fork(g, static_cast<std::uint64_t>(i));
        const double n = std::normal_distribution<double>(0.0, 1.0)(child);
        return n + std::uniform_real_distribution<double>(0.0, 1.0)(child);
      });
}

// Every method interleaved in one stream, in a pseudo-random order, the way
// simulator components share an Rng.
TEST(RngDifferential, InterleavedMethodsMatchStd) {
  std::mt19937 order(5);
  std::vector<int> ops(kDraws);
  for (int& op : ops) op = static_cast<int>(order() % 6);
  expect_same_stream(
      [&](Rng& r, int i) -> double {
        switch (ops[static_cast<std::size_t>(i)]) {
          case 0: return r.normal(1.0, 2.0);
          case 1: return r.exponential(0.5);
          case 2: return r.bernoulli(0.25) ? 1.0 : 0.0;
          case 3: return r.uniform(-2.0, 2.0);
          case 4: return static_cast<double>(r.uniform_int(0, 9));
          default: return static_cast<double>(r.engine()() >> 11);
        }
      },
      [&](std::mt19937_64& g, int i) -> double {
        switch (ops[static_cast<std::size_t>(i)]) {
          case 0: return std::normal_distribution<double>(1.0, 2.0)(g);
          case 1: return std::exponential_distribution<double>(2.0)(g);
          case 2: return std::bernoulli_distribution(0.25)(g) ? 1.0 : 0.0;
          case 3: return std::uniform_real_distribution<double>(-2.0, 2.0)(g);
          case 4:
            return static_cast<double>(
                std::uniform_int_distribution<std::int64_t>(0, 9)(g));
          default: return static_cast<double>(g() >> 11);
        }
      });
}

}  // namespace
}  // namespace poi360
