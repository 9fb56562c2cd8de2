// Deterministic random number generation for simulations.
//
// Every stochastic component in the library draws from an `abw::stats::Rng`
// seeded explicitly, so that each experiment is exactly reproducible.  The
// distributions offered here are the ones the paper's workloads need:
// uniform, exponential (Poisson processes), Pareto (heavy-tailed ON/OFF
// traffic), and normal (fGn synthesis).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace abw::stats {

/// MT19937-64.  Yields exactly std::mt19937_64's word sequence for every
/// seed (stats_test pins it), but refills its 312-word block without a
/// data-dependent branch: libstdc++'s twist selects the matrix constant
/// with `(y & 1) ? a : 0`, which compiles to a branch that mispredicts
/// about half the time.  A UniformRandomBitGenerator, so std
/// distributions run on it and draw the same values they draw from
/// std::mt19937_64.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  /// Seeds exactly as std::mt19937_64(seed) does.
  explicit Mt19937_64(result_type seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (index_ >= kN) [[unlikely]] refill();
    result_type z = state_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kN = 312;  // state words
  static constexpr std::size_t kM = 156;  // twist offset

  void refill();  // twists the whole block, rewinds index_

  std::array<std::uint64_t, kN> state_;
  std::size_t index_ = kN;
};

/// Maps a 64-bit word to [0, 1) bit-exactly as libstdc++'s
/// generate_canonical<double, 53> does over a 64-bit engine (what
/// uniform_real_distribution(0, 1) and exponential_distribution reduce
/// to): the word rounds to the nearest double, scales by 2^-64, and the
/// words within 2^10 of the top, which round up to exactly 1.0, clamp to
/// nextafter(1, 0).  The two 32-bit halves convert exactly and the one
/// add rounds to nearest, so the sum is the double static_cast<double>
/// gives, without the branch on the sign bit that conversion compiles
/// to.  stats_test (RngFastPathExact) checks the equality, ties included.
inline double canonical53(std::uint64_t raw) {
  const double d =
      static_cast<double>(static_cast<std::uint32_t>(raw >> 32)) * 0x1.0p32 +
      static_cast<double>(static_cast<std::uint32_t>(raw));
  return std::min(d * 0x1.0p-64, 0x1.fffffffffffffp-1);
}

/// A seedable pseudo-random generator with the distributions used across
/// the library, over Mt19937_64; copyable so generators can fork
/// deterministic sub-streams via `fork()`.
class Rng {
 public:
  /// Constructs a generator from an explicit 64-bit seed.
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform in [0, 1).  Bit-identical to
  /// std::uniform_real_distribution<double>(0, 1) on the same engine.
  double uniform01() { return canonical53(engine_()); }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential with the given mean (mean = 1/lambda).  mean must be > 0.
  /// Evaluates the expression std::exponential_distribution(1 / mean)
  /// does, including the division by lambda rather than a multiply by
  /// mean (the two round differently).
  double exponential(double mean) {
    if (!(mean > 0.0)) [[unlikely]] reject_exponential_mean();
    return -std::log(1.0 - canonical53(engine_())) / (1.0 / mean);
  }

  /// Pareto with shape `alpha` and scale (minimum value) `xm`:
  /// P(X > x) = (xm/x)^alpha for x >= xm.  For alpha <= 1 the mean is
  /// infinite; callers model heavy-tailed OFF periods with alpha in (1, 2).
  double pareto(double alpha, double xm);

  /// Standard normal (mean 0, stddev 1).
  double normal();

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Derives an independent deterministic child generator.  Used to give
  /// each traffic source its own stream while keeping one experiment seed.
  Rng fork();

  /// Direct access for std distributions that need an engine.
  Mt19937_64& engine() { return engine_; }

 private:
  [[noreturn]] static void reject_exponential_mean();

  Mt19937_64 engine_;
};

}  // namespace abw::stats
