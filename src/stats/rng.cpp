#include "stats/rng.hpp"

#include <random>
#include <stdexcept>

namespace abw::stats {

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

// The standard twist, word for word: the upper bit of one word and the
// lower 63 bits of the next, shifted right, xor the matrix constant when
// the shifted-out bit is set.  The select is a mask, -(y & 1) & a, not a
// branch, so no loop here branches on the data; GCC also vectorizes the
// first loop, whose far word lies ahead of k and is not yet twisted.
void Mt19937_64::refill() {
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  constexpr std::uint64_t kLower = ~kUpper;
  constexpr std::uint64_t kMatrix = 0xb5026f5aa96619e9ULL;
  auto twist = [](std::uint64_t cur, std::uint64_t next, std::uint64_t far) {
    const std::uint64_t y = (cur & kUpper) | (next & kLower);
    return far ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1)) & kMatrix);
  };
  std::size_t k = 0;
  for (; k < kN - kM; ++k)
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kM]);
  for (; k < kN - 1; ++k)
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kM - kN]);
  state_[kN - 1] = twist(state_[kN - 1], state_[0], state_[kM - 1]);
  index_ = 0;
}

void Rng::reject_exponential_mean() {
  throw std::invalid_argument("Rng::exponential: mean must be > 0");
}

double Rng::uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double Rng::pareto(double alpha, double xm) {
  if (!(alpha > 0.0) || !(xm > 0.0))
    throw std::invalid_argument("Rng::pareto: alpha and xm must be > 0");
  // Inverse-CDF method: X = xm / U^(1/alpha), U ~ Uniform(0,1].
  double u = 1.0 - uniform01();  // in (0, 1]
  return xm / std::pow(u, 1.0 / alpha);
}

double Rng::normal() {
  return std::normal_distribution<double>(0.0, 1.0)(engine_);
}

bool Rng::bernoulli(double p) {
  return std::bernoulli_distribution(p)(engine_);
}

Rng Rng::fork() {
  // Draw two words from the parent to seed the child; advances the parent
  // so successive forks are independent.
  std::uint64_t a = engine_();
  std::uint64_t b = engine_();
  return Rng(a ^ (b << 1) ^ 0x9e3779b97f4a7c15ULL);
}

}  // namespace abw::stats
