// Tests for the KS goodness-of-fit machinery, then its application:
// distributional validation of every stochastic generator in the library.
// A Poisson source's interarrivals must be *distributionally* exponential,
// a Pareto-gap source's gaps Pareto — not merely match a mean.
// (Mis-shaped generators would silently distort every burstiness
// experiment in the paper.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <vector>

#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"
#include "traffic/pareto_gaps.hpp"
#include "traffic/poisson.hpp"

namespace {

using namespace abw;
using abw::sim::kSecond;

// ------------------------------------ one-sample Kolmogorov-Smirnov test ---

/// A cumulative distribution function F(x) in [0, 1].
using CdfFn = std::function<double(double)>;

/// KS statistic D_n = sup_x |F_empirical(x) - F(x)| for the sample
/// against the hypothesized CDF.  Throws std::invalid_argument on an
/// empty sample.
double ks_statistic(std::vector<double> sample, const CdfFn& cdf) {
  if (sample.empty()) throw std::invalid_argument("ks_statistic: empty sample");
  std::sort(sample.begin(), sample.end());
  double n = static_cast<double>(sample.size());
  double d = 0.0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    double f = cdf(sample[i]);
    double lo = static_cast<double>(i) / n;        // F_emp just below x_i
    double hi = static_cast<double>(i + 1) / n;    // F_emp at x_i
    d = std::max({d, std::abs(f - lo), std::abs(f - hi)});
  }
  return d;
}

/// Asymptotic p-value for D_n via the Kolmogorov distribution series
/// Q(lambda) = 2 sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2) with
/// lambda = D_n (sqrt(n) + 0.12 + 0.11/sqrt(n)).
double ks_pvalue(double d, std::size_t n) {
  if (d <= 0.0) return 1.0;
  double sqrt_n = std::sqrt(static_cast<double>(n));
  double lambda = d * (sqrt_n + 0.12 + 0.11 / sqrt_n);
  double sum = 0.0;
  for (int k = 1; k <= 100; ++k) {
    double term = std::exp(-2.0 * k * k * lambda * lambda);
    sum += (k % 2 == 1 ? term : -term);
    if (term < 1e-12) break;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}

/// True when the sample is consistent with the CDF at the given
/// significance level (default 1%).
bool ks_fits(std::vector<double> sample, const CdfFn& cdf, double alpha = 0.01) {
  std::size_t n = sample.size();
  double d = ks_statistic(std::move(sample), cdf);
  return ks_pvalue(d, n) > alpha;
}

// CDFs of the distributions the generators use.
CdfFn exponential_cdf(double mean) {
  if (mean <= 0.0) throw std::invalid_argument("exponential_cdf: mean must be > 0");
  return [mean](double x) { return x <= 0.0 ? 0.0 : 1.0 - std::exp(-x / mean); };
}

CdfFn pareto_cdf(double shape, double scale) {
  if (shape <= 0.0 || scale <= 0.0)
    throw std::invalid_argument("pareto_cdf: shape and scale must be > 0");
  return [shape, scale](double x) {
    return x <= scale ? 0.0 : 1.0 - std::pow(scale / x, shape);
  };
}

CdfFn uniform_cdf(double lo, double hi) {
  if (!(lo < hi)) throw std::invalid_argument("uniform_cdf: need lo < hi");
  return [lo, hi](double x) {
    if (x <= lo) return 0.0;
    if (x >= hi) return 1.0;
    return (x - lo) / (hi - lo);
  };
}

// ----------------------------------------------------------- machinery ---

TEST(KsTest, PerfectFitHasHighPvalue) {
  // Deterministic quantile sample of the uniform: the best possible fit.
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back((i + 0.5) / 1000.0);
  double d = ks_statistic(xs, uniform_cdf(0, 1));
  EXPECT_LT(d, 0.002);
  EXPECT_GT(ks_pvalue(d, xs.size()), 0.99);
}

TEST(KsTest, ExponentialSampleFitsExponential) {
  stats::Rng rng(1);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.exponential(2.0));
  EXPECT_TRUE(ks_fits(xs, exponential_cdf(2.0)));
}

TEST(KsTest, ExponentialSampleRejectsWrongMean) {
  stats::Rng rng(2);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.exponential(2.0));
  EXPECT_FALSE(ks_fits(xs, exponential_cdf(3.0)));
}

TEST(KsTest, ParetoSampleFitsPareto) {
  stats::Rng rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.pareto(1.5, 2.0));
  EXPECT_TRUE(ks_fits(xs, pareto_cdf(1.5, 2.0)));
  EXPECT_FALSE(ks_fits(xs, exponential_cdf(6.0)));
}

TEST(KsTest, NormalSampleRejectsUniform) {
  stats::Rng rng(4);
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) xs.push_back(rng.normal());
  EXPECT_FALSE(ks_fits(xs, uniform_cdf(-3, 3)));
}

TEST(KsTest, PvalueMonotoneInStatistic) {
  EXPECT_GT(ks_pvalue(0.01, 1000), ks_pvalue(0.05, 1000));
  EXPECT_GT(ks_pvalue(0.05, 100), ks_pvalue(0.05, 10000));
  EXPECT_DOUBLE_EQ(ks_pvalue(0.0, 100), 1.0);
}

TEST(KsTest, RejectsDegenerateInputs) {
  EXPECT_THROW(ks_statistic({}, uniform_cdf(0, 1)),
               std::invalid_argument);
  EXPECT_THROW(exponential_cdf(0.0), std::invalid_argument);
  EXPECT_THROW(pareto_cdf(1.5, 0.0), std::invalid_argument);
  EXPECT_THROW(uniform_cdf(1.0, 1.0), std::invalid_argument);
}

// ------------------------------------------- generator distributions ---

struct TapFixture {
  sim::Simulator simu;
  sim::Path path;
  sim::CountingSink sink;
  std::vector<double> gaps;
  sim::SimTime last = -1;

  TapFixture() : path(simu, {make_cfg()}) {
    path.set_receiver(&sink);
    path.link(0).set_arrival_tap([this](const sim::Packet&, sim::SimTime t) {
      if (last >= 0) gaps.push_back(sim::to_seconds(t - last));
      last = t;
    });
  }
  static sim::LinkConfig make_cfg() {
    sim::LinkConfig cfg;
    cfg.capacity_bps = 1e9;
    cfg.queue_limit_bytes = 64 << 20;
    return cfg;
  }
};

TEST(GeneratorDistribution, PoissonGapsPassKsAgainstExponential) {
  TapFixture f;
  traffic::PoissonGenerator g(f.simu, f.path, 0, false, 1, stats::Rng(5), 25e6,
                              traffic::SizeDistribution::fixed(1500));
  g.start(0, 30 * kSecond);
  f.simu.run_until(30 * kSecond);
  ASSERT_GT(f.gaps.size(), 5000u);
  double mean_gap = 1500.0 * 8.0 / 25e6;
  EXPECT_TRUE(ks_fits(f.gaps, exponential_cdf(mean_gap)));
}

TEST(GeneratorDistribution, ParetoGapsPassKsAgainstPareto) {
  TapFixture f;
  constexpr double kShape = 1.9, kRate = 25e6;
  traffic::ParetoGapGenerator g(f.simu, f.path, 0, false, 1, stats::Rng(6),
                                kRate, 1500, kShape);
  g.start(0, 30 * kSecond);
  f.simu.run_until(30 * kSecond);
  ASSERT_GT(f.gaps.size(), 3000u);
  double mean_gap = 1500.0 * 8.0 / kRate;
  double scale = mean_gap * (kShape - 1.0) / kShape;
  EXPECT_TRUE(ks_fits(f.gaps, pareto_cdf(kShape, scale)));
  // ... and they are distinguishable from exponential gaps.
  EXPECT_FALSE(ks_fits(f.gaps, exponential_cdf(mean_gap)));
}

TEST(GeneratorDistribution, RngUniformPassesKs) {
  stats::Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 10000; ++i) xs.push_back(rng.uniform01());
  EXPECT_TRUE(ks_fits(xs, uniform_cdf(0, 1)));
}

}  // namespace
