// Unit tests for the statistics library: moments, CDFs, histograms,
// regression, trend tests, sampling, and effective bandwidth.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>

#include "stats/cdf.hpp"
#include "stats/effective_bw.hpp"
#include "stats/histogram.hpp"
#include "stats/moments.hpp"
#include "stats/regression.hpp"
#include "stats/rng.hpp"
#include "stats/sampling.hpp"
#include "stats/trend.hpp"

namespace {

using namespace abw::stats;

// ---------------------------------------------------------------- RNG ---

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
}

TEST(Rng, ForkDivergesFromParent) {
  Rng a(42);
  Rng child = a.fork();
  bool any_diff = false;
  for (int i = 0; i < 50; ++i)
    if (a.uniform01() != child.uniform01()) any_diff = true;
  EXPECT_TRUE(any_diff);
}

// Rng's engine must yield std::mt19937_64's exact words: every golden
// digest and seeded experiment depends on the draw sequence.  1,000 words
// span four refills of the 312-word block; the copy taken mid-block (word
// 500) must continue the same sequence from its position.
TEST(Rng, EngineMatchesStdMt19937_64) {
  const std::uint64_t seeds[] = {0, 1, 5489, 987654321,
                                 std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t seed : seeds) {
    std::mt19937_64 ref(seed);
    Mt19937_64 eng(seed);
    for (int i = 0; i < 500; ++i) ASSERT_EQ(ref(), eng()) << seed << " word " << i;
    std::mt19937_64 ref_copy = ref;
    Mt19937_64 eng_copy = eng;
    for (int i = 500; i < 1000; ++i) ASSERT_EQ(ref(), eng()) << seed << " word " << i;
    for (int i = 500; i < 1000; ++i)
      ASSERT_EQ(ref_copy(), eng_copy()) << seed << " copied word " << i;
  }
}

// The hand-inlined uniform01/exponential fast paths must be bit-identical
// to the std::distribution formulations they replaced.
TEST(Rng, RngFastPathExact) {
  // A stub engine with mt19937_64's range lets us drive the std reference
  // through chosen raw draws: the one-in-2^54 rounding edge where the
  // 64-bit value converts up to exactly 2^64, words with the top bit set,
  // and round-to-even ties (2^63 + 1024 sits halfway between 2^63 and
  // the next double, 2^63 + 2048; 2^53 + 1 halfway between 2^53 and
  // 2^53 + 2).
  struct StubEngine {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }
    std::uint64_t val = 0;
    result_type operator()() { return val; }
  };
  const std::uint64_t edges[] = {
      0,         1,          1023,       1024,
      (1ULL << 53) - 1,      (1ULL << 53),
      (1ULL << 53) + 1,      (1ULL << 53) + 3,
      ~0ULL,     ~0ULL - 1,  ~0ULL - 511, ~0ULL - 512,
      ~0ULL - 1023,          0xfffffffffffffbffULL, 0xfffffffffffffc00ULL,
      1ULL << 63,            (1ULL << 63) + 1024,   (1ULL << 63) + 3072,
      0x8000000000000400ULL, 0x80000000000003ffULL, 0x8000000000000401ULL,
      0x8000000000000c00ULL, 0x7fffffffffffffffULL, 0xffffffff00000000ULL,
      0x00000000ffffffffULL, 0x0000000100000000ULL};
  for (std::uint64_t x : edges) {
    StubEngine e{x};
    EXPECT_EQ((std::generate_canonical<double, 53>(e)), canonical53(x))
        << "raw draw " << x;
  }
  // The split conversion equals the direct one on a stream of words, half
  // of them forced onto round-to-even ties (low 11 bits 0x400 with the
  // top bit set, so the ulp is 2048).
  std::mt19937_64 words(2024);
  for (int i = 0; i < 200000; ++i) {
    std::uint64_t x = words();
    if (i % 2) x = ((x | (1ULL << 63)) & ~0x7ffULL) | 0x400;
    double u = static_cast<double>(x) * 0x1.0p-64;
    if (u >= 1.0) u = 0x1.fffffffffffffp-1;
    ASSERT_EQ(u, canonical53(x)) << "raw draw " << x;
  }
  // And over the real engine: same seed, interleaved draw kinds, exact
  // equality of both the values and the post-draw engine state.
  std::mt19937_64 ref(987654321);
  Rng fast(987654321);
  for (int i = 0; i < 20000; ++i) {
    switch (i % 3) {
      case 0:
        EXPECT_EQ(std::uniform_real_distribution<double>(0.0, 1.0)(ref),
                  fast.uniform01());
        break;
      case 1:
        EXPECT_EQ(std::exponential_distribution<double>(1.0 / 0.0013)(ref),
                  fast.exponential(0.0013));
        break;
      default:
        EXPECT_EQ(std::exponential_distribution<double>(1.0 / 250.0)(ref),
                  fast.exponential(250.0));
    }
  }
  EXPECT_EQ(ref(), fast.engine()());  // engines advanced in lockstep
}

// The draws Rng delegates to std distributions, and pareto's inverse
// CDF, equal the same draws on a std::mt19937_64 run in lockstep.
TEST(Rng, DistributionsMatchStdEngineInLockstep) {
  std::mt19937_64 ref(5489);
  Rng rng(5489);
  for (int i = 0; i < 20000; ++i) {
    switch (i % 5) {
      case 0:
        ASSERT_EQ(std::uniform_real_distribution<double>(-3.0, 7.5)(ref),
                  rng.uniform(-3.0, 7.5)) << i;
        break;
      case 1:
        ASSERT_EQ(std::uniform_int_distribution<std::int64_t>(-40, 1500)(ref),
                  rng.uniform_int(-40, 1500)) << i;
        break;
      case 2:
        ASSERT_EQ(std::normal_distribution<double>(0.0, 1.0)(ref), rng.normal())
            << i;
        break;
      case 3:
        ASSERT_EQ(std::bernoulli_distribution(0.3)(ref), rng.bernoulli(0.3)) << i;
        break;
      default: {
        double u = 1.0 - std::uniform_real_distribution<double>(0.0, 1.0)(ref);
        ASSERT_EQ(2.0 / std::pow(u, 1.0 / 1.5), rng.pareto(1.5, 2.0)) << i;
      }
    }
  }
  EXPECT_EQ(ref(), rng.engine()());
}

TEST(Rng, Uniform01InRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    double u = r.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMeanConverges) {
  Rng r(7);
  RunningStats acc;
  for (int i = 0; i < 50000; ++i) acc.add(r.exponential(3.0));
  EXPECT_NEAR(acc.mean(), 3.0, 0.1);
}

TEST(Rng, ExponentialRejectsBadMean) {
  Rng r(1);
  EXPECT_THROW(r.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(r.exponential(-1.0), std::invalid_argument);
  EXPECT_THROW(r.exponential(std::nan("")), std::invalid_argument);
}

TEST(Rng, ParetoRespectsScaleMinimum) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.pareto(1.5, 2.0), 2.0);
}

TEST(Rng, ParetoMeanMatchesTheory) {
  // E[X] = alpha * xm / (alpha - 1) = 2.5 * 1 / 1.5 = 5/3.
  Rng r(5);
  RunningStats acc;
  for (int i = 0; i < 200000; ++i) acc.add(r.pareto(2.5, 1.0));
  EXPECT_NEAR(acc.mean(), 5.0 / 3.0, 0.05);
}

TEST(Rng, ParetoRejectsBadParams) {
  Rng r(1);
  EXPECT_THROW(r.pareto(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(r.pareto(1.5, 0.0), std::invalid_argument);
  EXPECT_THROW(r.pareto(std::nan(""), 1.0), std::invalid_argument);
  EXPECT_THROW(r.pareto(1.5, std::nan("")), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng r(11);
  RunningStats acc;
  for (int i = 0; i < 100000; ++i) acc.add(r.normal());
  EXPECT_NEAR(acc.mean(), 0.0, 0.02);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    auto v = r.uniform_int(1, 10);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 10);
    saw_lo |= v == 1;
    saw_hi |= v == 10;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

// ------------------------------------------------------------ moments ---

TEST(RunningStats, MatchesBatchFormulas) {
  std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats acc;
  for (double x : xs) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), mean(xs));
  EXPECT_NEAR(acc.variance(), variance(xs), 1e-12);
  EXPECT_EQ(acc.count(), xs.size());
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 16.0);
}

TEST(RunningStats, EmptyAndSingleAreSafe) {
  RunningStats acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  acc.add(5.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(RunningStats, MergeEqualsSinglePass) {
  Rng r(9);
  RunningStats whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    double x = r.normal() * 3 + 1;
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
}

TEST(Moments, MedianAndQuantiles) {
  std::vector<double> xs = {5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
}

TEST(Moments, QuantileInterpolates) {
  std::vector<double> xs = {0.0, 1.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 0.25);
}

TEST(Moments, QuantileRejectsOutOfRange) {
  EXPECT_THROW(quantile({1.0, 2.0}, 1.5), std::invalid_argument);
}

TEST(Moments, RelativeError) {
  EXPECT_DOUBLE_EQ(relative_error(27.5, 25.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(22.5, 25.0), -0.1);
  EXPECT_THROW(relative_error(1.0, 0.0), std::invalid_argument);
}

TEST(Moments, MeanAbsRelativeError) {
  EXPECT_DOUBLE_EQ(mean_abs_relative_error({27.5, 22.5}, 25.0), 0.1);
  EXPECT_DOUBLE_EQ(mean_abs_relative_error({}, 25.0), 0.0);
}

// ---------------------------------------------------------------- CDF ---

TEST(EmpiricalCdf, BasicSteps) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(100.0), 1.0);
}

TEST(EmpiricalCdf, InverseIsQuantile) {
  EmpiricalCdf cdf({10.0, 20.0, 30.0, 40.0});
  EXPECT_DOUBLE_EQ(cdf.inverse(0.25), 10.0);
  EXPECT_DOUBLE_EQ(cdf.inverse(0.5), 20.0);
  EXPECT_DOUBLE_EQ(cdf.inverse(1.0), 40.0);
  EXPECT_THROW(cdf.inverse(0.0), std::invalid_argument);
}

TEST(EmpiricalCdf, CurveIsMonotone) {
  Rng r(4);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(r.normal());
  EmpiricalCdf cdf(xs);
  auto curve = cdf.curve();
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LT(curve[i - 1].first, curve[i].first);
    EXPECT_LT(curve[i - 1].second, curve[i].second + 1e-12);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(EmpiricalCdf, EmptyIsZeroEverywhere) {
  EmpiricalCdf cdf({});
  EXPECT_DOUBLE_EQ(cdf.at(123.0), 0.0);
  EXPECT_THROW(cdf.inverse(0.5), std::logic_error);
}

// ----------------------------------------------------------- histogram ---

TEST(Histogram, CountsAndFlows) {
  Histogram h(0.0, 10.0, 10);
  h.add(-1.0);
  h.add(0.0);
  h.add(5.5);
  h.add(10.0);
  h.add(99.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(5), 1u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, BinCenters) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_center(9), 9.5);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, RenderContainsBars) {
  Histogram h(0.0, 1.0, 2);
  for (int i = 0; i < 5; ++i) h.add(0.25);
  std::string s = h.render(10);
  EXPECT_NE(s.find('#'), std::string::npos);
}

// ---------------------------------------------------------- regression ---

TEST(LinearFit, ExactLine) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {3, 5, 7, 9, 11};  // y = 2x + 1
  LinearFit f = linear_fit(xs, ys);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
}

TEST(LinearFit, NoisyLineRecoversSlope) {
  Rng r(13);
  std::vector<double> xs, ys;
  for (int i = 0; i < 500; ++i) {
    double x = i * 0.1;
    xs.push_back(x);
    ys.push_back(0.02 * x + 0.5 + 0.01 * r.normal());
  }
  LinearFit f = linear_fit(xs, ys);
  EXPECT_NEAR(f.slope, 0.02, 0.001);
  EXPECT_NEAR(f.intercept, 0.5, 0.01);
  EXPECT_GT(f.r_squared, 0.9);
}

TEST(LinearFit, RejectsDegenerateInput) {
  EXPECT_THROW(linear_fit({1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(linear_fit({1, 2}, {1}), std::invalid_argument);
  EXPECT_THROW(linear_fit({2, 2, 2}, {1, 2, 3}), std::invalid_argument);
}

// --------------------------------------------------------------- trend ---

TEST(Trend, MonotoneIncreaseIsIncreasing) {
  std::vector<double> owds;
  for (int i = 0; i < 100; ++i) owds.push_back(0.001 * i);
  EXPECT_EQ(pct_trend(owds), Trend::kIncreasing);
  EXPECT_EQ(pdt_trend(owds), Trend::kIncreasing);
  EXPECT_EQ(combined_trend(owds), Trend::kIncreasing);
}

TEST(Trend, FlatIsNonIncreasing) {
  std::vector<double> owds(100, 0.005);
  EXPECT_EQ(pct_trend(owds), Trend::kNonIncreasing);
  EXPECT_EQ(combined_trend(owds), Trend::kNonIncreasing);
}

TEST(Trend, NoisyFlatIsNonIncreasing) {
  Rng r(21);
  std::vector<double> owds;
  for (int i = 0; i < 200; ++i) owds.push_back(0.005 + 1e-4 * r.normal());
  EXPECT_EQ(combined_trend(owds), Trend::kNonIncreasing);
}

TEST(Trend, NoisyIncreaseDetected) {
  Rng r(22);
  std::vector<double> owds;
  for (int i = 0; i < 200; ++i) owds.push_back(1e-5 * i + 2e-4 * r.normal());
  EXPECT_EQ(combined_trend(owds), Trend::kIncreasing);
}

TEST(Trend, BurstAtEndDoesNotFoolTrend) {
  // The Fig. 5 situation: flat OWDs with a jump at the very end.  Ro/Ri
  // would scream congestion; the trend tests must not.
  std::vector<double> owds(150, 0.004);
  for (int i = 0; i < 10; ++i) owds.push_back(0.004 + 0.002 * (i + 1));
  EXPECT_NE(combined_trend(owds), Trend::kIncreasing);
}

TEST(Trend, PctStatisticBounds) {
  std::vector<double> inc, dec;
  for (int i = 0; i < 64; ++i) {
    inc.push_back(i);
    dec.push_back(-i);
  }
  EXPECT_DOUBLE_EQ(pct_statistic(inc), 1.0);
  EXPECT_DOUBLE_EQ(pct_statistic(dec), 0.0);
  EXPECT_DOUBLE_EQ(pdt_statistic(inc), 1.0);
  EXPECT_DOUBLE_EQ(pdt_statistic(dec), -1.0);
}

TEST(Trend, GroupMediansReducesLength) {
  std::vector<double> xs(100, 1.0);
  auto m = group_medians(xs);
  EXPECT_EQ(m.size(), 10u);  // sqrt(100)
}

TEST(Trend, ShortSeriesIsHandled) {
  EXPECT_EQ(pct_trend({}), Trend::kNonIncreasing);  // statistic 0.5 < 0.54
  EXPECT_EQ(pdt_trend({1.0}), Trend::kNonIncreasing);
}

// combined_trend shares one set of group medians between PCT and PDT; it
// must classify exactly as Pathload's rule over the public tests does.
TEST(Trend, CombinedMatchesPathloadRuleOverPublicTests) {
  auto reference = [](const std::vector<double>& owds) {
    Trend a = pct_trend(owds);
    Trend b = pdt_trend(owds);
    if (a == b) return a;
    if (a == Trend::kAmbiguous) return b;
    if (b == Trend::kAmbiguous) return a;
    return Trend::kAmbiguous;
  };
  Rng r(23);
  int verdicts[3] = {0, 0, 0};
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(r.uniform01() * 120);
    const double slope = r.uniform(-1.6e-5, 2.4e-5);
    const double noise = r.uniform(0.0, 3e-4);
    std::vector<double> owds;
    for (std::size_t i = 0; i < n; ++i)
      owds.push_back(0.004 + slope * static_cast<double>(i) +
                     noise * r.normal());
    const Trend got = combined_trend(owds);
    ASSERT_EQ(got, reference(owds)) << "trial " << trial;
    ++verdicts[static_cast<int>(got)];
  }
  for (int v : verdicts) EXPECT_GT(v, 0);
}

TEST(Trend, ToStringNames) {
  EXPECT_STREQ(to_string(Trend::kIncreasing), "increasing");
  EXPECT_STREQ(to_string(Trend::kNonIncreasing), "non-increasing");
  EXPECT_STREQ(to_string(Trend::kAmbiguous), "ambiguous");
}

// ------------------------------------------------------------ sampling ---

TEST(Sampling, PoissonTimesSortedAndBounded) {
  Rng r(31);
  auto times = poisson_sample_times(50, 10.0, r);
  ASSERT_EQ(times.size(), 50u);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_GT(times[i], 0.0);
    EXPECT_LT(times[i], 10.0);
    if (i > 0) {
      EXPECT_GT(times[i], times[i - 1]);
    }
  }
}

TEST(Sampling, PoissonGapsAreExponentialish) {
  // The CV (stddev/mean) of exponential gaps is 1; periodic gaps give 0.
  Rng r(32);
  auto times = poisson_sample_times(2000, 100.0, r);
  std::vector<double> gaps;
  for (std::size_t i = 1; i < times.size(); ++i)
    gaps.push_back(times[i] - times[i - 1]);
  double cv = stddev(gaps) / mean(gaps);
  EXPECT_NEAR(cv, 1.0, 0.15);
}

TEST(Sampling, PeriodicTimesEvenlySpaced) {
  auto times = periodic_sample_times(4, 8.0);
  ASSERT_EQ(times.size(), 4u);
  EXPECT_DOUBLE_EQ(times[0], 0.0);
  EXPECT_DOUBLE_EQ(times[3], 6.0);
}

TEST(Sampling, RejectsBadHorizon) {
  Rng r(1);
  EXPECT_THROW(poisson_sample_times(5, 0.0, r), std::invalid_argument);
  EXPECT_THROW(periodic_sample_times(5, -1.0), std::invalid_argument);
}

// Regression: exhausting the redraw budget must THROW, never silently
// fall back to periodic spacing — periodic sampling breaks PASTA and
// would corrupt the Fig. 1 Poisson-sampling experiment without signal.
TEST(Sampling, ExhaustedRedrawsThrowInsteadOfGoingPeriodic) {
  Rng r(5);
  EXPECT_THROW(poisson_sample_times(10, 1.0, r, /*max_attempts=*/0),
               std::runtime_error);
}

// The returned instants must always be strictly increasing and strictly
// inside (0, horizon), across many seeds and a count large enough that
// individual attempts routinely overshoot the horizon and redraw.
TEST(Sampling, TimesStrictlyIncreasingAndInsideHorizonAcrossSeeds) {
  const double horizon = 3.0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng r(seed);
    auto times = poisson_sample_times(400, horizon, r);
    ASSERT_EQ(times.size(), 400u) << "seed " << seed;
    double prev = 0.0;
    for (double t : times) {
      EXPECT_GT(t, prev) << "seed " << seed;
      EXPECT_LT(t, horizon) << "seed " << seed;
      prev = t;
    }
  }
}

// -------------------------------------------------------- effective bw ---

TEST(EffectiveBw, ConstantLoadEqualsLoad) {
  std::vector<double> loads(100, 30.0);
  EXPECT_NEAR(effective_bandwidth(loads, 0.5), 30.0, 1e-9);
}

TEST(EffectiveBw, BetweenMeanAndPeak) {
  std::vector<double> loads = {10, 10, 10, 50};
  double m = mean(loads);
  double eb = effective_bandwidth(loads, 0.1);
  EXPECT_GT(eb, m);
  EXPECT_LT(eb, 50.0);
}

TEST(EffectiveBw, IncreasesWithS) {
  std::vector<double> loads = {10, 20, 30, 40};
  EXPECT_LT(effective_bandwidth(loads, 0.01), effective_bandwidth(loads, 1.0));
}

TEST(EffectiveBw, AvailBwClampedAtZero) {
  std::vector<double> loads(10, 100.0);
  EXPECT_DOUBLE_EQ(effective_avail_bw(50.0, loads, 0.5), 0.0);
  EXPECT_NEAR(effective_avail_bw(150.0, loads, 0.5), 50.0, 1e-9);
}

TEST(EffectiveBw, BurstierLoadHasHigherEffectiveDemand) {
  std::vector<double> smooth(100, 25.0);
  std::vector<double> bursty;
  for (int i = 0; i < 100; ++i) bursty.push_back(i % 2 ? 45.0 : 5.0);  // mean 25
  EXPECT_GT(effective_bandwidth(bursty, 0.2), effective_bandwidth(smooth, 0.2));
}

TEST(EffectiveBw, RejectsBadInput) {
  EXPECT_THROW(effective_bandwidth({}, 0.5), std::invalid_argument);
  EXPECT_THROW(effective_bandwidth({1.0}, 0.0), std::invalid_argument);
}

}  // namespace
