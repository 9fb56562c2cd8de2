// Tests for the cross-traffic generators: offered rates converge to the
// configured means, packet-size distributions are honoured, ON-OFF
// burstiness and the aggregate's self-similarity emerge as designed.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "stats/hurst.hpp"
#include "stats/moments.hpp"
#include "traffic/aggregate.hpp"
#include "traffic/cbr.hpp"
#include "traffic/fgn_rate.hpp"
#include "traffic/packet_size.hpp"
#include "traffic/pareto_gaps.hpp"
#include "traffic/pareto_onoff.hpp"
#include "traffic/poisson.hpp"
#include "traffic/trace_replay.hpp"

namespace {

using namespace abw;
using abw::sim::kMillisecond;
using abw::sim::kSecond;

struct Fixture {
  sim::Simulator simu;
  sim::Path path;
  sim::CountingSink sink;

  explicit Fixture(double capacity_bps = 1e9) : path(simu, {make_cfg(capacity_bps)}) {
    path.set_receiver(&sink);
  }
  static sim::LinkConfig make_cfg(double c) {
    sim::LinkConfig cfg;
    cfg.capacity_bps = c;
    cfg.queue_limit_bytes = 64 << 20;  // effectively lossless
    return cfg;
  }
};

// -------------------------------------------------------- size dists ---

TEST(SizeDistribution, FixedAlwaysSame) {
  stats::Rng r(1);
  auto d = traffic::SizeDistribution::fixed(1500);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(d.sample(r), 1500u);
  EXPECT_DOUBLE_EQ(d.mean(), 1500.0);
}

TEST(SizeDistribution, ModalProportions) {
  stats::Rng r(2);
  auto d = traffic::SizeDistribution::modal({{40, 1.0}, {1500, 3.0}});
  int small = 0, big = 0;
  for (int i = 0; i < 40000; ++i) (d.sample(r) == 40 ? small : big)++;
  EXPECT_NEAR(static_cast<double>(small) / 40000, 0.25, 0.02);
  EXPECT_NEAR(d.mean(), 0.25 * 40 + 0.75 * 1500, 1e-9);
}

TEST(SizeDistribution, InternetMixMean) {
  auto d = traffic::SizeDistribution::internet_mix();
  EXPECT_NEAR(d.mean(), 0.4 * 40 + 0.2 * 576 + 0.4 * 1500, 1e-9);
}

TEST(SizeDistribution, RejectsInvalid) {
  EXPECT_THROW(traffic::SizeDistribution::fixed(0), std::invalid_argument);
  EXPECT_THROW(traffic::SizeDistribution::modal({}), std::invalid_argument);
  EXPECT_THROW(traffic::SizeDistribution::modal({{100, -1.0}}),
               std::invalid_argument);
}

// ---------------------------------------------------------------- CBR ---

TEST(Cbr, OfferedRateIsExact) {
  Fixture f;
  traffic::CbrGenerator g(f.simu, f.path, 0, false, 1, stats::Rng(7), 25e6, 1500);
  g.start(0, 10 * kSecond);
  f.simu.run_until(10 * kSecond);
  EXPECT_NEAR(g.offered_rate(), 25e6, 25e6 * 0.001);
}

TEST(Cbr, PerfectlyPeriodicArrivals) {
  Fixture f;
  std::vector<sim::SimTime> arrivals;
  f.path.link(0).set_arrival_tap(
      [&](const sim::Packet&, sim::SimTime t) { arrivals.push_back(t); });
  traffic::CbrGenerator g(f.simu, f.path, 0, false, 1, stats::Rng(7), 12e6, 1500);
  g.start(0, kSecond);
  f.simu.run_until(kSecond);
  ASSERT_GT(arrivals.size(), 10u);
  sim::SimTime gap = arrivals[1] - arrivals[0];
  for (std::size_t i = 2; i < arrivals.size(); ++i)
    EXPECT_EQ(arrivals[i] - arrivals[i - 1], gap);
  EXPECT_EQ(gap, sim::transmission_time(1500, 12e6));
}

TEST(Cbr, StopsAtWindowEnd) {
  Fixture f;
  traffic::CbrGenerator g(f.simu, f.path, 0, false, 1, stats::Rng(7), 10e6, 1500);
  g.start(0, 100 * kMillisecond);
  f.simu.run_until(10 * kSecond);
  auto sent = g.packets_sent();
  EXPECT_GT(sent, 0u);
  // 10 Mb/s, 1500 B => 1.2 ms gaps => ~83 packets in 100 ms.
  EXPECT_LE(sent, 85u);
  f.simu.run_until(20 * kSecond);
  EXPECT_EQ(g.packets_sent(), sent);  // nothing after the window
}

TEST(Cbr, StartTwiceThrows) {
  Fixture f;
  traffic::CbrGenerator g(f.simu, f.path, 0, false, 1, stats::Rng(7), 10e6, 1500);
  g.start(0, kSecond);
  EXPECT_THROW(g.start(0, kSecond), std::logic_error);
}

// ------------------------------------------------------------ Poisson ---

TEST(Poisson, RateConvergesWithFixedSizes) {
  Fixture f;
  traffic::PoissonGenerator g(f.simu, f.path, 0, false, 1, stats::Rng(5), 25e6,
                              traffic::SizeDistribution::fixed(1500));
  g.start(0, 30 * kSecond);
  f.simu.run_until(30 * kSecond);
  EXPECT_NEAR(g.offered_rate(), 25e6, 25e6 * 0.03);
}

TEST(Poisson, RateConvergesWithTrimodalSizes) {
  Fixture f;
  traffic::PoissonGenerator g(f.simu, f.path, 0, false, 1, stats::Rng(5), 40e6,
                              traffic::SizeDistribution::internet_mix());
  g.start(0, 30 * kSecond);
  f.simu.run_until(30 * kSecond);
  EXPECT_NEAR(g.offered_rate(), 40e6, 40e6 * 0.05);
}

TEST(Poisson, InterarrivalsAreExponential) {
  Fixture f;
  std::vector<double> gaps;
  sim::SimTime last = -1;
  f.path.link(0).set_arrival_tap([&](const sim::Packet&, sim::SimTime t) {
    if (last >= 0) gaps.push_back(sim::to_seconds(t - last));
    last = t;
  });
  traffic::PoissonGenerator g(f.simu, f.path, 0, false, 1, stats::Rng(5), 25e6,
                              traffic::SizeDistribution::fixed(1500));
  g.start(0, 20 * kSecond);
  f.simu.run_until(20 * kSecond);
  ASSERT_GT(gaps.size(), 1000u);
  double cv = stats::stddev(gaps) / stats::mean(gaps);
  EXPECT_NEAR(cv, 1.0, 0.1);  // exponential CV = 1
}

// -------------------------------------------------------- Pareto OnOff ---

TEST(ParetoOnOff, LongRunRateConverges) {
  Fixture f;
  traffic::ParetoOnOffConfig cfg;
  cfg.mean_rate_bps = 25e6;
  cfg.peak_rate_bps = 50e6;
  traffic::ParetoOnOffGenerator g(f.simu, f.path, 0, false, 1, stats::Rng(6), cfg);
  g.start(0, 120 * kSecond);
  f.simu.run_until(120 * kSecond);
  // Heavy-tailed OFF times converge slowly; 15% tolerance over 2 minutes.
  EXPECT_NEAR(g.offered_rate(), 25e6, 25e6 * 0.15);
}

TEST(ParetoOnOff, BurstsAtPeakRate) {
  Fixture f;
  std::vector<sim::SimTime> arrivals;
  f.path.link(0).set_arrival_tap(
      [&](const sim::Packet&, sim::SimTime t) { arrivals.push_back(t); });
  traffic::ParetoOnOffConfig cfg;
  cfg.mean_rate_bps = 10e6;
  cfg.peak_rate_bps = 40e6;
  traffic::ParetoOnOffGenerator g(f.simu, f.path, 0, false, 1, stats::Rng(6), cfg);
  g.start(0, 20 * kSecond);
  f.simu.run_until(20 * kSecond);
  // Within bursts, consecutive gaps equal the peak-rate gap.
  sim::SimTime peak_gap = sim::transmission_time(1500, 40e6);
  std::size_t at_peak = 0;
  for (std::size_t i = 1; i < arrivals.size(); ++i)
    if (arrivals[i] - arrivals[i - 1] == peak_gap) ++at_peak;
  EXPECT_GT(at_peak, arrivals.size() / 4);
}

TEST(ParetoOnOff, MoreVariableThanPoissonAtShortScales) {
  auto windowed_variance = [](auto make_gen) {
    Fixture f;
    auto g = make_gen(f);
    g->start(0, 60 * kSecond);
    f.simu.run_until(60 * kSecond);
    auto series = f.path.link(0).meter().avail_bw_series(
        kSecond, 59 * kSecond, 10 * kMillisecond);
    return stats::variance(series);
  };
  double var_poisson = windowed_variance([](Fixture& f) {
    return std::make_unique<traffic::PoissonGenerator>(
        f.simu, f.path, 0, false, 1, stats::Rng(6), 25e6,
        traffic::SizeDistribution::fixed(1500));
  });
  double var_onoff = windowed_variance([](Fixture& f) {
    traffic::ParetoOnOffConfig cfg;
    cfg.mean_rate_bps = 25e6;
    cfg.peak_rate_bps = 100e6;
    return std::make_unique<traffic::ParetoOnOffGenerator>(
        f.simu, f.path, 0, false, 1, stats::Rng(6), cfg);
  });
  EXPECT_GT(var_onoff, 1.5 * var_poisson);
}

TEST(ParetoOnOff, RejectsBadConfig) {
  Fixture f;
  traffic::ParetoOnOffConfig bad;
  bad.mean_rate_bps = 50e6;
  bad.peak_rate_bps = 25e6;  // peak < mean
  EXPECT_THROW(traffic::ParetoOnOffGenerator(f.simu, f.path, 0, false, 1,
                                             stats::Rng(1), bad),
               std::invalid_argument);
  bad.peak_rate_bps = 100e6;
  bad.off_shape = 1.0;  // infinite mean
  EXPECT_THROW(traffic::ParetoOnOffGenerator(f.simu, f.path, 0, false, 1,
                                             stats::Rng(1), bad),
               std::invalid_argument);
}

// A NaN rate compares false against every bound, so a check written as
// `rate <= 0` lets it through; each constructor must reject it.
TEST(Generators, RejectNanRates) {
  Fixture f;
  const double nan = std::nan("");
  EXPECT_THROW(traffic::PoissonGenerator(f.simu, f.path, 0, false, 1,
                                         stats::Rng(1), nan,
                                         traffic::SizeDistribution::fixed(1500)),
               std::invalid_argument);
  EXPECT_THROW(traffic::CbrGenerator(f.simu, f.path, 0, false, 1, stats::Rng(1),
                                     nan, 1500),
               std::invalid_argument);
  EXPECT_THROW(traffic::ParetoGapGenerator(f.simu, f.path, 0, false, 1,
                                           stats::Rng(1), nan, 1500),
               std::invalid_argument);
  EXPECT_THROW(traffic::ParetoGapGenerator(f.simu, f.path, 0, false, 1,
                                           stats::Rng(1), 10e6, 1500, nan),
               std::invalid_argument);
  traffic::ParetoOnOffConfig oc;
  oc.mean_rate_bps = nan;
  EXPECT_THROW(traffic::ParetoOnOffGenerator(f.simu, f.path, 0, false, 1,
                                             stats::Rng(1), oc),
               std::invalid_argument);
  oc.mean_rate_bps = 10e6;
  oc.off_shape = nan;
  EXPECT_THROW(traffic::ParetoOnOffGenerator(f.simu, f.path, 0, false, 1,
                                             stats::Rng(1), oc),
               std::invalid_argument);
  traffic::FgnRateConfig fc;
  fc.mean_rate_bps = nan;
  EXPECT_THROW(
      traffic::FgnRateGenerator(f.simu, f.path, 0, false, 1, stats::Rng(1), fc),
      std::invalid_argument);
  fc.mean_rate_bps = 10e6;
  fc.rel_std = nan;
  EXPECT_THROW(
      traffic::FgnRateGenerator(f.simu, f.path, 0, false, 1, stats::Rng(1), fc),
      std::invalid_argument);
  fc.rel_std = 0.3;
  fc.hurst = nan;
  EXPECT_THROW(
      traffic::FgnRateGenerator(f.simu, f.path, 0, false, 1, stats::Rng(1), fc),
      std::invalid_argument);
}

// ----------------------------------------------------------- aggregate ---

TEST(Aggregate, TotalRateSplitsAcrossSources) {
  Fixture f;
  stats::Rng rng(3);
  traffic::ParetoOnOffConfig per;
  per.peak_rate_bps = 10e6;
  traffic::AggregateOnOff agg(f.simu, f.path, 0, false, 100, rng, 40e6, 16, per);
  EXPECT_EQ(agg.source_count(), 16u);
  agg.start(0, 60 * kSecond);
  f.simu.run_until(60 * kSecond);
  double rate = static_cast<double>(agg.bytes_sent()) * 8.0 / 60.0;
  EXPECT_NEAR(rate, 40e6, 40e6 * 0.10);
}

TEST(Aggregate, ExhibitsLongRangeDependence) {
  // Taqqu: aggregated Pareto(alpha=1.5) ON-OFF => H ~ (3-1.5)/2 = 0.75.
  Fixture f(1e9);
  stats::Rng rng(4);
  traffic::ParetoOnOffConfig per;
  per.peak_rate_bps = 30e6;
  traffic::AggregateOnOff agg(f.simu, f.path, 0, false, 100, rng, 100e6, 32, per);
  agg.start(0, 120 * kSecond);
  f.simu.run_until(120 * kSecond);
  auto series = f.path.link(0).meter().avail_bw_series(kSecond, 119 * kSecond,
                                                       10 * kMillisecond);
  double h = stats::hurst_variance_time(series);
  EXPECT_GT(h, 0.6);  // clearly long-range dependent (IID would be ~0.5)
}

// ------------------------------------------------------------ fGn rate ---

TEST(FgnRate, MeanRateConverges) {
  Fixture f;
  traffic::FgnRateConfig cfg;
  cfg.mean_rate_bps = 50e6;
  cfg.rel_std = 0.2;
  traffic::FgnRateGenerator g(f.simu, f.path, 0, false, 1, stats::Rng(8), cfg);
  g.start(0, 30 * kSecond);
  f.simu.run_until(30 * kSecond);
  EXPECT_NEAR(g.offered_rate(), 50e6, 50e6 * 0.05);
}

TEST(FgnRate, ProducesTargetHurst) {
  Fixture f(1e9);
  traffic::FgnRateConfig cfg;
  cfg.mean_rate_bps = 80e6;
  cfg.rel_std = 0.3;
  cfg.hurst = 0.85;
  traffic::FgnRateGenerator g(f.simu, f.path, 0, false, 1, stats::Rng(8), cfg);
  g.start(0, 60 * kSecond);
  f.simu.run_until(60 * kSecond);
  auto series = f.path.link(0).meter().avail_bw_series(0, 60 * kSecond,
                                                       2 * kMillisecond);
  double h = stats::hurst_variance_time(series);
  EXPECT_GT(h, 0.7);
}

TEST(FgnRate, RejectsBadConfig) {
  Fixture f;
  traffic::FgnRateConfig bad;
  bad.hurst = 1.5;
  EXPECT_THROW(
      traffic::FgnRateGenerator(f.simu, f.path, 0, false, 1, stats::Rng(1), bad),
      std::invalid_argument);
}

// --------------------------------------------------------- trace replay ---

TEST(TraceReplay, InjectsExactlyTheRecords) {
  Fixture f;
  std::vector<sim::SimTime> arrivals;
  std::vector<std::uint32_t> sizes;
  f.path.link(0).set_arrival_tap([&](const sim::Packet& p, sim::SimTime t) {
    arrivals.push_back(t);
    sizes.push_back(p.size_bytes);
  });
  traffic::TraceGenerator gen(
      f.simu, f.path, 0, false, 9,
      {{10 * kMillisecond, 100}, {20 * kMillisecond, 200}, {21 * kMillisecond, 300}});
  EXPECT_EQ(gen.trace_size(), 3u);
  gen.start(0, kSecond);
  f.simu.run_until(kSecond);
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], 10 * kMillisecond);
  EXPECT_EQ(sizes[2], 300u);
  EXPECT_EQ(gen.packets_sent(), 3u);
}

TEST(TraceReplay, RejectsUnsortedTrace) {
  Fixture f;
  EXPECT_THROW(traffic::TraceGenerator(f.simu, f.path, 0, false, 9,
                                       {{20, 100}, {10, 100}}),
               std::invalid_argument);
}

// ------------------------------------------------------- conservation ---

TEST(Conservation, PacketsInEqualsOutPlusDrops) {
  Fixture f(20e6);  // slow link so the Poisson burst occasionally drops
  f.path.link(0).set_arrival_tap(nullptr);
  traffic::PoissonGenerator g(f.simu, f.path, 0, false, 1, stats::Rng(5), 19e6,
                              traffic::SizeDistribution::fixed(1500));
  g.start(0, 20 * kSecond);
  f.simu.run_until(20 * kSecond);
  f.simu.run_until_idle();
  const auto& st = f.path.link(0).stats();
  EXPECT_EQ(st.packets_in, st.packets_out + st.packets_dropped);
  EXPECT_EQ(st.packets_in, g.packets_sent());
  EXPECT_EQ(f.sink.packets(), st.packets_out);
}

}  // namespace
