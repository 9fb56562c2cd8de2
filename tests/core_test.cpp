// Tests for the core module: scenario builders and their ground truth,
// the experiment procedures, and the report helpers.
#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"

namespace {

using namespace abw;
using abw::sim::kMillisecond;
using abw::sim::kSecond;

// ------------------------------------------------------------ scenario ---

TEST(Scenario, SingleHopGroundTruthMatchesNominal) {
  core::SingleHopConfig cfg;
  auto sc = core::Scenario::single_hop(cfg);
  EXPECT_DOUBLE_EQ(sc.nominal_avail_bw(), 25e6);
  sc.simulator().run_until(10 * kSecond);
  double truth = sc.ground_truth(2 * kSecond, 10 * kSecond);
  EXPECT_NEAR(truth, 25e6, 1.5e6);
}

class ScenarioModels : public ::testing::TestWithParam<core::CrossModel> {};

TEST_P(ScenarioModels, LongRunUtilizationOnTarget) {
  core::SingleHopConfig cfg;
  cfg.model = GetParam();
  cfg.seed = 21;
  auto sc = core::Scenario::single_hop(cfg);
  sc.simulator().run_until(62 * kSecond);
  double truth = sc.ground_truth(2 * kSecond, 62 * kSecond);
  // Pareto converges slowest; 12% tolerance over a minute.
  EXPECT_NEAR(truth, 25e6, 25e6 * 0.12) << core::to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllModels, ScenarioModels,
                         ::testing::Values(core::CrossModel::kCbr,
                                           core::CrossModel::kPoisson,
                                           core::CrossModel::kParetoOnOff));

TEST(Scenario, MultiHopLoadsOnlyListedHops) {
  core::MultiHopConfig mc;
  mc.hop_count = 4;
  mc.loaded_hops = {1, 3};
  auto sc = core::Scenario::multi_hop(mc);
  sc.simulator().run_until(10 * kSecond);
  double u1 = sc.path().link(1).meter().utilization(2 * kSecond, 10 * kSecond);
  double u0 = sc.path().link(0).meter().utilization(2 * kSecond, 10 * kSecond);
  EXPECT_NEAR(u1, 0.5, 0.05);
  EXPECT_LT(u0, 0.01);
}

TEST(Scenario, MultiHopCrossIsOneHopPersistent) {
  core::MultiHopConfig mc;
  mc.hop_count = 3;
  mc.loaded_hops = {0};
  auto sc = core::Scenario::multi_hop(mc);
  sc.simulator().run_until(5 * kSecond);
  // Cross packets exit after hop 0: links 1-2 see none.
  EXPECT_GT(sc.path().cross_sink().packets(), 100u);
  EXPECT_EQ(sc.path().link(1).stats().packets_in, 0u);
}

TEST(Scenario, RecentGroundTruth) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  sc.simulator().run_until(5 * kSecond);
  EXPECT_NEAR(sc.recent_ground_truth(kSecond), 25e6, 1e6);
}

TEST(Scenario, RejectsOverloadAndBadHops) {
  core::SingleHopConfig bad;
  bad.cross_rate_bps = bad.capacity_bps;
  EXPECT_THROW(core::Scenario::single_hop(bad), std::invalid_argument);
  core::MultiHopConfig mh;
  mh.hop_count = 2;
  mh.loaded_hops = {5};
  EXPECT_THROW(core::Scenario::multi_hop(mh), std::invalid_argument);
}

TEST(Scenario, CrossModelNames) {
  EXPECT_STREQ(core::to_string(core::CrossModel::kCbr), "CBR");
  EXPECT_STREQ(core::to_string(core::CrossModel::kPoisson), "Poisson");
  EXPECT_STREQ(core::to_string(core::CrossModel::kParetoOnOff), "Pareto ON-OFF");
}

// ----------------------------------------------------------- experiment ---

TEST(Experiment, RatioCurveDropsAboveAvailBw) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  core::RatioCurveConfig rc;
  rc.rates_bps = {15e6, 40e6};
  rc.streams_per_rate = 30;
  auto curve = core::measure_ratio_curve(sc, rc);
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_NEAR(curve[0].mean_ratio, 1.0, 0.05);
  EXPECT_LT(curve[1].mean_ratio, 0.85);  // fluid predicts 0.77
  EXPECT_EQ(curve[0].streams, 30u);
}

TEST(Experiment, DirectSamplesNearTruthOnCbr) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  auto samples = core::collect_direct_samples(sc, 50e6, 40e6,
                                              50 * kMillisecond, 1500, 20,
                                              20 * kMillisecond);
  ASSERT_EQ(samples.size(), 20u);
  for (double s : samples) EXPECT_NEAR(s, 25e6, 2e6);
}

TEST(Experiment, PairSamplesBoundedByCapacity) {
  core::SingleHopConfig cfg;
  auto sc = core::Scenario::single_hop(cfg);
  auto samples = core::collect_pair_samples(sc, 50e6, 1500, 50,
                                            10 * kMillisecond);
  EXPECT_GE(samples.size(), 45u);
  for (double s : samples) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 50e6);
  }
}

TEST(Experiment, CaptureStreamReturnsFullOwdSeries) {
  core::SingleHopConfig cfg;
  auto sc = core::Scenario::single_hop(cfg);
  auto res = core::capture_stream(sc, 27e6, 1500, 160);
  EXPECT_EQ(res.packets.size(), 160u);
  EXPECT_EQ(res.owds_seconds().size(), 160u - res.lost_count());
}

// --------------------------------------------------------------- report ---

TEST(Report, MbpsAndPct) {
  EXPECT_EQ(core::mbps(25e6), "25.0 Mbps");
  EXPECT_EQ(core::mbps(1.5e6, 2), "1.50 Mbps");
  EXPECT_EQ(core::pct(0.125), "12.5%");
}

TEST(Report, TableAlignsAndValidates) {
  core::Table t({"a", "bbbb"});
  t.row({"xxxx", "y"});
  std::ostringstream os;
  t.print(os);
  std::string s = os.str();
  EXPECT_NE(s.find("xxxx"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  EXPECT_THROW(t.row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(core::Table({}), std::invalid_argument);
}

TEST(Report, CheckLineFormats) {
  // The return value is the verdict binaries' exit status (0 on MATCH).
  std::ostringstream os;
  EXPECT_TRUE(core::print_check(os, "claim", "measured", true));
  EXPECT_NE(os.str().find("MATCH"), std::string::npos);
  std::ostringstream os2;
  EXPECT_FALSE(core::print_check(os2, "claim", "measured", false));
  EXPECT_NE(os2.str().find("MISMATCH"), std::string::npos);
}

TEST(Report, AsciiPlotShape) {
  std::vector<double> ys;
  for (int i = 0; i < 100; ++i) ys.push_back(i);
  std::string plot = core::ascii_plot(ys, 8, 40);
  EXPECT_NE(plot.find('*'), std::string::npos);
  EXPECT_EQ(core::ascii_plot({}, 8, 40), "(no data)\n");
}

}  // namespace
