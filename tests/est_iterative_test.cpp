// Tests for the iterative-probing estimators: TOPP, Pathload, pathChirp,
// IGI/PTR, and BFind.  Fluid-like (CBR) scenarios give sharp accuracy
// targets; bursty scenarios verify the qualitative behaviours the paper
// describes (ranges, underestimation).
#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "est/bfind.hpp"
#include "est/direct.hpp"
#include "est/igi_ptr.hpp"
#include "est/pathchirp.hpp"
#include "est/pathload.hpp"
#include "est/topp.hpp"

namespace {

using namespace abw;
using abw::sim::kMillisecond;
using abw::sim::kSecond;

core::Scenario cbr_scenario(std::uint64_t seed = 1) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  cfg.seed = seed;
  return core::Scenario::single_hop(cfg);
}

core::Scenario poisson_scenario(std::uint64_t seed = 1) {
  core::SingleHopConfig cfg;
  cfg.seed = seed;
  return core::Scenario::single_hop(cfg);
}

// ----------------------------------------------------------------- TOPP ---

TEST(Topp, RecoversAvailBwAndCapacityOnCbr) {
  auto sc = cbr_scenario();
  est::ToppConfig tc;
  tc.min_rate_bps = 5e6;
  tc.max_rate_bps = 48e6;
  tc.rate_step_bps = 2e6;
  est::Topp topp(tc, sc.rng().fork());
  auto e = topp.estimate(sc.transport());
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(e.point_bps(), 25e6, 3e6);
  // TOPP's bonus: the tight-link capacity from the regression slope.
  EXPECT_NEAR(topp.estimated_capacity_bps(), 50e6, 7e6);
}

TEST(Topp, CurveShapeMatchesTheory) {
  auto sc = cbr_scenario();
  est::ToppConfig tc;
  tc.min_rate_bps = 5e6;
  tc.max_rate_bps = 45e6;
  tc.rate_step_bps = 5e6;
  est::Topp topp(tc, sc.rng().fork());
  (void)topp.estimate(sc.transport());
  const auto& curve = topp.last_curve();
  ASSERT_GE(curve.size(), 8u);
  // Below A: ratio near 1 (within the few-percent packet-granularity
  // inflation the paper's burstiness pitfall describes).  Above A:
  // strictly growing with Ri.
  for (const auto& pt : curve) {
    if (pt.offered_rate_bps < 20e6) {
      EXPECT_NEAR(pt.mean_ratio, 1.0, 0.08);
    }
  }
  EXPECT_GT(curve.back().mean_ratio, 1.1);
}

TEST(Topp, ReasonableUnderPoisson) {
  auto sc = poisson_scenario(3);
  est::ToppConfig tc;
  tc.min_rate_bps = 5e6;
  tc.max_rate_bps = 48e6;
  est::Topp topp(tc, sc.rng().fork());
  auto e = topp.estimate(sc.transport());
  ASSERT_TRUE(e.valid);
  EXPECT_GT(e.point_bps(), 10e6);
  EXPECT_LT(e.point_bps(), 35e6);
}

TEST(Topp, RejectsBadSweep) {
  est::ToppConfig bad;
  bad.max_rate_bps = bad.min_rate_bps;
  EXPECT_THROW(est::Topp(bad, stats::Rng(1)), std::invalid_argument);
}

// ------------------------------------------------------------- Pathload ---

TEST(Pathload, RangeBracketsAvailBwOnCbr) {
  auto sc = cbr_scenario();
  est::PathloadConfig pc;
  pc.min_rate_bps = 2e6;
  pc.max_rate_bps = 50e6;
  est::Pathload pl(pc);
  auto e = pl.estimate(sc.transport());
  ASSERT_TRUE(e.valid);
  EXPECT_LE(e.low_bps, 26e6);
  EXPECT_GE(e.high_bps, 24e6);
  EXPECT_LT(e.high_bps - e.low_bps, 15e6);
  EXPECT_GT(pl.fleets_used(), 2u);
}

class PathloadSweep : public ::testing::TestWithParam<double> {};

TEST_P(PathloadSweep, TracksConfiguredAvailBwOnCbr) {
  double cross = GetParam();
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  cfg.cross_rate_bps = cross;
  cfg.seed = 11;
  auto sc = core::Scenario::single_hop(cfg);
  double a = cfg.capacity_bps - cross;

  est::PathloadConfig pc;
  pc.min_rate_bps = 2e6;
  pc.max_rate_bps = 49e6;
  est::Pathload pl(pc);
  auto e = pl.estimate(sc.transport());
  ASSERT_TRUE(e.valid) << "cross=" << cross;
  EXPECT_NEAR(e.point_bps(), a, 6e6) << "cross=" << cross;
}

INSTANTIATE_TEST_SUITE_P(UtilizationSweep, PathloadSweep,
                         ::testing::Values(15e6, 25e6, 35e6));

TEST(Pathload, WiderRangeUnderBurstyCross) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kParetoOnOff;
  cfg.seed = 4;
  auto sc = core::Scenario::single_hop(cfg);
  est::PathloadConfig pc;
  pc.min_rate_bps = 2e6;
  pc.max_rate_bps = 50e6;
  pc.streams_per_fleet = 8;
  est::Pathload pl(pc);
  auto e = pl.estimate(sc.transport());
  ASSERT_TRUE(e.valid);
  // Burstiness widens the reported variation range (the paper's point
  // about range vs point estimates).
  EXPECT_GT(e.high_bps - e.low_bps, 2e6);
}

TEST(Pathload, FleetVerdictsSeparateRates) {
  auto sc = cbr_scenario();
  est::PathloadConfig pc;
  est::Pathload pl(pc);
  EXPECT_EQ(pl.probe_fleet(sc.transport(), 40e6), est::FleetVerdict::kAboveAvailBw);
  EXPECT_EQ(pl.probe_fleet(sc.transport(), 10e6), est::FleetVerdict::kBelowAvailBw);
}

TEST(Pathload, RejectsBadConfig) {
  est::PathloadConfig bad;
  bad.max_rate_bps = bad.min_rate_bps;
  EXPECT_THROW(est::Pathload{bad}, std::invalid_argument);
}

// ------------------------------------------------------------ pathChirp ---

TEST(PathChirp, RecoversAvailBwOnCbr) {
  auto sc = cbr_scenario();
  est::PathChirpConfig pc;
  pc.low_rate_bps = 4e6;
  pc.spread_factor = 1.2;
  pc.packets_per_chirp = 20;  // top rate ~ 4 * 1.2^18 ~ 106 Mb/s
  pc.chirps = 20;
  est::PathChirp chirp(pc);
  auto e = chirp.estimate(sc.transport());
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(e.point_bps(), 25e6, 8e6);
}

TEST(PathChirp, AnalyzeChirpRules) {
  est::PathChirpConfig pc;
  est::PathChirp chirp(pc);

  // Build a synthetic chirp: 12 gaps probing 10, 12, 14.4, ... Mb/s.
  std::vector<double> rates, gaps;
  double r = 10e6;
  for (int k = 0; k < 12; ++k) {
    rates.push_back(r);
    gaps.push_back(1000 * 8.0 / r);
    r *= 1.2;
  }

  // Case 1: no queueing anywhere -> estimate = top rate.
  std::vector<double> flat(13, 0.010);
  EXPECT_DOUBLE_EQ(chirp.analyze_chirp(flat, rates, gaps), rates.back());

  // Case 2: delays keep rising from packet 6 to the end (unterminated
  // excursion): estimate must drop to ~ the onset rate, far below top.
  std::vector<double> rising(13, 0.010);
  for (int i = 6; i < 13; ++i) rising[i] = 0.010 + 0.002 * (i - 5);
  double e2 = chirp.analyze_chirp(rising, rates, gaps);
  EXPECT_LT(e2, rates.back() * 0.8);
  EXPECT_GE(e2, rates.front() * 0.5);

  // Case 3: a transient mid-chirp excursion that clears -> estimate stays
  // near the top rate (burst, not congestion onset).
  std::vector<double> bump(13, 0.010);
  bump[4] = 0.012;
  bump[5] = 0.013;
  bump[6] = 0.011;
  double e3 = chirp.analyze_chirp(bump, rates, gaps);
  EXPECT_GT(e3, e2);
}

TEST(PathChirp, UnusableChirpReturnsZero) {
  est::PathChirpConfig pc;
  est::PathChirp chirp(pc);
  EXPECT_DOUBLE_EQ(chirp.analyze_chirp({1.0}, {}, {}), 0.0);
}

TEST(PathChirp, RejectsBadConfig) {
  est::PathChirpConfig bad;
  bad.spread_factor = 0.9;
  EXPECT_THROW(est::PathChirp{bad}, std::invalid_argument);
}

// -------------------------------------------------------------- IGI/PTR ---

TEST(IgiPtr, BothFormulasRecoverAvailBwOnCbr) {
  auto sc = cbr_scenario();
  est::IgiPtrConfig ic;
  ic.tight_capacity_bps = 50e6;
  est::IgiPtr igi(ic, est::IgiPtrFormula::kIgi);
  auto e = igi.estimate(sc.transport());
  ASSERT_TRUE(e.valid) << e.detail;
  EXPECT_NEAR(igi.last_ptr_bps(), 25e6, 6e6);
  EXPECT_NEAR(igi.last_igi_bps(), 25e6, 8e6);
  EXPECT_GT(igi.trains_used(), 0u);
}

TEST(IgiPtr, PtrFlavorReportsPtr) {
  auto sc = cbr_scenario(9);
  est::IgiPtrConfig ic;
  ic.tight_capacity_bps = 50e6;
  est::IgiPtr ptr(ic, est::IgiPtrFormula::kPtr);
  auto e = ptr.estimate(sc.transport());
  ASSERT_TRUE(e.valid);
  EXPECT_DOUBLE_EQ(e.point_bps(), ptr.last_ptr_bps());
  EXPECT_EQ(ptr.name(), "ptr");
  EXPECT_EQ(ptr.probing_class(), est::ProbingClass::kIterative);
}

TEST(IgiPtr, ClassificationMatchesPaper) {
  est::IgiPtrConfig ic;
  ic.tight_capacity_bps = 50e6;
  est::IgiPtr igi(ic, est::IgiPtrFormula::kIgi);
  EXPECT_EQ(igi.name(), "igi");
  EXPECT_EQ(igi.probing_class(), est::ProbingClass::kDirect);
}

TEST(IgiPtr, RequiresCapacity) {
  est::IgiPtrConfig bad;
  EXPECT_THROW(est::IgiPtr(bad, est::IgiPtrFormula::kIgi), std::invalid_argument);
}

// ---------------------------------------------------------------- BFind ---

TEST(Bfind, FindsAvailBwAndHopOnSingleHop) {
  auto sc = cbr_scenario();
  est::BfindConfig bc;
  bc.initial_rate_bps = 10e6;
  bc.rate_step_bps = 5e6;
  bc.max_rate_bps = 60e6;
  bc.step_duration = 300 * kMillisecond;
  est::Bfind bfind(bc);
  auto e = bfind.estimate(sc.transport());
  ASSERT_TRUE(e.valid) << e.detail;
  // BFind flags once its own probing pushes the hop past saturation:
  // probing rate + cross 25 >= 50 happens at rate ~25-35.
  EXPECT_GE(e.point_bps(), 20e6);
  EXPECT_LE(e.point_bps(), 40e6);
  EXPECT_EQ(bfind.flagged_hop(), 0u);
}

TEST(Bfind, FlagsTheTightHopInMultiHop) {
  core::MultiHopConfig mc;
  mc.hop_count = 3;
  mc.loaded_hops = {1};  // only the middle hop is tight
  mc.seed = 5;
  auto sc = core::Scenario::multi_hop(mc);
  est::BfindConfig bc;
  bc.initial_rate_bps = 10e6;
  bc.rate_step_bps = 5e6;
  bc.max_rate_bps = 60e6;
  bc.step_duration = 300 * kMillisecond;
  est::Bfind bfind(bc);
  auto e = bfind.estimate(sc.transport());
  ASSERT_TRUE(e.valid);
  EXPECT_EQ(bfind.flagged_hop(), 1u);
}

TEST(Bfind, InvalidWhenPathNeverCongests) {
  // Idle 100 Mb/s path probed only up to 30 Mb/s: no queue ever grows.
  std::vector<sim::LinkConfig> links(1);
  links[0].capacity_bps = 100e6;
  auto sc = core::Scenario::custom(links, 8);
  est::BfindConfig bc;
  bc.initial_rate_bps = 10e6;
  bc.rate_step_bps = 10e6;
  bc.max_rate_bps = 30e6;
  bc.step_duration = 200 * kMillisecond;
  est::Bfind bfind(bc);
  auto e = bfind.estimate(sc.transport());
  EXPECT_FALSE(e.valid);
}

TEST(Bfind, RejectsBadConfig) {
  est::BfindConfig bad;
  bad.rate_step_bps = 0.0;
  EXPECT_THROW(est::Bfind{bad}, std::invalid_argument);
}

// -------------------------------------------------------- estimator API ---

TEST(EstimatorApi, NamesAndClasses) {
  est::PathloadConfig pc;
  est::Pathload pl(pc);
  EXPECT_EQ(pl.name(), "pathload");
  EXPECT_EQ(pl.probing_class(), est::ProbingClass::kIterative);

  est::DirectConfig dc;
  dc.tight_capacity_bps = 50e6;
  est::DirectProber dp(dc);
  EXPECT_EQ(dp.name(), "direct");
  EXPECT_EQ(dp.probing_class(), est::ProbingClass::kDirect);
}

TEST(EstimatorApi, EstimateHelpers) {
  auto p = est::Estimate::point(10e6);
  EXPECT_TRUE(p.valid);
  EXPECT_DOUBLE_EQ(p.low_bps, p.high_bps);
  auto r = est::Estimate::range(1e6, 3e6);
  EXPECT_DOUBLE_EQ(r.point_bps(), 2e6);
  auto bad = est::Estimate::invalid("nope");
  EXPECT_FALSE(bad.valid);
  EXPECT_EQ(bad.detail, "nope");
}

}  // namespace
