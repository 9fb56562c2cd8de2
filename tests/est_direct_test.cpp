// Tests for the direct-probing estimators (Delphi-style direct, Spruce)
// and the packet-pair capacity estimator: accuracy on fluid-like traffic,
// the Eq. 9 algebra, and the documented failure modes the paper warns
// about.
#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "est/capacity.hpp"
#include "est/direct.hpp"
#include "est/spruce.hpp"
#include "traffic/poisson.hpp"

namespace {

using namespace abw;
using abw::sim::kMillisecond;
using abw::sim::kSecond;

// ------------------------------------------------------------ equation ---

TEST(DirectEquation, InvertsEquationEight) {
  // If Ro came from Eq. 8 with known A, Eq. 9 must return that A.
  double ct = 50e6, a = 25e6;
  for (double ri : {30e6, 40e6, 49e6}) {
    double ro = ri * ct / (ct + ri - a);
    auto est = est::direct_probe_equation(ct, ri, ro);
    ASSERT_TRUE(est.has_value());
    EXPECT_NEAR(*est, a, 1.0) << "Ri=" << ri;
  }
}

TEST(DirectEquation, UncongestedStreamGivesNoSample) {
  EXPECT_FALSE(est::direct_probe_equation(50e6, 20e6, 20e6).has_value());
  EXPECT_FALSE(est::direct_probe_equation(50e6, 20e6, 21e6).has_value());
}

TEST(DirectEquation, RejectsNonPositiveRates) {
  EXPECT_THROW(est::direct_probe_equation(0, 1, 1), std::invalid_argument);
  EXPECT_THROW(est::direct_probe_equation(1, 0, 1), std::invalid_argument);
}

// --------------------------------------------------------- DirectProber ---

TEST(DirectProber, RecoversAvailBwOnCbr) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  est::DirectConfig dc;
  dc.tight_capacity_bps = cfg.capacity_bps;
  dc.input_rate_bps = 40e6;
  est::DirectProber prober(dc);
  auto e = prober.estimate(sc.transport());
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(e.point_bps(), 25e6, 1e6);
}

TEST(DirectProber, RecoversAvailBwOnPoissonWithinVariability) {
  core::SingleHopConfig cfg;
  auto sc = core::Scenario::single_hop(cfg);
  est::DirectConfig dc;
  dc.tight_capacity_bps = cfg.capacity_bps;
  dc.input_rate_bps = 40e6;
  dc.stream_count = 40;
  est::DirectProber prober(dc);
  auto e = prober.estimate(sc.transport());
  ASSERT_TRUE(e.valid);
  // Bursty cross traffic biases direct probing low (the paper's point);
  // accept up to 20% underestimation but no overestimation beyond noise.
  EXPECT_GT(e.point_bps(), 25e6 * 0.75);
  EXPECT_LT(e.point_bps(), 25e6 * 1.1);
}

// Property sweep: the prober tracks the configured avail-bw across
// utilizations (CBR cross, fluid-like regime).
class DirectSweep : public ::testing::TestWithParam<double> {};

TEST_P(DirectSweep, TracksConfiguredAvailBw) {
  double cross = GetParam();
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  cfg.cross_rate_bps = cross;
  cfg.seed = 42;
  auto sc = core::Scenario::single_hop(cfg);
  double a = cfg.capacity_bps - cross;

  est::DirectConfig dc;
  dc.tight_capacity_bps = cfg.capacity_bps;
  dc.input_rate_bps = std::min(cfg.capacity_bps * 0.96, a + 15e6);
  dc.stream_count = 10;
  est::DirectProber prober(dc);
  auto e = prober.estimate(sc.transport());
  ASSERT_TRUE(e.valid) << "cross=" << cross;
  EXPECT_NEAR(e.point_bps(), a, a * 0.08) << "cross=" << cross;
}

INSTANTIATE_TEST_SUITE_P(UtilizationSweep, DirectSweep,
                         ::testing::Values(10e6, 20e6, 30e6, 40e6));

TEST(DirectProber, WrongCapacityBiasesEstimate) {
  // The narrow-vs-tight pitfall in miniature: feeding the wrong Ct into
  // Eq. 9 shifts the estimate.
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  est::DirectConfig dc;
  dc.tight_capacity_bps = 30e6;  // wrong: true Ct is 50
  dc.input_rate_bps = 40e6;
  est::DirectProber prober(dc);
  auto e = prober.estimate(sc.transport());
  ASSERT_TRUE(e.valid);
  EXPECT_GT(std::abs(e.point_bps() - 25e6), 3e6);
}

TEST(DirectProber, InvalidWhenNeverCongesting) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  est::DirectConfig dc;
  dc.tight_capacity_bps = cfg.capacity_bps;
  dc.input_rate_bps = 10e6;  // far below A = 25
  dc.stream_count = 5;
  est::DirectProber prober(dc);
  auto e = prober.estimate(sc.transport());
  EXPECT_FALSE(e.valid);
}

TEST(DirectProber, StreamSpecHonorsDuration) {
  est::DirectConfig dc;
  dc.tight_capacity_bps = 50e6;
  dc.input_rate_bps = 40e6;
  dc.stream_duration = 100 * kMillisecond;
  est::DirectProber prober(dc);
  auto spec = prober.stream_spec();
  EXPECT_NEAR(sim::to_seconds(spec.span()), 0.1, 0.001);
  EXPECT_NEAR(spec.nominal_rate_bps(), 40e6, 1e3);
}

TEST(DirectProber, RequiresCapacity) {
  est::DirectConfig dc;  // tight_capacity_bps = 0
  EXPECT_THROW(est::DirectProber{dc}, std::invalid_argument);
}

// --------------------------------------------------------------- Spruce ---

TEST(Spruce, AccurateOnCbrCross) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  est::SpruceConfig spc;
  spc.tight_capacity_bps = cfg.capacity_bps;
  est::Spruce spruce(spc, sc.rng().fork());
  auto e = spruce.estimate(sc.transport());
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(e.point_bps(), 25e6, 3e6);
  EXPECT_EQ(spruce.last_samples().size(), 100u);
}

TEST(Spruce, ReasonableOnPoissonCross) {
  core::SingleHopConfig cfg;
  cfg.seed = 7;
  auto sc = core::Scenario::single_hop(cfg);
  est::SpruceConfig spc;
  spc.tight_capacity_bps = cfg.capacity_bps;
  spc.pair_count = 300;
  est::Spruce spruce(spc, sc.rng().fork());
  auto e = spruce.estimate(sc.transport());
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(e.point_bps(), 25e6, 5e6);
}

TEST(Spruce, SamplesClampedToPhysicalRange) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kParetoOnOff;
  auto sc = core::Scenario::single_hop(cfg);
  est::SpruceConfig spc;
  spc.tight_capacity_bps = cfg.capacity_bps;
  est::Spruce spruce(spc, sc.rng().fork());
  (void)spruce.estimate(sc.transport());
  for (double s : spruce.last_samples()) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, cfg.capacity_bps);
  }
}

TEST(Spruce, RequiresCapacity) {
  est::SpruceConfig spc;
  EXPECT_THROW(est::Spruce(spc, stats::Rng(1)), std::invalid_argument);
}

// ------------------------------------------------------------ Capacity ---

TEST(CapacityEstimator, FindsNarrowLinkOnIdlePath) {
  std::vector<sim::LinkConfig> links(3);
  links[0].capacity_bps = 100e6;
  links[1].capacity_bps = 30e6;  // narrow
  links[2].capacity_bps = 80e6;
  auto sc = core::Scenario::custom(links, 5);
  est::CapacityConfig cc;
  est::CapacityEstimator cap(cc, sc.rng().fork());
  double cn = cap.estimate_capacity(sc.transport());
  EXPECT_NEAR(cn, 30e6, 30e6 * 0.1);
}

TEST(CapacityEstimator, FindsNarrowNotTight) {
  // The pitfall topology: tight link (50 Mb/s, loaded) before a narrow
  // link (40 Mb/s, idle).  A capacity tool must report ~40, not 50.
  std::vector<sim::LinkConfig> links(2);
  links[0].capacity_bps = 50e6;
  links[1].capacity_bps = 40e6;
  auto sc = core::Scenario::custom(links, 6);
  traffic::PoissonGenerator cross(sc.simulator(), sc.path(), 0, true, 1,
                                  sc.rng().fork(), 35e6,
                                  traffic::SizeDistribution::fixed(1500));
  cross.start(0, 120 * kSecond);
  sc.simulator().run_until(kSecond);

  est::CapacityConfig cc;
  cc.pair_count = 200;
  est::CapacityEstimator cap(cc, sc.rng().fork());
  double cn = cap.estimate_capacity(sc.transport());
  EXPECT_NEAR(cn, 40e6, 40e6 * 0.15);
  // Tight-link avail-bw is 15 Mb/s — far below the capacity estimate, so
  // using cn as Ct in Eq. 9 is the documented mistake.
  EXPECT_GT(cn, 20e6);
}

TEST(CapacityEstimator, SamplesExposedForDiagnostics) {
  std::vector<sim::LinkConfig> links(1);
  links[0].capacity_bps = 25e6;
  auto sc = core::Scenario::custom(links, 7);
  est::CapacityConfig cc;
  cc.pair_count = 50;
  est::CapacityEstimator cap(cc, sc.rng().fork());
  (void)cap.estimate_capacity(sc.transport());
  EXPECT_EQ(cap.last_samples().size(), 50u);
}

}  // namespace
