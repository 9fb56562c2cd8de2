// Estimator corner cases and robustness: brackets that miss the avail-bw,
// probing rates above capacity, idle and saturated paths, random loss,
// and cross-estimator session reuse.
#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "est/direct.hpp"
#include "est/pathchirp.hpp"
#include "est/pathload.hpp"
#include "est/spruce.hpp"
#include "est/topp.hpp"
#include "traffic/cbr.hpp"

namespace {

using namespace abw;
using abw::sim::kSecond;

// ------------------------------------------------ bracket misplacement ---

TEST(Corner, PathloadBracketEntirelyBelowAvailBw) {
  // A = 25; search in [2, 15]: every fleet passes clean, so the search
  // collapses to the top of the bracket — the tool can only report
  // "A >= ~15", and must not fabricate a mid-bracket estimate.
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  est::PathloadConfig pc;
  pc.min_rate_bps = 2e6;
  pc.max_rate_bps = 15e6;
  est::Pathload pl(pc);
  auto e = pl.estimate(sc.transport());
  if (e.valid) {
    EXPECT_GT(e.high_bps, 13e6);
  }
}

TEST(Corner, PathloadBracketEntirelyAboveAvailBw) {
  // A = 5 (45 Mb/s of cross); search in [30, 49]: every fleet congests,
  // so the search collapses to the bottom of the bracket.
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  cfg.cross_rate_bps = 45e6;
  auto sc = core::Scenario::single_hop(cfg);
  est::PathloadConfig pc;
  pc.min_rate_bps = 30e6;
  pc.max_rate_bps = 49e6;
  est::Pathload pl(pc);
  auto e = pl.estimate(sc.transport());
  if (e.valid) {
    EXPECT_LT(e.low_bps, 32e6);
  }
}

// ----------------------------------------------------- saturated paths ---

TEST(Corner, NearSaturatedPathStillEstimable) {
  // 94% utilization: A = 3 Mb/s.  Iterative probing must find it.
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  cfg.cross_rate_bps = 47e6;
  auto sc = core::Scenario::single_hop(cfg);
  est::PathloadConfig pc;
  pc.min_rate_bps = 0.5e6;
  pc.max_rate_bps = 20e6;
  pc.resolution_bps = 1e6;
  est::Pathload pl(pc);
  auto e = pl.estimate(sc.transport());
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(e.point_bps(), 3e6, 2.5e6);
}

TEST(Corner, IdlePathEstimatesNearCapacity) {
  std::vector<sim::LinkConfig> links(1);
  links[0].capacity_bps = 50e6;
  auto sc = core::Scenario::custom(links, 3);
  est::PathloadConfig pc;
  pc.min_rate_bps = 2e6;
  pc.max_rate_bps = 49.5e6;
  est::Pathload pl(pc);
  auto e = pl.estimate(sc.transport());
  ASSERT_TRUE(e.valid);
  EXPECT_GT(e.high_bps, 45e6);
}

// -------------------------------------------------------- over-driving ---

TEST(Corner, DirectProbingAtRatesNearCapacity) {
  // Ri = 0.98 * Ct: streams arrive as fast as the link can carry them;
  // Eq. 9 must still recover A (the regime Spruce operates in).
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  est::DirectConfig dc;
  dc.tight_capacity_bps = cfg.capacity_bps;
  dc.input_rate_bps = 49e6;
  dc.stream_count = 10;
  est::DirectProber prober(dc);
  auto e = prober.estimate(sc.transport());
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(e.point_bps(), 25e6, 3e6);
}

TEST(Corner, ProbingAboveCapacityDrainsAtCapacity) {
  // Input rate above the narrow capacity: Ro ~= Ct - Rc regardless of Ri.
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  auto res = sc.transport().send_stream(
      probe::StreamSpec::periodic(80e6, 1500, 200));
  // The stream floods a 50 Mb/s link while CBR cross claims 25: probe
  // share is bounded by C - Rc ... C depending on queue contention.
  EXPECT_LT(res.output_rate_bps(), 52e6);
  EXPECT_GT(res.output_rate_bps(), 20e6);
}

// ------------------------------------------------------ adaptive rate ---

TEST(Corner, AdaptiveDirectRecoversFromBadInitialRate) {
  // Start probing at 6 Mb/s — far below A = 25, so the first streams
  // yield nothing; the Delphi-style adaptation must climb above A and
  // then converge.
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  est::DirectConfig dc;
  dc.tight_capacity_bps = cfg.capacity_bps;
  dc.input_rate_bps = 6e6;
  dc.stream_count = 30;
  dc.adaptive = true;
  est::DirectProber prober(dc);
  auto e = prober.estimate(sc.transport());
  ASSERT_TRUE(e.valid) << e.detail;
  EXPECT_NEAR(e.point_bps(), 25e6, 3e6);
  // The adapted operating rate sits between A and Ct.
  EXPECT_GT(prober.current_rate_bps(), 25e6);
  EXPECT_LT(prober.current_rate_bps(), 50e6);
}

TEST(Corner, NonAdaptiveWithSameBadRateStaysInvalid) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  est::DirectConfig dc;
  dc.tight_capacity_bps = cfg.capacity_bps;
  dc.input_rate_bps = 6e6;
  dc.stream_count = 10;
  est::DirectProber prober(dc);
  EXPECT_FALSE(prober.estimate(sc.transport()).valid);
}

// ------------------------------------------------------- lossy paths ---

TEST(Corner, PathloadSurvivesRandomLoss) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  cfg.random_loss_prob = 0.01;
  auto sc = core::Scenario::single_hop(cfg);
  est::PathloadConfig pc;
  pc.min_rate_bps = 2e6;
  pc.max_rate_bps = 49e6;
  est::Pathload pl(pc);
  auto e = pl.estimate(sc.transport());
  ASSERT_TRUE(e.valid);
  // 1% random loss biases Pathload low (lossy streams read as congestion)
  // but must not produce nonsense.
  EXPECT_GT(e.point_bps(), 10e6);
  EXPECT_LT(e.point_bps(), 35e6);
}

TEST(Corner, SpruceSurvivesRandomLoss) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  cfg.random_loss_prob = 0.02;
  auto sc = core::Scenario::single_hop(cfg);
  est::SpruceConfig spc;
  spc.tight_capacity_bps = cfg.capacity_bps;
  spc.pair_count = 200;
  est::Spruce spruce(spc, sc.rng().fork());
  auto e = spruce.estimate(sc.transport());
  ASSERT_TRUE(e.valid);  // pairs with a lost packet are skipped
  EXPECT_NEAR(e.point_bps(), 25e6, 5e6);
}

// ------------------------------------------------------ session reuse ---

TEST(Corner, SequentialEstimatorsShareOneSession) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);

  est::DirectConfig dc;
  dc.tight_capacity_bps = cfg.capacity_bps;
  dc.stream_count = 5;
  est::DirectProber direct(dc);
  auto e1 = direct.estimate(sc.transport());

  est::PathloadConfig pc;
  pc.min_rate_bps = 2e6;
  pc.max_rate_bps = 49e6;
  est::Pathload pl(pc);
  auto e2 = pl.estimate(sc.transport());

  ASSERT_TRUE(e1.valid);
  ASSERT_TRUE(e2.valid);
  EXPECT_NEAR(e1.point_bps(), 25e6, 3e6);
  EXPECT_NEAR(e2.point_bps(), 25e6, 4e6);
  // Costs accumulate monotonically across tools.
  EXPECT_GT(e2.cost.packets, e1.cost.packets);
}

// Estimator::estimate() stamps the transport's running cost on every
// result, an abort that sends nothing included: spruce's "budget below
// one pair" abort reports the stream sent before it.
TEST(Corner, AbortBeforeAnyStreamStillReportsTransportCost) {
  core::SingleHopConfig cfg;
  auto sc = core::Scenario::single_hop(cfg);
  sc.transport().send_stream(probe::StreamSpec::periodic(10e6, 1500, 10));

  est::SpruceConfig spc;
  spc.tight_capacity_bps = cfg.capacity_bps;
  est::Spruce spruce(spc, sc.rng().fork());
  est::EstimatorLimits limits;
  limits.max_probe_packets = 1;
  spruce.set_limits(limits);
  est::Estimate e = spruce.estimate(sc.transport());
  EXPECT_FALSE(e.valid);
  EXPECT_EQ(e.abort, est::AbortReason::kProbeBudgetExhausted);
  EXPECT_EQ(e.cost.streams, 1u);
  EXPECT_EQ(e.cost.packets, 10u);
}

// -------------------------------------------------- tiny-queue regime ---

TEST(Corner, TinyQueueTurnsCongestionIntoLoss) {
  // Six packets of buffer: congestion shows up as loss, not as an OWD
  // trend (the delay saturates at the queue cap).  Pathload's >10%-loss
  // rule must still call the over-avail-bw rate "above".
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  cfg.queue_limit_bytes = 6 * 1500;
  auto sc = core::Scenario::single_hop(cfg);
  auto res = sc.transport().send_stream(
      probe::StreamSpec::periodic(45e6, 1500, 300));
  EXPECT_GT(res.lost_count(), 0u);
  est::PathloadConfig pc;
  est::Pathload pl(pc);
  EXPECT_EQ(pl.probe_fleet(sc.transport(), 48e6), est::FleetVerdict::kAboveAvailBw);
  EXPECT_EQ(pl.probe_fleet(sc.transport(), 10e6), est::FleetVerdict::kBelowAvailBw);
}

// ------------------------------------------------- pathchirp edge data ---

TEST(Corner, PathChirpHandlesDegenerateSignatures) {
  est::PathChirpConfig pc;
  est::PathChirp chirp(pc);
  // Mismatched sizes are rejected as unusable, not UB.
  EXPECT_DOUBLE_EQ(chirp.analyze_chirp({1, 2, 3}, {1e6}, {0.1}), 0.0);
  // All-equal OWDs: no queueing, estimate = top rate.
  std::vector<double> owds(10, 0.01);
  std::vector<double> rates(9), gaps(9);
  for (int i = 0; i < 9; ++i) {
    rates[i] = 1e6 * (i + 1);
    gaps[i] = 0.001;
  }
  EXPECT_DOUBLE_EQ(chirp.analyze_chirp(owds, rates, gaps), 9e6);
}

TEST(Corner, ToppNarrowSweepIsInvalidNotWrong) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  est::ToppConfig tc;
  tc.min_rate_bps = 2e6;
  tc.max_rate_bps = 8e6;  // entirely below A: no turning point to find
  tc.rate_step_bps = 2e6;
  est::Topp topp(tc, sc.rng().fork());
  auto e = topp.estimate(sc.transport());
  // Either invalid, or the fallback pinned at the sweep ceiling.
  if (e.valid) {
    EXPECT_GE(e.point_bps(), 6e6);
  }
}

}  // namespace
