// Cross-module integration tests: every estimator run end-to-end against
// simulated ground truth, and the ten fallacy demonstrations themselves.
// These are the library's "does the whole thing hang together" checks.
#include <gtest/gtest.h>

#include <tuple>

#include "core/fallacies.hpp"
#include "core/scenario.hpp"
#include "est/direct.hpp"
#include "est/igi_ptr.hpp"
#include "est/pathchirp.hpp"
#include "est/pathload.hpp"
#include "est/spruce.hpp"
#include "est/topp.hpp"

namespace {

using namespace abw;
using abw::sim::kSecond;

// Build every tool with comparable configuration against a known path —
// the "same configuration parameters" comparison the paper calls for.
std::vector<std::unique_ptr<est::Estimator>> make_tools(double ct,
                                                        stats::Rng& rng) {
  std::vector<std::unique_ptr<est::Estimator>> tools;
  est::DirectConfig dc;
  dc.tight_capacity_bps = ct;
  dc.input_rate_bps = 0.8 * ct;
  tools.push_back(std::make_unique<est::DirectProber>(dc));

  est::SpruceConfig spc;
  spc.tight_capacity_bps = ct;
  tools.push_back(std::make_unique<est::Spruce>(spc, rng.fork()));

  est::ToppConfig tc;
  tc.min_rate_bps = 0.1 * ct;
  tc.max_rate_bps = 0.96 * ct;
  tc.rate_step_bps = 0.04 * ct;
  tools.push_back(std::make_unique<est::Topp>(tc, rng.fork()));

  est::PathloadConfig pc;
  pc.min_rate_bps = 0.04 * ct;
  pc.max_rate_bps = 0.98 * ct;
  tools.push_back(std::make_unique<est::Pathload>(pc));

  est::PathChirpConfig cc;
  cc.low_rate_bps = 0.08 * ct;
  cc.packets_per_chirp = 20;
  tools.push_back(std::make_unique<est::PathChirp>(cc));

  est::IgiPtrConfig ic;
  ic.tight_capacity_bps = ct;
  tools.push_back(std::make_unique<est::IgiPtr>(ic, est::IgiPtrFormula::kPtr));
  return tools;
}

TEST(AllTools, AgreeOnFluidLikePath) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  cfg.seed = 3;
  auto sc = core::Scenario::single_hop(cfg);
  auto tools = make_tools(cfg.capacity_bps, sc.rng());
  for (auto& tool : tools) {
    auto e = tool->estimate(sc.transport());
    ASSERT_TRUE(e.valid) << tool->name() << ": " << e.detail;
    EXPECT_NEAR(e.point_bps(), 25e6, 8e6) << tool->name();
  }
}

TEST(AllTools, StayInPhysicalRangeUnderBurstyCross) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kParetoOnOff;
  cfg.seed = 5;
  auto sc = core::Scenario::single_hop(cfg);
  auto tools = make_tools(cfg.capacity_bps, sc.rng());
  for (auto& tool : tools) {
    auto e = tool->estimate(sc.transport());
    if (!e.valid) continue;  // bursty paths can defeat individual tools
    EXPECT_GE(e.low_bps, 0.0) << tool->name();
    EXPECT_LE(e.high_bps, cfg.capacity_bps * 1.05) << tool->name();
  }
}

TEST(AllTools, ProbingClassesMatchPaperTaxonomy) {
  stats::Rng rng(1);
  auto tools = make_tools(50e6, rng);
  std::size_t direct = 0, iterative = 0;
  for (auto& t : tools)
    (t->probing_class() == est::ProbingClass::kDirect ? direct : iterative)++;
  EXPECT_EQ(direct, 2u);     // direct prober, spruce
  EXPECT_EQ(iterative, 4u);  // topp, pathload, pathchirp, ptr
}

TEST(AllTools, CostAccountingIsMonotone) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  est::SpruceConfig spc;
  spc.tight_capacity_bps = cfg.capacity_bps;
  est::Spruce spruce(spc, sc.rng().fork());
  auto before = sc.transport().cost().packets;
  auto e = spruce.estimate(sc.transport());
  ASSERT_TRUE(e.valid);
  EXPECT_EQ(e.cost.packets - before, 200u);  // 100 pairs
}

TEST(MultiHop, GroundTruthStillMinimum) {
  core::MultiHopConfig mc;
  mc.hop_count = 5;
  mc.loaded_hops = {0, 1, 2, 3, 4};
  mc.seed = 7;
  auto sc = core::Scenario::multi_hop(mc);
  sc.simulator().run_until(12 * kSecond);
  double truth = sc.ground_truth(2 * kSecond, 12 * kSecond);
  EXPECT_NEAR(truth, 25e6, 3e6);
}

TEST(MultiHop, PathloadStillBracketsOnCbr) {
  core::MultiHopConfig mc;
  mc.hop_count = 3;
  mc.loaded_hops = {0, 1, 2};
  mc.model = core::CrossModel::kCbr;
  mc.seed = 9;
  auto sc = core::Scenario::multi_hop(mc);
  est::PathloadConfig pc;
  pc.min_rate_bps = 2e6;
  pc.max_rate_bps = 49e6;
  est::Pathload pl(pc);
  auto e = pl.estimate(sc.transport());
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(e.point_bps(), 25e6, 8e6);
}

// --------------------------------------------------- the ten fallacies ---

TEST(Fallacies, TitlesAndKindsCoverAllTen) {
  for (int id = 1; id <= core::kFallacyCount; ++id) {
    EXPECT_FALSE(core::fallacy_title(id).empty());
    (void)core::fallacy_kind(id);
  }
  EXPECT_THROW(core::fallacy_title(0), std::out_of_range);
  EXPECT_THROW(core::fallacy_title(11), std::out_of_range);
  EXPECT_EQ(core::fallacy_kind(3), core::MisconceptionKind::kFallacy);
  EXPECT_EQ(core::fallacy_kind(6), core::MisconceptionKind::kPitfall);
}

// Each demonstration runs and reproduces the paper's qualitative claim —
// across several seeds, so the catalogue is not tuned to one lucky RNG
// stream.
class FallacyRun
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(FallacyRun, Demonstrates) {
  auto [id, seed] = GetParam();
  auto r = core::run_fallacy(id, seed);
  EXPECT_EQ(r.id, id);
  EXPECT_FALSE(r.evidence.empty());
  EXPECT_TRUE(r.demonstrated) << "#" << r.id << " " << r.title << " (seed "
                              << seed << ")\n  " << r.evidence;
}

INSTANTIATE_TEST_SUITE_P(
    AllTenBySeeds, FallacyRun,
    ::testing::Combine(::testing::Range(1, 11),
                       ::testing::Values(20260707ull, 777ull, 424242ull)));

}  // namespace
