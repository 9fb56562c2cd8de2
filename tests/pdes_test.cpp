// Conservative parallel DES correctness suite (sim/domain.hpp,
// sim/partition.hpp, core/parallel_scenario.hpp).  The vectorized
// FluidQueue bulk-retirement equivalence proofs live in fluid_test.
//
// The two load-bearing properties:
//
//  * Thread-count invariance: for a FIXED partition, per-link stats,
//    per-packet probe timestamps, per-domain event counts, and handoff
//    totals are bit-identical under 1, 2, and 4 worker threads.
//
//  * Cut invariance: for a FIXED worker-independent seeding scheme
//    (ParallelScenario derives per-hop RNGs from the global hop index),
//    ANY legal partition — including the trivial single-domain one —
//    produces identical physics: LinkStats, StreamResults, ground truth,
//    and the online estimator belief fed from those streams.  This is
//    checked over randomized cut sets, not a hand-picked pair.
//
// Registered under ctest label "tsan": built with -DABW_TSAN=ON this
// suite exercises the two-barrier window engine under ThreadSanitizer.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "core/parallel_scenario.hpp"
#include "core/scenario.hpp"
#include "est/online/kalman.hpp"
#include "sim/domain.hpp"
#include "sim/link.hpp"
#include "sim/partition.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace abw;

struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void f64(double d) { u64(std::bit_cast<std::uint64_t>(d)); }
  void b(bool v) { u64(v ? 1 : 0); }
  void time(sim::SimTime t) { u64(static_cast<std::uint64_t>(t)); }
};

void digest_link(Digest& d, const sim::Link& link) {
  const sim::LinkStats& s = link.stats();
  d.u64(s.packets_in);
  d.u64(s.packets_out);
  d.u64(s.packets_dropped);
  d.u64(s.bytes_in);
  d.u64(s.bytes_out);
}

void digest_stream(Digest& d, const probe::StreamResult& res) {
  d.u64(res.stream_id);
  d.u64(res.duplicate_count);
  d.u64(res.reordered_count);
  for (const auto& p : res.packets) {
    d.u64(p.seq);
    d.time(p.sent);
    d.time(p.received);
    d.b(p.lost);
  }
}

std::vector<sim::LinkConfig> uniform_links(std::size_t hops, sim::SimTime prop) {
  sim::LinkConfig lc;
  lc.capacity_bps = 50e6;
  lc.propagation_delay = prop;
  lc.queue_limit_bytes = 2 << 20;
  return std::vector<sim::LinkConfig>(hops, lc);
}

// ---------------------------------------------------------------------------
// Partition planning

TEST(PartitionPlan, FromCutsComputesLookaheadAndBounds) {
  auto links = uniform_links(8, 5 * sim::kMillisecond);
  links[3].propagation_delay = 2 * sim::kMillisecond;
  auto plan = sim::plan_from_cuts(links, {1, 3, 5});
  EXPECT_EQ(plan.domain_count(), 4u);
  EXPECT_EQ(plan.domain_end, (std::vector<std::size_t>{2, 4, 6, 8}));
  EXPECT_EQ(plan.lookahead, 2 * sim::kMillisecond);  // min cut latency
  EXPECT_EQ(plan.domain_begin(0), 0u);
  EXPECT_EQ(plan.domain_begin(2), 4u);
  EXPECT_EQ(plan.domain_of(0), 0u);
  EXPECT_EQ(plan.domain_of(3), 1u);
  EXPECT_EQ(plan.domain_of(7), 3u);
}

TEST(PartitionPlan, RejectsIllegalCuts) {
  auto links = uniform_links(4, sim::kMillisecond);
  EXPECT_THROW(sim::plan_from_cuts(links, {3}), std::invalid_argument);
  EXPECT_THROW(sim::plan_from_cuts(links, {2, 1}), std::invalid_argument);
  EXPECT_THROW(sim::plan_from_cuts(links, {1, 1}), std::invalid_argument);
  links[1].propagation_delay = 0;
  EXPECT_THROW(sim::plan_from_cuts(links, {1}), std::invalid_argument);
}

TEST(PartitionPlan, AutoPlannerBalancesAndFallsBack) {
  auto links = uniform_links(8, 5 * sim::kMillisecond);
  auto plan = sim::plan_partition(links, 4);
  EXPECT_EQ(plan.domain_count(), 4u);
  EXPECT_EQ(plan.domain_end, (std::vector<std::size_t>{2, 4, 6, 8}));

  // Only one viable cut: falls back to two domains.
  auto sparse = uniform_links(8, 0);
  sparse[4].propagation_delay = 3 * sim::kMillisecond;
  sparse[7].propagation_delay = 3 * sim::kMillisecond;  // final link: not a cut
  auto plan2 = sim::plan_partition(sparse, 4);
  EXPECT_EQ(plan2.domain_count(), 2u);
  EXPECT_EQ(plan2.domain_end, (std::vector<std::size_t>{5, 8}));

  // No viable cut at all: the trivial single-domain plan.
  auto flat = uniform_links(3, 0);
  auto plan3 = sim::plan_partition(flat, 4);
  EXPECT_EQ(plan3.domain_count(), 1u);
  EXPECT_GT(plan3.lookahead, 0);
}

// ---------------------------------------------------------------------------
// Thread-count invariance (fixed partition)

core::ParallelScenarioConfig invariance_config(std::size_t threads) {
  core::ParallelScenarioConfig cfg;
  cfg.hop_count = 8;
  cfg.capacity_bps = 50e6;
  cfg.cross_rate_bps = 20e6;
  cfg.model = core::CrossModel::kPoisson;
  cfg.propagation_delay = 5 * sim::kMillisecond;
  cfg.traffic_horizon = 5 * sim::kSecond;
  cfg.warmup = 200 * sim::kMillisecond;
  cfg.seed = 17;
  cfg.cuts = {1, 3, 5};  // 4 domains
  cfg.threads = threads;
  return cfg;
}

struct InvarianceRun {
  std::uint64_t digest = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t probe_packets = 0;
  std::vector<std::uint64_t> domain_events;
};

InvarianceRun run_invariance(std::size_t threads) {
  core::ParallelScenario sc(invariance_config(threads));
  Digest d;
  InvarianceRun out;
  for (int k = 0; k < 3; ++k) {
    auto res =
        sc.send_periodic_stream(20e6 + 5e6 * k, 1500, 80, sim::kMillisecond);
    out.probe_packets += res.packets.size();
    digest_stream(d, res);
    d.f64(res.output_rate_bps());
  }
  for (std::size_t g = 0; g < sc.parallel().hop_count(); ++g)
    digest_link(d, sc.parallel().link(g));
  d.f64(sc.ground_truth(100 * sim::kMillisecond, sc.now()));
  for (std::size_t dm = 0; dm < sc.parallel().domain_count(); ++dm) {
    const std::uint64_t ev = sc.parallel().domain(dm).stats().events;
    out.domain_events.push_back(ev);
    d.u64(ev);
  }
  d.u64(sc.parallel().windows());
  d.u64(sc.parallel().handoffs());
  out.handoffs = sc.parallel().handoffs();
  out.digest = d.h;
  return out;
}

TEST(ParallelDes, BitIdenticalAcrossWorkerThreadCounts) {
  const InvarianceRun one = run_invariance(1);
  const InvarianceRun two = run_invariance(2);
  const InvarianceRun four = run_invariance(4);
  EXPECT_EQ(one.digest, two.digest);
  EXPECT_EQ(one.digest, four.digest);
  EXPECT_EQ(one.domain_events, two.domain_events);
  EXPECT_EQ(one.domain_events, four.domain_events);
}

TEST(ParallelDes, HandoffAccountingIsExact) {
  const InvarianceRun r = run_invariance(2);
  // Cross traffic is one-hop persistent and never crosses a cut; with no
  // drops, every probe packet crosses every one of the 3 cuts exactly
  // once.
  EXPECT_EQ(r.handoffs, r.probe_packets * 3);
  EXPECT_GT(r.probe_packets, 0u);
}

// ---------------------------------------------------------------------------
// Cut invariance (randomized partition boundaries)

struct CutRun {
  std::uint64_t physics_digest = 0;  // links + streams + ground truth
  double kalman_estimate = 0.0;
  double kalman_alpha = 0.0;
};

CutRun run_with_cuts(const std::vector<std::size_t>& cuts, sim::SimMode mode,
                     std::size_t threads) {
  core::ParallelScenarioConfig cfg;
  cfg.hop_count = 6;
  cfg.loaded_hops = {0, 2, 4};
  cfg.capacity_bps = 50e6;
  cfg.cross_rate_bps = 25e6;
  cfg.mode = mode;
  cfg.model = core::CrossModel::kPoisson;
  cfg.propagation_delay = 5 * sim::kMillisecond;
  cfg.traffic_horizon = 5 * sim::kSecond;
  cfg.warmup = 200 * sim::kMillisecond;
  cfg.seed = 29;
  cfg.cuts = cuts;
  if (cuts.empty()) cfg.domains = 1;
  cfg.threads = threads;
  core::ParallelScenario sc(cfg);

  est::online::KalmanTracker kalman;
  Digest d;
  for (int k = 0; k < 4; ++k) {
    auto res =
        sc.send_periodic_stream(18e6 + 6e6 * k, 1500, 60, sim::kMillisecond);
    digest_stream(d, res);
    kalman.feed(res);
  }
  for (std::size_t g = 0; g < sc.parallel().hop_count(); ++g)
    digest_link(d, sc.parallel().link(g));
  d.f64(sc.ground_truth(100 * sim::kMillisecond, sc.now()));

  CutRun out;
  out.physics_digest = d.h;
  out.kalman_estimate = kalman.belief().estimate_bps;
  out.kalman_alpha = kalman.alpha();
  return out;
}

TEST(ParallelDes, AnyLegalCutMatchesTheSingleDomainRun) {
  const CutRun base = run_with_cuts({}, sim::SimMode::kPacket, 1);

  std::mt19937 rng(1234);
  for (int trial = 0; trial < 8; ++trial) {
    // Random non-empty ascending subset of the legal cut links {0..4}.
    std::vector<std::size_t> cuts;
    while (cuts.empty()) {
      for (std::size_t c = 0; c < 5; ++c)
        if (rng() % 2) cuts.push_back(c);
    }
    const CutRun got =
        run_with_cuts(cuts, sim::SimMode::kPacket, 1 + trial % 3);
    EXPECT_EQ(got.physics_digest, base.physics_digest)
        << "trial " << trial << " with " << cuts.size() << " cuts";
    EXPECT_EQ(got.kalman_estimate, base.kalman_estimate);
    EXPECT_EQ(got.kalman_alpha, base.kalman_alpha);
  }
}

TEST(ParallelDes, CutInvarianceHoldsInHybridMode) {
  const CutRun base = run_with_cuts({}, sim::SimMode::kHybrid, 1);
  const CutRun one = run_with_cuts({2}, sim::SimMode::kHybrid, 2);
  const CutRun two = run_with_cuts({0, 3}, sim::SimMode::kHybrid, 3);
  EXPECT_EQ(base.physics_digest, one.physics_digest);
  EXPECT_EQ(base.physics_digest, two.physics_digest);
  EXPECT_EQ(base.kalman_estimate, one.kalman_estimate);
  EXPECT_EQ(base.kalman_estimate, two.kalman_estimate);
}

}  // namespace
