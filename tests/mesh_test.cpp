// Mesh estimation suite (sim/topology.hpp, core/mesh_scenario.hpp,
// est/mesh.hpp).  The load-bearing properties:
//
//  * Route-only equivalence: pair_scenario(cfg, p) — the pair's route as
//    a stand-alone Scenario — reproduces the mesh's route edges bit for
//    bit: same per-link stats, same ground truth.  Off-route edges never
//    touch a pair's measurement, so measuring on the route alone loses
//    nothing.
//
//  * Sublinear probing: the greedy route-overlap cover probes <= 30% of a
//    256-order fat-tree mesh while covering every route edge, and the
//    shared-bottleneck inference reconstructs unprobed pairs within the
//    accepted error.
//
//  * Jobs invariance: the fanned-out mesh report digests identically for
//    BatchRunner jobs 1, 2, and 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/mesh_scenario.hpp"
#include "core/scenario.hpp"
#include "est/mesh.hpp"
#include "runner/batch.hpp"
#include "sim/link.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"

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
};

// ---------------------------------------------------------------------------
// Topology

TEST(Topology, SetRouteValidatesChain) {
  sim::Topology t;
  t.add_nodes(3);
  sim::LinkConfig lc;
  lc.capacity_bps = 50e6;
  const std::size_t e0 = t.add_edge(0, 1, lc);
  const std::size_t e1 = t.add_edge(1, 2, lc);

  EXPECT_THROW(t.add_edge(1, 1, lc), std::invalid_argument);  // self-loop
  EXPECT_THROW(t.set_route(0, 2, {e1}), std::invalid_argument);  // wrong start
  EXPECT_THROW(t.set_route(0, 2, {e0}), std::invalid_argument);  // wrong end
  EXPECT_THROW(t.set_route(0, 2, {e0, e0}), std::invalid_argument);
  EXPECT_EQ(t.route(0, 2), nullptr);

  t.set_route(0, 2, {e0, e1});
  ASSERT_NE(t.route(0, 2), nullptr);
  EXPECT_EQ(*t.route(0, 2), (std::vector<std::size_t>{e0, e1}));
}

TEST(Topology, AutoRouteShortestWithDeterministicTieBreak) {
  // Diamond: 0 -> {1, 2} -> 3.  Two 2-edge routes tie; BFS expands
  // out-edges ascending, so the lexicographically smallest wins.
  sim::Topology t;
  t.add_nodes(4);
  sim::LinkConfig lc;
  lc.capacity_bps = 50e6;
  const std::size_t e0 = t.add_edge(0, 1, lc);
  t.add_edge(0, 2, lc);
  const std::size_t e2 = t.add_edge(1, 3, lc);
  t.add_edge(2, 3, lc);

  ASSERT_TRUE(t.auto_route(0, 3));
  EXPECT_EQ(*t.route(0, 3), (std::vector<std::size_t>{e0, e2}));
  EXPECT_FALSE(t.auto_route(3, 0));  // directed: unreachable
  EXPECT_THROW(t.auto_route_all({{3, 0}}), std::invalid_argument);
}

TEST(Topology, RouteNarrowCapacityAndBaseOwd) {
  sim::Topology t;
  t.add_nodes(3);
  sim::LinkConfig a;
  a.capacity_bps = 50e6;
  a.propagation_delay = 2 * sim::kMillisecond;
  sim::LinkConfig b;
  b.capacity_bps = 10e6;
  b.propagation_delay = 3 * sim::kMillisecond;
  t.add_edge(0, 1, a);
  t.add_edge(1, 2, b);
  t.auto_route_all({{0, 2}});

  EXPECT_DOUBLE_EQ(t.route_narrow_capacity(0, 2), 10e6);
  const sim::SimTime expect = a.propagation_delay + b.propagation_delay +
                              sim::transmission_time(1500, 50e6) +
                              sim::transmission_time(1500, 10e6);
  EXPECT_EQ(t.route_base_owd(0, 2, 1500), expect);
  EXPECT_THROW(t.route_narrow_capacity(2, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// MeshEstimator: selection + inference (synthetic, no simulation)

est::MeshPathSpec spec_of(std::vector<std::size_t> edges, double cap = 100.0) {
  est::MeshPathSpec s;
  s.edges = std::move(edges);
  s.narrow_capacity_bps = cap;
  return s;
}

est::MeshMeasurement meas(double a) {
  est::MeshMeasurement m;
  m.valid = true;
  m.avail_bps = a;
  m.low_bps = a;
  m.high_bps = a;
  m.samples = 1;
  return m;
}

TEST(MeshEstimator, GreedyCoverCoversAllEdgesAndStopsEarly) {
  std::vector<est::MeshPathSpec> paths = {
      spec_of({0, 1}), spec_of({1, 2}), spec_of({0, 2}), spec_of({3})};
  // Unbounded budget: greedy stops once every route edge is covered.
  auto sel = est::MeshEstimator::select_probe_set(paths, 1.0);
  EXPECT_EQ(sel, (std::vector<std::size_t>{0, 1, 3}));
  // Budget of one: the highest-gain path only.
  auto one = est::MeshEstimator::select_probe_set(paths, 0.25);
  EXPECT_EQ(one, (std::vector<std::size_t>{0}));
}

TEST(MeshEstimator, InferenceExactUnderSharedBottleneck) {
  // Edge avail-bw: e0 = 10, e1 = 20, e2 = 30.  Measuring paths 0, 1, 3
  // pins each edge exactly; path 2's bottleneck (e0) is shared with
  // measured path 0, so its inference is exact.
  est::MeshEstimator est(
      {spec_of({0, 1}), spec_of({1, 2}), spec_of({0, 2}), spec_of({2})},
      {.max_probe_fraction = 1.0, .base_seed = 1});
  est::MeshReport r =
      est.infer({0, 1, 3}, {meas(10.0), meas(20.0), meas(30.0)});

  EXPECT_DOUBLE_EQ(r.edge_avail_bps[0], 10.0);
  EXPECT_DOUBLE_EQ(r.edge_avail_bps[1], 20.0);
  EXPECT_DOUBLE_EQ(r.edge_avail_bps[2], 30.0);
  EXPECT_EQ(r.route_edges, 3u);
  EXPECT_EQ(r.covered_edges, 3u);

  ASSERT_TRUE(r.pairs[2].valid);
  EXPECT_FALSE(r.pairs[2].measured);
  EXPECT_DOUBLE_EQ(r.pairs[2].estimate_bps, 10.0);
  EXPECT_EQ(r.pairs[2].bottleneck_edge, 0u);
  EXPECT_GT(r.pairs[2].confidence, 0.0);
  EXPECT_LE(r.pairs[2].confidence, 1.0);
  EXPECT_DOUBLE_EQ(r.pairs[2].high_bps, 100.0);  // narrow capacity bracket

  EXPECT_TRUE(r.pairs[0].measured);
  EXPECT_DOUBLE_EQ(r.pairs[0].confidence, 1.0);
  EXPECT_EQ(r.pairs[0].bottleneck_edge, 0u);
}

TEST(MeshEstimator, InvalidMeasurementFallsBackToInference) {
  est::MeshEstimator est({spec_of({0, 1}), spec_of({1})},
                         {.max_probe_fraction = 1.0, .base_seed = 1});
  est::MeshMeasurement bad;  // valid == false
  est::MeshReport r = est.infer({0, 1}, {bad, meas(20.0)});

  // Pair 0's own measurement failed, but e1 is bounded through pair 1;
  // partial-coverage inference still yields an estimate at reduced
  // confidence.
  ASSERT_TRUE(r.pairs[0].valid);
  EXPECT_TRUE(r.pairs[0].measured);
  EXPECT_DOUBLE_EQ(r.pairs[0].estimate_bps, 20.0);
  EXPECT_LT(r.pairs[0].confidence, 1.0);
  EXPECT_EQ(r.covered_edges, 1u);
  EXPECT_EQ(r.route_edges, 2u);
}

TEST(MeshEstimator, InferRejectsBadPairIndices) {
  est::MeshEstimator est({spec_of({0, 1}), spec_of({1})},
                         {.max_probe_fraction = 1.0, .base_seed = 1});
  EXPECT_THROW(est.infer({2}, {meas(10.0)}), std::invalid_argument);
  // A repeated pair would count its route's support twice.
  EXPECT_THROW(est.infer({1, 1}, {meas(10.0), meas(20.0)}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// pair_scenario: a pair's route alone reproduces the mesh's route edges

TEST(MeshScenario, PairScenarioMatchesMeshEdges) {
  for (sim::SimMode mode : {sim::SimMode::kHybrid, sim::SimMode::kPacket}) {
    // micro_mesh's 256-pair parking lot, routes left to auto-routing.
    core::ParkingLotMeshConfig pc;
    pc.backbone_hops = 8;
    pc.sources = 16;
    pc.sinks = 16;
    pc.util_min = 0.50;
    pc.util_max = 0.60;
    pc.mode = mode;
    pc.warmup = sim::kSecond;
    pc.seed = 42;
    const core::MeshConfig mc = core::parking_lot_mesh(pc);
    const sim::SimTime t1 = mc.warmup;
    const sim::SimTime t2 = t1 + 4 * sim::kSecond;
    core::MeshScenario mesh(mc);
    mesh.run_until(t2);

    for (std::size_t p = 0; p < mesh.pair_count(); p += 17) {
      core::Scenario sc = core::pair_scenario(mc, p);
      sc.simulator().run_until(t2);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sc.ground_truth(t1, t2)),
                std::bit_cast<std::uint64_t>(mesh.pair_ground_truth(p, t1, t2)))
          << "pair " << p;
      const std::vector<std::size_t>& route = mesh.pair_route(p);
      ASSERT_EQ(sc.path().hop_count(), route.size()) << "pair " << p;
      for (std::size_t h = 0; h < route.size(); ++h)
        EXPECT_TRUE(sc.path().link(h).stats() ==
                    mesh.edge_path(route[h]).link(0).stats())
            << "pair " << p << " hop " << h;
    }
  }
}

// ---------------------------------------------------------------------------
// Sublinear probing on the fat-tree mesh

TEST(MeshEstimator, FatTreeProbesSublinearlyAndInfersWithinTolerance) {
  core::FatTreeMeshConfig fc;  // 4 pods x 4 hosts: 192 inter-pod pairs
  core::MeshConfig mc = core::fat_tree_mesh(fc);
  mc.topology.auto_route_all(mc.pairs);

  est::MeshEstimator est(est::make_path_specs(mc.topology, mc.pairs),
                         {.max_probe_fraction = 0.30, .base_seed = 1});
  const auto& probed = est.probe_set();
  ASSERT_FALSE(probed.empty());
  EXPECT_LE(static_cast<double>(probed.size()),
            0.30 * static_cast<double>(mc.pairs.size()));

  // Feed the DESIGN avail-bw of each probed pair (exact measurements) and
  // check the inference reconstructs every unprobed pair within the
  // accepted tolerance.
  auto nominal = [&](std::size_t p) {
    const auto& route = *mc.topology.route(mc.pairs[p].src, mc.pairs[p].dst);
    double a = std::numeric_limits<double>::infinity();
    for (std::size_t e : route)
      a = std::min(a, mc.topology.edge(e).link.capacity_bps -
                          mc.edge_cross_rate_bps[e]);
    return a;
  };
  std::vector<est::MeshMeasurement> results;
  results.reserve(probed.size());
  for (std::size_t p : probed) results.push_back(meas(nominal(p)));
  est::MeshReport r = est.infer(probed, results);

  EXPECT_EQ(r.covered_edges, r.route_edges);  // greedy covered everything
  std::vector<double> errors;
  for (std::size_t p = 0; p < mc.pairs.size(); ++p) {
    ASSERT_TRUE(r.pairs[p].valid) << "pair " << p;
    if (r.pairs[p].measured) continue;
    errors.push_back(std::abs(r.pairs[p].estimate_bps - nominal(p)) /
                     nominal(p));
    EXPECT_GT(r.pairs[p].confidence, 0.0);
  }
  ASSERT_FALSE(errors.empty());
  std::sort(errors.begin(), errors.end());
  EXPECT_LE(errors[errors.size() / 2], 0.20);  // median
  EXPECT_LE(errors.back(), 0.25);              // worst case
}

// ---------------------------------------------------------------------------
// Jobs invariance of the fanned-out mesh report

std::uint64_t digest_report(const est::MeshReport& r) {
  Digest d;
  for (std::size_t p : r.probed) d.u64(p);
  for (const auto& m : r.measurements) {
    d.b(m.valid);
    d.f64(m.avail_bps);
    d.f64(m.low_bps);
    d.f64(m.high_bps);
    d.u64(m.samples);
  }
  for (const auto& e : r.pairs) {
    d.b(e.valid);
    d.b(e.measured);
    d.f64(e.estimate_bps);
    d.f64(e.low_bps);
    d.f64(e.high_bps);
    d.f64(e.confidence);
    d.u64(e.bottleneck_edge);
  }
  for (double v : r.edge_avail_bps) d.f64(v);
  for (std::uint32_t s : r.edge_support) d.u64(s);
  return d.h;
}

TEST(MeshEstimator, ReportBitIdenticalAcrossJobs) {
  core::ParkingLotMeshConfig pc;
  pc.backbone_hops = 4;
  pc.sources = 3;
  pc.sinks = 3;
  pc.mode = sim::SimMode::kHybrid;
  pc.warmup = sim::kSecond;
  pc.seed = 11;
  core::MeshConfig mc = core::parking_lot_mesh(pc);
  mc.topology.auto_route_all(mc.pairs);

  core::MeshProbeConfig probe;
  probe.streams = 3;
  probe.stream_duration = 30 * sim::kMillisecond;
  est::MeshMeasureFn fn = core::make_mesh_measure_fn(mc, probe);

  est::MeshEstimator est(est::make_path_specs(mc.topology, mc.pairs),
                         {.max_probe_fraction = 0.34, .base_seed = 5});

  std::vector<std::uint64_t> digests;
  for (std::size_t jobs : {1u, 2u, 4u}) {
    runner::BatchRunner runner(jobs);
    digests.push_back(digest_report(est.estimate(runner, fn)));
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);

  // And the measurements themselves landed near the design value.
  runner::BatchRunner serial(1);
  est::MeshReport r = est.estimate(serial, fn);
  ASSERT_FALSE(r.probed.empty());
  for (std::size_t k = 0; k < r.probed.size(); ++k) {
    ASSERT_TRUE(r.measurements[k].valid) << "pair " << r.probed[k];
  }
}

}  // namespace
