// Golden-output determinism tests: full paper-style scenarios whose entire
// observable output (per-packet probe timestamps, link counters, meter
// window queries, event counts) is hashed and compared against constants
// captured from the pre-pooled-event-queue implementation (PR 2).
//
// These digests pin the bit-identical guarantee of the DES hot-path
// rewrite: the slab-pooled scheduler, the self-driving link transmit loop
// and generators that pull their arrivals in batches must reproduce the
// exact event ordering, RNG draw sequence, and arithmetic of the original
// per-closure implementation.  Any deviation — one reordered tie, one
// extra RNG draw feeding a packet, one changed rounding — flips the hash.
//
// Regenerate (only when an intentional behavior change is made):
//   ABW_GOLDEN_PRINT=1 ./golden_determinism_test
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/mesh_scenario.hpp"
#include "core/registry.hpp"
#include "core/scenario.hpp"
#include "est/mesh.hpp"
#include "runner/batch.hpp"
#include "probe/stream_spec.hpp"
#include "sim/link.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "traffic/pareto_gaps.hpp"
#include "traffic/trace_replay.hpp"

namespace {

using namespace abw;

/// FNV-1a over 64-bit words; doubles contribute their exact bit pattern.
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

void digest_link(Digest& d, const sim::Link& link) {
  const sim::LinkStats& s = link.stats();
  d.u64(s.packets_in);
  d.u64(s.packets_out);
  d.u64(s.packets_dropped);
  d.u64(s.packets_red_dropped);
  d.u64(s.packets_lost);
  d.u64(s.bytes_in);
  d.u64(s.bytes_out);
}

/// Fig. 1-style probing: a rate sweep of periodic streams through a
/// single-hop scenario, with every observable folded into one digest.
std::uint64_t digest_probed_single_hop(core::Scenario& sc) {
  Digest d;
  for (int k = 0; k < 12; ++k) {
    double rate = 10e6 + 3e6 * k;  // sweep across under- and overload
    auto spec = probe::StreamSpec::periodic(rate, 1500, 60);
    auto res = sc.transport().send_stream(spec, sim::kMillisecond);
    d.u64(res.stream_id);
    for (const auto& p : res.packets) {
      d.u64(p.seq);
      d.u64(p.size_bytes);
      d.u64(static_cast<std::uint64_t>(p.sent));
      d.u64(static_cast<std::uint64_t>(p.received));
      d.b(p.lost);
    }
    d.f64(res.output_rate_bps());
    d.f64(res.rate_ratio());
  }

  const sim::Link& link = sc.path().link(0);
  digest_link(d, link);
  sim::SimTime t2 = sc.simulator().now();
  d.u64(static_cast<std::uint64_t>(link.meter().busy_time(0, t2)));
  d.u64(static_cast<std::uint64_t>(link.meter().measurement_busy_time(0, t2)));
  d.f64(sc.ground_truth(sim::kSecond, t2));
  for (double a : link.meter().avail_bw_series(0, t2, 50 * sim::kMillisecond,
                                               /*exclude_measurement=*/true))
    d.f64(a);
  d.u64(link.meter().interval_count());
  d.u64(sc.simulator().events_processed());
  return d.h;
}

std::uint64_t run_single_hop(core::CrossModel model) {
  core::SingleHopConfig cfg;
  cfg.model = model;
  cfg.seed = 7;
  auto sc = core::Scenario::single_hop(cfg);
  return digest_probed_single_hop(sc);
}

/// The same probing against a recorded workload replayed by
/// TraceGenerator in packet mode.  The replay starts at 100 ms behind
/// records from 50 ms on, and every seventh record repeats its
/// predecessor's timestamp, so the emit-at-t0 clamp and zero gaps are
/// pinned along with ordinary replay.
std::uint64_t run_trace_replay() {
  sim::LinkConfig lc;
  lc.capacity_bps = 50e6;
  lc.propagation_delay = sim::kMillisecond;
  auto sc = core::Scenario::custom({lc}, 7);

  stats::Rng rng(13);
  const std::uint32_t sizes[3] = {40, 576, 1500};
  std::vector<traffic::ReplayRecord> recs;
  sim::SimTime t = 50 * sim::kMillisecond;
  for (int i = 0; i < 45000; ++i) {
    if (i % 7 != 0) t += sim::from_seconds(rng.exponential(705.0 * 8.0 / 25e6));
    recs.push_back({t, sizes[i % 3]});
  }
  sc.simulator().run_until(100 * sim::kMillisecond);
  sc.add_cross_source(
      std::make_unique<traffic::TraceGenerator>(sc.simulator(), sc.path(), 0,
                                                false, 1000, std::move(recs)),
      0, /*one_hop=*/false, 1000, sim::SimMode::kPacket, 60 * sim::kSecond);
  sc.simulator().run_until(2 * sim::kSecond);
  return digest_probed_single_hop(sc);
}

/// Fig. 4-style multi-hop run with one-hop-persistent cross traffic.
std::uint64_t run_multi_hop() {
  core::MultiHopConfig cfg;
  cfg.seed = 11;
  auto sc = core::Scenario::multi_hop(cfg);

  Digest d;
  for (int k = 0; k < 6; ++k) {
    auto spec = probe::StreamSpec::periodic(15e6 + 4e6 * k, 1500, 50);
    auto res = sc.transport().send_stream(spec, sim::kMillisecond);
    for (const auto& p : res.packets) {
      d.u64(static_cast<std::uint64_t>(p.sent));
      d.u64(static_cast<std::uint64_t>(p.received));
      d.b(p.lost);
    }
    d.f64(res.output_rate_bps());
  }
  for (std::size_t h = 0; h < sc.path().hop_count(); ++h)
    digest_link(d, sc.path().link(h));
  sim::SimTime t2 = sc.simulator().now();
  d.f64(sc.path().cross_avail_bw(sim::kSecond, t2));
  d.u64(sc.path().tight_link(sim::kSecond, t2));
  d.u64(sc.path().cross_sink().packets());
  d.u64(sc.path().cross_sink().bytes());
  d.u64(sc.simulator().events_processed());
  return d.h;
}

/// Direct Pareto-gap generator run (not reachable through Scenario's
/// CrossModel set) so every arrival process of the library is pinned.
std::uint64_t run_pareto_gaps() {
  sim::Simulator simu;
  sim::LinkConfig lc;
  lc.capacity_bps = 50e6;
  lc.propagation_delay = sim::kMillisecond;
  sim::Path path(simu, {lc});
  sim::CountingSink sink;
  path.set_receiver(&sink);
  traffic::ParetoGapGenerator gen(simu, path, 0, false, 3, stats::Rng(21),
                                  30e6, 1200, 1.6);
  gen.start(0, 5 * sim::kSecond);
  simu.run_until(6 * sim::kSecond);

  Digest d;
  d.u64(gen.packets_sent());
  d.u64(gen.bytes_sent());
  d.u64(sink.packets());
  d.u64(sink.bytes());
  digest_link(d, path.link(0));
  d.u64(static_cast<std::uint64_t>(path.link(0).meter().busy_time(
      0, 5 * sim::kSecond)));
  d.u64(simu.events_processed());
  return d.h;
}

/// Mesh pair measurements (core/mesh_scenario.hpp): the rate search
/// MeshEstimator fans out, under the per-pair seeds it derives.  Covers
/// every 16th pair of the 256-pair hybrid parking lot that micro_mesh
/// and perfbench resolve, four pairs of the same lot in packet mode, and
/// four pairs of a hybrid fat tree without pre-installed routes, so the
/// auto-route path runs inside the measurement.
std::uint64_t run_mesh_pairs() {
  Digest d;
  auto measure = [&d](const core::MeshConfig& mc, std::size_t p) {
    const est::MeshMeasurement m = core::measure_mesh_pair(
        mc, p, runner::derive_seed(mc.seed, p), core::MeshProbeConfig{});
    d.b(m.valid);
    d.f64(m.avail_bps);
    d.f64(m.low_bps);
    d.f64(m.high_bps);
    d.u64(m.samples);
  };

  core::ParkingLotMeshConfig pc;
  pc.backbone_hops = 8;
  pc.sources = 16;
  pc.sinks = 16;
  pc.util_min = 0.50;
  pc.util_max = 0.60;
  pc.mode = sim::SimMode::kHybrid;
  pc.warmup = sim::kSecond;
  pc.seed = 42;
  core::MeshConfig lot = core::parking_lot_mesh(pc);
  lot.topology.auto_route_all(lot.pairs);
  for (std::size_t p = 0; p < lot.pairs.size(); p += 16) measure(lot, p);

  lot.mode = sim::SimMode::kPacket;
  for (std::size_t p : {3u, 90u, 165u, 250u}) measure(lot, p);

  core::FatTreeMeshConfig fc;
  fc.mode = sim::SimMode::kHybrid;
  const core::MeshConfig tree = core::fat_tree_mesh(fc);
  for (std::size_t p : {0u, 61u, 122u, 191u}) measure(tree, p);
  return d.h;
}

/// Every registry tool, one estimate each, on a packet-mode and then on a
/// hybrid-mode single hop.  Unlike the digests above, which send only
/// periodic streams, this pins pair trains, chirps and bfind's per-hop
/// delay samplers in both modes: each estimate's JSON, the time it ended
/// and the event count so far.
std::uint64_t run_tools() {
  Digest d;
  for (sim::SimMode mode : {sim::SimMode::kPacket, sim::SimMode::kHybrid}) {
    core::SingleHopConfig cfg;
    cfg.mode = mode;
    cfg.trimodal_cross_sizes = true;
    cfg.seed = 19;
    auto sc = core::Scenario::single_hop(cfg);
    core::ToolOptions opt;
    opt.tight_capacity_bps = cfg.capacity_bps;
    opt.min_rate_bps = 0.04 * cfg.capacity_bps;
    opt.max_rate_bps = 1.2 * cfg.capacity_bps;  // bfind's ramp reaches Ct
    for (const std::string& name : core::available_tools()) {
      auto tool = core::make_estimator(name, opt, sc.rng());
      const std::string json = tool->estimate(sc.transport()).to_json();
      for (char c : json) d.u64(static_cast<unsigned char>(c));
      d.u64(static_cast<std::uint64_t>(sc.simulator().now()));
      d.u64(sc.simulator().events_processed());
    }
  }
  return d.h;
}

// Digests captured from the pre-PR-2 (std::function heap, per-closure
// link/generator) implementation; see file header for regeneration.
constexpr std::uint64_t kGoldenCbr = 0x7b3a580e3bfe9d56ull;
constexpr std::uint64_t kGoldenPoisson = 0xcb0a09e09da11eccull;
constexpr std::uint64_t kGoldenParetoOnOff = 0x4c25048f590c8407ull;
constexpr std::uint64_t kGoldenMultiHop = 0x192d95669f8bae90ull;
constexpr std::uint64_t kGoldenParetoGaps = 0x21ae52ecde362251ull;
// Captured while MeshScenario still forwarded probes edge by edge;
// measurement on route-only pair scenarios must keep reproducing it.
constexpr std::uint64_t kGoldenMesh = 0x54f5484d168c5357ull;
// Captured while started generators still drew their own arrivals
// (fGn one at a time) instead of pulling them through fill().
constexpr std::uint64_t kGoldenFgn = 0xbd3c83949ca2410cull;
constexpr std::uint64_t kGoldenTrace = 0x57282e028358c945ull;
// Captured while probe sends, link deliveries and bfind's samplers were
// each scheduled as their own event.
constexpr std::uint64_t kGoldenTools = 0x56af159c74172390ull;

bool print_mode() { return std::getenv("ABW_GOLDEN_PRINT") != nullptr; }

void check(const char* name, std::uint64_t got, std::uint64_t want) {
  char line[80];
  std::snprintf(line, sizeof line,
                "constexpr std::uint64_t kGolden%s = 0x%016llxull;", name,
                static_cast<unsigned long long>(got));
  if (print_mode()) {
    std::printf("%s\n", line);
    return;
  }
  EXPECT_EQ(got, want) << name << " digest changed: the event-queue hot "
                       << "path no longer reproduces the legacy output\n"
                       << "  got: " << line;
}

TEST(GoldenDeterminism, SingleHopCbr) {
  check("Cbr", run_single_hop(core::CrossModel::kCbr), kGoldenCbr);
}

TEST(GoldenDeterminism, SingleHopPoisson) {
  check("Poisson", run_single_hop(core::CrossModel::kPoisson), kGoldenPoisson);
}

TEST(GoldenDeterminism, SingleHopParetoOnOff) {
  check("ParetoOnOff", run_single_hop(core::CrossModel::kParetoOnOff),
        kGoldenParetoOnOff);
}

TEST(GoldenDeterminism, MultiHopPoisson) {
  check("MultiHop", run_multi_hop(), kGoldenMultiHop);
}

TEST(GoldenDeterminism, ParetoGapSource) {
  check("ParetoGaps", run_pareto_gaps(), kGoldenParetoGaps);
}

TEST(GoldenDeterminism, MeshPairMeasurements) {
  check("Mesh", run_mesh_pairs(), kGoldenMesh);
}

TEST(GoldenDeterminism, SingleHopFgn) {
  check("Fgn", run_single_hop(core::CrossModel::kFgn), kGoldenFgn);
}

TEST(GoldenDeterminism, TraceReplaySource) {
  check("Trace", run_trace_replay(), kGoldenTrace);
}

TEST(GoldenDeterminism, RegistryToolsBothModes) {
  check("Tools", run_tools(), kGoldenTools);
}

/// Running the same scenario twice in one process must give the same
/// digest (no hidden global state in the pooled queue or pulled arrivals).
TEST(GoldenDeterminism, RepeatRunsAreIdentical) {
  EXPECT_EQ(run_single_hop(core::CrossModel::kPoisson),
            run_single_hop(core::CrossModel::kPoisson));
}

/// PR 1's determinism contract extends through the new hot path: the same
/// scenarios run under the parallel BatchRunner must hit the same golden
/// digests at every thread count (each task owns its Simulator, so the
/// pooled per-scheduler state must have no cross-task leakage).
TEST(GoldenDeterminism, BatchRunnerHitsGoldenDigestsAtEveryThreadCount) {
  auto task = [](std::size_t i) {
    switch (i) {
      case 0: return run_single_hop(core::CrossModel::kCbr);
      case 1: return run_single_hop(core::CrossModel::kPoisson);
      case 2: return run_single_hop(core::CrossModel::kParetoOnOff);
      case 3: return run_multi_hop();
      default: return run_pareto_gaps();
    }
  };
  const std::vector<std::uint64_t> want = {kGoldenCbr, kGoldenPoisson,
                                           kGoldenParetoOnOff, kGoldenMultiHop,
                                           kGoldenParetoGaps};
  if (print_mode()) GTEST_SKIP() << "print mode: digests emitted above";
  for (std::size_t jobs : {1u, 2u, 5u}) {
    runner::BatchRunner batch(jobs);
    EXPECT_EQ(batch.map(want.size(), task), want) << "jobs=" << jobs;
  }
}

}  // namespace
