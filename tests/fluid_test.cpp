// Tests for the hybrid fluid/packet fast path: pulled-vs-started generator
// equivalence, exact FluidQueue-vs-DES agreement on one link, probed
// hybrid scenarios bit-identical to packet mode (probe timestamps, delay
// samples, counters, meters), the hybrid event cost and drain rule, and
// the vectorized FluidQueue bulk retirement pinned to digests recorded
// while a scalar whole-run loop still existed beside it.
//
// The full utilization x model sweep is long; by default each axis runs a
// reduced subset.  Set ABW_SLOW=1 (the `slow`-labeled ctest entry, enabled
// with -DABW_SLOW_TESTS=ON) for the complete sweep.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <random>
#include <vector>

#include "core/scenario.hpp"
#include "probe/stream_spec.hpp"
#include "sim/fluid.hpp"
#include "sim/link.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "traffic/arrival_stream.hpp"
#include "traffic/cbr.hpp"
#include "traffic/fgn_rate.hpp"
#include "traffic/pareto_gaps.hpp"
#include "traffic/pareto_onoff.hpp"
#include "traffic/poisson.hpp"
#include "traffic/trace_replay.hpp"

namespace {

using namespace abw;
using abw::sim::kMillisecond;
using abw::sim::kSecond;
using abw::sim::SimTime;

bool slow_tests() { return std::getenv("ABW_SLOW") != nullptr; }

// ------------------------------------------- chunked-vs-scalar arrivals ---

// One (arrival time, size) record, as seen by a link arrival tap.
struct Arrival {
  SimTime t;
  std::uint32_t size;
  bool operator==(const Arrival& o) const { return t == o.t && size == o.size; }
};

enum class GenKind { kCbr, kPoissonFixed, kPoissonTrimodal, kParetoOnOff,
                     kParetoGap, kFgn, kTrace, kBurstTrace };

// Bursts of 5-7 full-size packets 1 us apart, one every 2.5 ms from
// 100 ms (10,800 packets): each burst overfills a 6 kB queue, and the
// mixed burst lengths put the boundaries of fixed-size pulls at many
// offsets inside a burst, for pulls of 4,096 as well.
std::vector<traffic::ReplayRecord> burst_records() {
  std::vector<traffic::ReplayRecord> recs;
  for (int b = 0; b < 1800; ++b) {
    const SimTime start = 100 * kMillisecond + b * 2500 * sim::kMicrosecond;
    for (int k = 0; k < 5 + b % 3; ++k)
      recs.push_back({start + k * sim::kMicrosecond, 1500});
  }
  return recs;
}

std::unique_ptr<traffic::Generator> make_gen(GenKind kind, sim::Simulator& sim,
                                             sim::Path& path,
                                             std::uint64_t seed) {
  stats::Rng rng(seed);
  switch (kind) {
    case GenKind::kCbr:
      return std::make_unique<traffic::CbrGenerator>(
          sim, path, 0, false, 1, std::move(rng), 25e6, 1500);
    case GenKind::kPoissonFixed:
      return std::make_unique<traffic::PoissonGenerator>(
          sim, path, 0, false, 1, std::move(rng), 25e6,
          traffic::SizeDistribution::fixed(1500));
    case GenKind::kPoissonTrimodal:
      return std::make_unique<traffic::PoissonGenerator>(
          sim, path, 0, false, 1, std::move(rng), 25e6,
          traffic::SizeDistribution::internet_mix());
    case GenKind::kParetoOnOff: {
      traffic::ParetoOnOffConfig oc;
      oc.mean_rate_bps = 25e6;
      oc.peak_rate_bps = 50e6;
      return std::make_unique<traffic::ParetoOnOffGenerator>(
          sim, path, 0, false, 1, std::move(rng), oc);
    }
    case GenKind::kParetoGap:
      return std::make_unique<traffic::ParetoGapGenerator>(
          sim, path, 0, false, 1, std::move(rng), 25e6, 1500);
    case GenKind::kFgn: {
      traffic::FgnRateConfig fc;
      fc.mean_rate_bps = 25e6;
      return std::make_unique<traffic::FgnRateGenerator>(
          sim, path, 0, false, 1, std::move(rng), fc);
    }
    case GenKind::kTrace: {
      // A deterministic recorded workload (bursty gaps, trimodal sizes,
      // a few pre-t0 records to exercise the emit-at-t0 clamp).  The
      // TraceGenerator override of fill() must reproduce the base
      // consumption bit-exactly.
      std::vector<traffic::ReplayRecord> recs;
      SimTime t = 50 * kMillisecond;  // before the test's t0 = 100 ms
      for (int i = 0; i < 4000; ++i) {
        t += sim::from_seconds(rng.exponential(0.0004));
        std::uint32_t size = i % 3 == 0 ? 40u : (i % 3 == 1 ? 576u : 1500u);
        recs.push_back({t, size});
      }
      return std::make_unique<traffic::TraceGenerator>(sim, path, 0, false, 1,
                                                       std::move(recs));
    }
    case GenKind::kBurstTrace:
      return std::make_unique<traffic::TraceGenerator>(sim, path, 0, false, 1,
                                                       burst_records());
  }
  throw std::logic_error("unknown kind");
}

// A path whose single fat link never queues, so tap arrival times equal
// injection times.
sim::LinkConfig tap_link() {
  sim::LinkConfig lc;
  lc.capacity_bps = 10e9;
  lc.propagation_delay = 0;
  return lc;
}

class ChunkedEquivalence : public ::testing::TestWithParam<GenKind> {};

TEST_P(ChunkedEquivalence, FillMatchesSelfScheduledPath) {
  const SimTime t0 = 100 * kMillisecond;
  const SimTime t1 = 2 * kSecond;
  const std::uint64_t seed = 77;

  // Legacy: self-scheduling generator, arrivals recorded by the link tap.
  sim::Simulator sim_a;
  sim::Path path_a(sim_a, {tap_link()});
  sim::CountingSink sink_a;
  path_a.set_receiver(&sink_a);
  std::vector<Arrival> legacy;
  path_a.link(0).set_arrival_tap([&](const sim::Packet& p, SimTime now) {
    legacy.push_back({now, p.size_bytes});
  });
  auto gen_a = make_gen(GetParam(), sim_a, path_a, seed);
  gen_a->start(t0, t1);
  sim_a.run_until(t1 + kSecond);

  // Pull: same generator type and seed through the chunked API.
  sim::Simulator sim_b;
  sim::Path path_b(sim_b, {tap_link()});
  auto gen_b = make_gen(GetParam(), sim_b, path_b, seed);
  gen_b->begin_stream(t0, t1);
  traffic::ArrivalChunk chunk;
  std::vector<Arrival> pulled;
  while (!gen_b->stream_done()) {
    chunk.clear();
    gen_b->fill(chunk, 64);
    for (std::size_t i = 0; i < chunk.size(); ++i)
      pulled.push_back({chunk.times[i], chunk.sizes[i]});
  }

  ASSERT_GT(legacy.size(), 100u);
  ASSERT_EQ(legacy.size(), pulled.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    ASSERT_EQ(legacy[i].t, pulled[i].t) << "arrival " << i;
    ASSERT_EQ(legacy[i].size, pulled[i].size) << "arrival " << i;
  }
  EXPECT_EQ(gen_a->packets_sent(), gen_b->packets_sent());
  EXPECT_EQ(gen_a->bytes_sent(), gen_b->bytes_sent());
}

INSTANTIATE_TEST_SUITE_P(AllGenerators, ChunkedEquivalence,
                         ::testing::Values(GenKind::kCbr,
                                           GenKind::kPoissonFixed,
                                           GenKind::kPoissonTrimodal,
                                           GenKind::kParetoOnOff,
                                           GenKind::kParetoGap,
                                           GenKind::kFgn,
                                           GenKind::kTrace));

TEST(ChunkedApi, StartAndBeginStreamAreExclusive) {
  sim::Simulator sim;
  sim::Path path(sim, {tap_link()});
  auto g1 = make_gen(GenKind::kPoissonFixed, sim, path, 1);
  g1->start(0, kSecond);
  EXPECT_THROW(g1->begin_stream(0, kSecond), std::logic_error);
  auto g2 = make_gen(GenKind::kPoissonFixed, sim, path, 1);
  g2->begin_stream(0, kSecond);
  EXPECT_THROW(g2->start(0, kSecond), std::logic_error);
  traffic::ArrivalChunk c;
  auto g3 = make_gen(GenKind::kPoissonFixed, sim, path, 1);
  EXPECT_THROW(g3->fill(c, 8), std::logic_error);
}

// ------------------------------------------------- FluidQueue vs DES ------

// Feeds the identical arrival sequence through a real event-driven link
// and through a FluidQueue, then requires the utilization meter and the
// link counters to agree exactly.  The stream reaches absorb() in calls of
// `pull` arrivals.  Each call's horizon is its last arrival, or, with
// `horizon_at_end`, the stream end t1 for every call, as a sync spanning
// several pulls passes its sync time: a call may then end inside a busy
// run that the next call continues.
void check_fluid_matches_des(GenKind kind, std::size_t queue_limit_bytes,
                             double capacity_bps = 30e6,
                             std::size_t pull = 256,
                             bool horizon_at_end = false) {
  const SimTime t0 = 0;
  const SimTime t1 = 5 * kSecond;
  const std::uint64_t seed = 1234;

  sim::LinkConfig lc;
  lc.capacity_bps = capacity_bps;  // default ~0.83 utilization at 25 Mb/s
  lc.propagation_delay = 0;
  lc.queue_limit_bytes = queue_limit_bytes;

  // Reference: plain DES.
  sim::Simulator sim_a;
  sim::Path path_a(sim_a, {lc});
  sim::CountingSink sink_a;
  path_a.set_receiver(&sink_a);
  auto gen_a = make_gen(kind, sim_a, path_a, seed);
  gen_a->start(t0, t1);
  sim_a.run_until(t1 + kSecond);  // drain

  // Fluid: same arrivals absorbed in chunks.
  sim::Simulator sim_b;
  sim::Path path_b(sim_b, {lc});
  sim::Link& link_b = path_b.link(0);
  sim::FluidQueue& fq = link_b.enable_fluid();
  fq.reset(t0);
  auto gen_b = make_gen(kind, sim_b, path_b, seed);
  gen_b->begin_stream(t0, t1);
  traffic::ArrivalChunk chunk;
  while (!gen_b->stream_done()) {
    chunk.clear();
    if (gen_b->fill(chunk, pull) == 0) break;
    fq.absorb(chunk.times.data(), chunk.sizes.data(), chunk.size(),
              horizon_at_end ? t1 : chunk.times.back());
  }
  fq.advance(t1 + kSecond);

  const sim::LinkStats& a = path_a.link(0).stats();
  const sim::LinkStats& b = link_b.stats();
  EXPECT_EQ(a.packets_in, b.packets_in);
  EXPECT_EQ(a.bytes_in, b.bytes_in);
  EXPECT_EQ(a.packets_out, b.packets_out);
  EXPECT_EQ(a.bytes_out, b.bytes_out);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);

  // Utilization agrees exactly on every sub-window (identical busy
  // intervals -> identical prefix sums).
  for (SimTime w = 0; w + 500 * kMillisecond <= t1; w += 500 * kMillisecond) {
    double ua = path_a.link(0).meter().utilization(w, w + 500 * kMillisecond);
    double ub = link_b.meter().utilization(w, w + 500 * kMillisecond);
    EXPECT_DOUBLE_EQ(ua, ub) << "window at " << w;
  }
}

TEST(FluidQueue, MatchesDesExactlyPoisson) {
  check_fluid_matches_des(GenKind::kPoissonFixed, 2 << 20);
}

TEST(FluidQueue, MatchesDesExactlyCbr) {
  check_fluid_matches_des(GenKind::kCbr, 2 << 20);
}

TEST(FluidQueue, MatchesDesExactlyParetoOnOff) {
  check_fluid_matches_des(GenKind::kParetoOnOff, 2 << 20);
}

TEST(FluidQueue, MatchesDesExactlyTrace) {
  check_fluid_matches_des(GenKind::kTrace, 2 << 20);
}

TEST(FluidQueue, MatchesDesDropsWithTinyQueue) {
  // 6 kB queue at 0.83 utilization forces frequent drop-tail decisions;
  // fluid and DES must make the identical ones.
  check_fluid_matches_des(GenKind::kParetoOnOff, 6 * 1024);
}

TEST(FluidQueue, MatchesDesThroughLongBusyPeriod) {
  // 25 Mb/s offered to 20 Mb/s: one busy period of ~8k departures behind
  // a backlog that grows to the 2 MB limit, so the FIFO erases its popped
  // prefix (at 4096 entries) twice while packets are still queued.
  check_fluid_matches_des(GenKind::kPoissonFixed, 2 << 20, 20e6);
}

TEST(FluidQueue, MatchesDesWhenCallsSplitBusyRuns) {
  // Calls that end inside a busy run, each with a horizon past the run's
  // end: the next call's first arrivals must count the run's bytes still
  // queued in the drop-tail test.
  for (std::size_t pull : {7, 64, 4096}) {
    SCOPED_TRACE(pull);
    check_fluid_matches_des(GenKind::kBurstTrace, 6 * 1024, 30e6, pull, true);
    check_fluid_matches_des(GenKind::kParetoOnOff, 6 * 1024, 30e6, pull, true);
    check_fluid_matches_des(GenKind::kPoissonFixed, 2 << 20, 30e6, pull, true);
  }
}

TEST(FluidQueue, RejectsUnsupportedLinkFeatures) {
  sim::Simulator sim;
  sim::LinkConfig red = tap_link();
  red.discipline = sim::QueueDiscipline::kRed;
  sim::Path p1(sim, {red});
  EXPECT_THROW(p1.link(0).enable_fluid(), std::logic_error);

  sim::LinkConfig lossy = tap_link();
  lossy.random_loss_prob = 0.01;
  sim::Path p2(sim, {lossy});
  EXPECT_THROW(p2.link(0).enable_fluid(), std::logic_error);

  sim::Path p3(sim, {tap_link()});
  p3.link(0).enable_fluid();
  EXPECT_THROW(p3.link(0).enable_fluid(), std::logic_error);
}

// ------------------------------------------- hybrid scenario agreement ----

core::SingleHopConfig hybrid_cfg(core::CrossModel model, double util,
                                 sim::SimMode mode) {
  core::SingleHopConfig cfg;
  cfg.model = model;
  cfg.mode = mode;
  cfg.cross_rate_bps = util * cfg.capacity_bps;
  cfg.traffic_horizon = 40 * kSecond;
  cfg.seed = 99;
  return cfg;
}

// Without probes the hybrid run IS the packet run, integrated in batch:
// ground truth must agree to floating-point noise.
TEST(HybridScenario, UnprobedGroundTruthNearExact) {
  std::vector<double> utils = slow_tests()
      ? std::vector<double>{0.2, 0.3, 0.5, 0.7, 0.8, 0.9}
      : std::vector<double>{0.3, 0.8};
  for (core::CrossModel model : {core::CrossModel::kCbr,
                                 core::CrossModel::kPoisson,
                                 core::CrossModel::kParetoOnOff}) {
    for (double util : utils) {
      auto pkt = core::Scenario::single_hop(
          hybrid_cfg(model, util, sim::SimMode::kPacket));
      auto hyb = core::Scenario::single_hop(
          hybrid_cfg(model, util, sim::SimMode::kHybrid));
      const SimTime end = 12 * kSecond;
      pkt.simulator().run_until(end);
      hyb.simulator().run_until(end);
      double gp = pkt.ground_truth(2 * kSecond, end);
      double gh = hyb.ground_truth(2 * kSecond, end);
      EXPECT_NEAR(gh, gp, gp * 1e-9)
          << core::to_string(model) << " util " << util;
    }
  }
}

// Trace replay through Scenario::add_cross_source: the same recorded
// workload drives a packet-mode and a hybrid-mode scenario; the ground
// truth (and so every meter-derived series) must agree to floating-point
// noise — the fig1-style bench path, end to end.
TEST(HybridScenario, TraceReplayAgreement) {
  std::vector<traffic::ReplayRecord> recs;
  {
    stats::Rng r(7);
    SimTime t = 0;
    for (int i = 0; i < 20000; ++i) {
      t += sim::from_seconds(r.exponential(0.0004));
      std::uint32_t size = i % 3 == 0 ? 40u : (i % 3 == 1 ? 576u : 1500u);
      recs.push_back({t, size});
    }
  }
  const SimTime end = 8 * kSecond;
  double truth[2] = {0.0, 0.0};
  std::uint64_t bytes_in[2] = {0, 0};
  int mi = 0;
  for (sim::SimMode mode : {sim::SimMode::kPacket, sim::SimMode::kHybrid}) {
    sim::LinkConfig lc;
    lc.capacity_bps = 30e6;
    lc.propagation_delay = kMillisecond;
    auto sc = core::Scenario::custom({lc}, /*seed=*/1);
    sc.add_cross_source(
        std::make_unique<traffic::TraceGenerator>(sc.simulator(), sc.path(), 0,
                                                  false, 1000, recs),
        0, false, 1000, mode, end + kSecond);
    sc.simulator().run_until(end);
    truth[mi] = sc.ground_truth(kSecond, end);
    sc.path().sync_hybrid(end);
    bytes_in[mi] = sc.path().link(0).stats().bytes_in;
    ++mi;
  }
  EXPECT_NEAR(truth[1], truth[0], truth[0] * 1e-9);
  EXPECT_EQ(bytes_in[1], bytes_in[0]);
}

// A sync that spans several pulls hands each whole pull to absorb() with
// the sync time as its horizon, so a pull can end inside a burst that the
// next pull continues.  Drop-tail must decide those arrivals as packet
// mode does.
TEST(HybridScenario, CrossOnlyDropsMatchPacketMode) {
  const SimTime end = 5 * kSecond;
  std::vector<std::uint64_t> seen[2];
  int mi = 0;
  for (sim::SimMode mode : {sim::SimMode::kPacket, sim::SimMode::kHybrid}) {
    sim::LinkConfig lc;
    lc.capacity_bps = 30e6;
    lc.propagation_delay = kMillisecond;
    lc.queue_limit_bytes = 6 * 1024;
    auto sc = core::Scenario::custom({lc}, /*seed=*/1);
    sc.add_cross_source(
        std::make_unique<traffic::TraceGenerator>(sc.simulator(), sc.path(), 0,
                                                  false, 1000, burst_records()),
        0, false, 1000, mode, end + kSecond);
    sc.simulator().run_until(end);
    sc.path().sync_hybrid(end);
    const sim::Link& link = sc.path().link(0);
    const sim::LinkStats& st = link.stats();
    seen[mi] = {st.packets_in,  st.packets_out, st.packets_dropped,
                st.bytes_out,   link.meter().interval_count(),
                std::bit_cast<std::uint64_t>(sc.ground_truth(0, end))};
    ++mi;
  }
  EXPECT_GT(seen[0][2], 1000u);  // every burst drops in packet mode
  EXPECT_EQ(seen[1], seen[0]);
}

// With probing, hybrid mode still reproduces packet mode exactly: the same
// stream end times, ground truth and mean probe OWD, to the last bit.
TEST(HybridScenario, ProbedAgreementSweep) {
  std::vector<double> utils = slow_tests()
      ? std::vector<double>{0.2, 0.3, 0.5, 0.7, 0.8, 0.9}
      : std::vector<double>{0.3, 0.8};
  for (core::CrossModel model : {core::CrossModel::kCbr,
                                 core::CrossModel::kPoisson,
                                 core::CrossModel::kParetoOnOff}) {
    for (double util : utils) {
      double owd[2] = {0.0, 0.0};
      double truth[2] = {0.0, 0.0};
      SimTime end[2] = {0, 0};
      int mi = 0;
      for (sim::SimMode mode : {sim::SimMode::kPacket, sim::SimMode::kHybrid}) {
        auto sc = core::Scenario::single_hop(hybrid_cfg(model, util, mode));
        probe::StreamSpec spec = probe::StreamSpec::periodic(10e6, 1000, 20);
        double sum = 0.0;
        std::size_t n = 0;
        for (int s = 0; s < 10; ++s) {
          probe::StreamResult r = sc.transport().send_stream(spec);
          for (const auto& p : r.packets) {
            if (p.lost) continue;
            sum += sim::to_seconds(p.received - p.sent);
            ++n;
          }
          sc.simulator().run_until(sc.simulator().now() + 200 * kMillisecond);
        }
        ASSERT_GT(n, 0u);
        owd[mi] = sum / static_cast<double>(n);
        end[mi] = sc.simulator().now();
        truth[mi] = sc.ground_truth(2 * kSecond, end[mi]);
        ++mi;
      }
      EXPECT_EQ(end[0], end[1]);
      EXPECT_EQ(truth[1], truth[0])
          << core::to_string(model) << " util " << util;
      EXPECT_EQ(owd[1], owd[0]) << core::to_string(model) << " util " << util;
    }
  }
}

TEST(HybridScenario, MultiHopProbedAgreement) {
  double truth[2];
  int mi = 0;
  for (sim::SimMode mode : {sim::SimMode::kPacket, sim::SimMode::kHybrid}) {
    core::MultiHopConfig mc;
    mc.mode = mode;
    mc.traffic_horizon = 30 * kSecond;
    mc.seed = 5;
    auto sc = core::Scenario::multi_hop(mc);
    probe::StreamSpec spec = probe::StreamSpec::periodic(10e6, 1000, 20);
    for (int s = 0; s < 5; ++s) {
      sc.transport().send_stream(spec);
      sc.simulator().run_until(sc.simulator().now() + 300 * kMillisecond);
    }
    truth[mi++] = sc.ground_truth(2 * kSecond, sc.simulator().now());
  }
  EXPECT_EQ(truth[1], truth[0]);
}

// A discrete packet injected straight into the path, outside any probe
// session, takes the same admission path as a probe: the link syncs its
// fluid source and the packet joins the fluid FIFO, exactly as in packet
// mode.
TEST(HybridScenario, InjectedPacketMatchesPacketMode) {
  double truth[2][2];
  std::uint64_t counters[2][4];
  int mi = 0;
  for (sim::SimMode mode : {sim::SimMode::kPacket, sim::SimMode::kHybrid}) {
    auto sc = core::Scenario::single_hop(
        hybrid_cfg(core::CrossModel::kPoisson, 0.5, mode));
    sim::Simulator& sim = sc.simulator();
    sim::Path& path = sc.path();
    SimTime when = sim.now() + 50 * kMillisecond;
    sim.at(when, [&] {
      sim::Packet pkt;
      pkt.id = sim.next_packet_id();
      pkt.type = sim::PacketType::kProbe;
      pkt.measurement = true;
      pkt.size_bytes = 1000;
      pkt.send_time = sim.now();
      path.inject(0, pkt);
    });
    sim.run_until(10 * kSecond);
    truth[mi][0] = sc.ground_truth(2 * kSecond, 10 * kSecond);
    truth[mi][1] = path.avail_bw(2 * kSecond, 10 * kSecond);
    const sim::LinkStats& st = path.link(0).stats();
    counters[mi][0] = st.packets_in;
    counters[mi][1] = st.packets_out;
    counters[mi][2] = st.bytes_out;
    counters[mi][3] = path.link(0).meter().interval_count();
    ++mi;
  }
  for (int k = 0; k < 2; ++k) EXPECT_EQ(truth[1][k], truth[0][k]) << k;
  for (int k = 0; k < 4; ++k) EXPECT_EQ(counters[1][k], counters[0][k]) << k;
  EXPECT_NEAR(truth[1][0], 25e6, 2.5e6);
}

// Cross traffic never becomes events in hybrid mode: each probe costs its
// send event and one delivery event, at any cross load.
TEST(HybridScenario, ProbeCostsTwoEventsAtAnyLoad) {
  for (double util : {0.2, 0.5, 0.9}) {
    auto sc = core::Scenario::single_hop(
        hybrid_cfg(core::CrossModel::kPoisson, util, sim::SimMode::kHybrid));
    const std::uint64_t before = sc.simulator().events_processed();
    std::uint64_t probes = 0;
    for (int s = 0; s < 20; ++s) {
      probe::StreamSpec spec = probe::StreamSpec::periodic(30e6, 1500, 50);
      probe::StreamResult r = sc.transport().send_stream(spec);
      ASSERT_EQ(r.lost_count(), 0u);
      probes += r.packets.size();
    }
    EXPECT_EQ(sc.simulator().events_processed() - before, 2 * probes)
        << "util " << util;
  }
}

// A hybrid source draws arrivals as syncs consume them: after any sync it
// holds at most one pull (64 arrivals) drawn but not yet absorbed.  All
// 64 stay pending when the sync time falls between the last arrival of
// one pull and the first of the next.  The link's packets_in counts the
// absorbed cross arrivals plus the probes.
TEST(HybridScenario, SourceDrawsAtMostOnePullAhead) {
  sim::LinkConfig lc;
  lc.capacity_bps = 50e6;
  lc.propagation_delay = kMillisecond;
  lc.queue_limit_bytes = 2 << 20;
  core::Scenario sc = core::Scenario::custom({lc}, 5);
  auto gen = std::make_unique<traffic::PoissonGenerator>(
      sc.simulator(), sc.path(), 0, false, 1, stats::Rng(5), 25e6,
      traffic::SizeDistribution::internet_mix());
  const traffic::PoissonGenerator* raw = gen.get();
  sc.add_cross_source(std::move(gen), 0, false, 1, sim::SimMode::kHybrid,
                      60 * kSecond);
  const sim::LinkStats& st = sc.path().link(0).stats();
  constexpr std::uint64_t kOnePull = 64;

  sc.simulator().run_until(500 * kMillisecond);
  sc.ground_truth(0, 500 * kMillisecond);  // syncs the source to now
  ASSERT_GT(st.packets_in, 1000u);
  EXPECT_LE(raw->packets_sent() - st.packets_in, kOnePull);

  probe::StreamResult r = sc.transport().send_stream(
      probe::StreamSpec::periodic(30e6, 1500, 50));
  ASSERT_EQ(r.lost_count(), 0u);
  sc.ground_truth(0, sc.simulator().now());
  const std::uint64_t cross_in = st.packets_in - r.packets.size();
  EXPECT_GT(cross_in, 2000u);
  EXPECT_LE(raw->packets_sent() - cross_in, kOnePull);
}

// The hybrid drain rule: with no cross events pending, a stream still
// missing probes must wait its full drain timeout, not return at its last
// probe.  Up to and including the first lossy stream, a tiny-queue hybrid
// run matches packet mode probe for probe; that stream then ends exactly
// at its deadline (packet mode ends at its last event before it).
TEST(HybridScenario, LossyStreamEndsAtItsDeadline) {
  auto make = [](sim::SimMode mode) {
    core::SingleHopConfig cfg =
        hybrid_cfg(core::CrossModel::kPoisson, 0.5, mode);
    cfg.queue_limit_bytes = 12 * 1024;
    core::Scenario sc = core::Scenario::single_hop(cfg);
    sc.transport().set_drain_timeout(100 * kMillisecond);
    return sc;
  };
  core::Scenario pkt = make(sim::SimMode::kPacket);
  core::Scenario hyb = make(sim::SimMode::kHybrid);
  bool lossy = false;
  for (int s = 0; s < 40 && !lossy; ++s) {
    probe::StreamSpec spec =
        probe::StreamSpec::periodic(10e6 + 2e6 * s, 1500, 60);
    const SimTime start = hyb.simulator().now() + kMillisecond;
    ASSERT_EQ(pkt.simulator().now() + kMillisecond, start) << "stream " << s;
    probe::StreamResult rp = pkt.transport().send_stream(spec, kMillisecond);
    probe::StreamResult rh = hyb.transport().send_stream(spec, kMillisecond);
    ASSERT_EQ(rh.packets.size(), rp.packets.size());
    for (std::size_t i = 0; i < rp.packets.size(); ++i) {
      EXPECT_EQ(rh.packets[i].received, rp.packets[i].received)
          << "stream " << s << " probe " << i;
      EXPECT_EQ(rh.packets[i].lost, rp.packets[i].lost)
          << "stream " << s << " probe " << i;
    }
    lossy = rh.lost_count() > 0;
    if (lossy) {
      EXPECT_EQ(hyb.simulator().now(),
                start + spec.packets.back().offset + 100 * kMillisecond);
    }
  }
  EXPECT_TRUE(lossy);
}

// ------------------------------------------ hybrid == packet, bit for bit ---

// Everything a probed run exposes: per-probe outcomes, bfind-style per-hop
// current_delay() samples, every link counter and meter interval count,
// and the meter-derived series and ground truth as raw bits.
struct ProbedRun {
  std::vector<SimTime> sent, received;
  std::vector<char> lost;
  std::vector<SimTime> delays;
  std::vector<std::uint64_t> counters;
  std::vector<std::uint64_t> bits;
};

void record_link(ProbedRun& out, const sim::Link& link, SimTime t0,
                 SimTime t1) {
  const sim::LinkStats& s = link.stats();
  for (std::uint64_t v :
       {s.packets_in, s.packets_out, s.packets_dropped, s.packets_red_dropped,
        s.packets_lost, s.bytes_in, s.bytes_out, s.packets_ge_lost,
        s.packets_duplicated, s.packets_reordered, s.capacity_changes})
    out.counters.push_back(v);
  out.counters.push_back(link.meter().interval_count());
  for (bool cross_only : {false, true})
    for (double a : link.meter().avail_bw_series(t0, t1, 10 * kMillisecond,
                                                 cross_only))
      out.bits.push_back(std::bit_cast<std::uint64_t>(a));
}

// Back-to-back 700 B and 1500 B streams at 5-60 Mb/s, with every hop's
// current_delay() sampled every 250 us while each stream is in flight.
ProbedRun run_probed(core::Scenario sc) {
  ProbedRun out;
  sim::Simulator& sim = sc.simulator();
  sim::Path& path = sc.path();
  const double rates[] = {5e6, 20e6, 35e6, 50e6, 60e6, 10e6, 45e6, 30e6};
  for (std::size_t k = 0; k < std::size(rates); ++k) {
    const std::uint32_t size = k % 2 == 0 ? 700 : 1500;
    probe::StreamSpec spec = probe::StreamSpec::periodic(rates[k], size, 40);
    const SimTime start = sim.now() + kMillisecond;
    for (SimTime t = start; t < start + spec.span();
         t += 250 * sim::kMicrosecond)
      sim.at(t, [&path, &out] {
        for (std::size_t h = 0; h < path.hop_count(); ++h)
          out.delays.push_back(path.link(h).current_delay());
      });
    probe::StreamResult r = sc.transport().send_stream(spec, start - sim.now());
    for (const probe::ProbeRecord& p : r.packets) {
      out.sent.push_back(p.sent);
      out.received.push_back(p.received);
      out.lost.push_back(p.lost ? 1 : 0);
    }
  }
  sim.run_until(sim.now() + 100 * kMillisecond);
  path.sync_hybrid(sim.now());
  for (std::size_t h = 0; h < path.hop_count(); ++h)
    record_link(out, path.link(h), 2 * kSecond, sim.now());
  out.bits.push_back(std::bit_cast<std::uint64_t>(
      sc.ground_truth(2 * kSecond, sim.now())));
  return out;
}

void expect_same_run(const ProbedRun& pkt, const ProbedRun& hyb,
                     const std::string& label) {
  EXPECT_EQ(hyb.sent, pkt.sent) << label;
  EXPECT_EQ(hyb.received, pkt.received) << label;
  EXPECT_EQ(hyb.lost, pkt.lost) << label;
  EXPECT_EQ(hyb.delays, pkt.delays) << label;
  EXPECT_EQ(hyb.counters, pkt.counters) << label;
  EXPECT_EQ(hyb.bits, pkt.bits) << label;
}

// Hybrid mode is an exact integration of packet mode, not an
// approximation: with probes queueing among the cross traffic, every
// observable agrees bit for bit.
TEST(HybridScenario, MatchesPacketModeExactly) {
  for (core::CrossModel model : {core::CrossModel::kCbr,
                                 core::CrossModel::kPoisson,
                                 core::CrossModel::kParetoOnOff}) {
    for (double util : {0.5, 0.8}) {
      ProbedRun runs[2];
      int mi = 0;
      for (sim::SimMode mode : {sim::SimMode::kPacket, sim::SimMode::kHybrid}) {
        core::SingleHopConfig cfg = hybrid_cfg(model, util, mode);
        cfg.trimodal_cross_sizes = model == core::CrossModel::kPoisson;
        runs[mi++] = run_probed(core::Scenario::single_hop(cfg));
      }
      ASSERT_FALSE(runs[0].delays.empty());
      expect_same_run(runs[0], runs[1],
                      std::string(core::to_string(model)) + " util " +
                          std::to_string(util));
    }
  }
  ProbedRun runs[2];
  int mi = 0;
  for (sim::SimMode mode : {sim::SimMode::kPacket, sim::SimMode::kHybrid}) {
    core::MultiHopConfig mc;
    mc.mode = mode;
    mc.traffic_horizon = 30 * kSecond;
    mc.seed = 5;
    runs[mi++] = run_probed(core::Scenario::multi_hop(mc));
  }
  expect_same_run(runs[0], runs[1], "5-hop Poisson");
}

// Hybrid runs are as repeatable as packet runs: same seed, same results.
TEST(HybridScenario, DeterministicAcrossRuns) {
  double truth[2];
  std::uint64_t received[2];
  for (int run = 0; run < 2; ++run) {
    auto sc = core::Scenario::single_hop(
        hybrid_cfg(core::CrossModel::kParetoOnOff, 0.7, sim::SimMode::kHybrid));
    probe::StreamSpec spec = probe::StreamSpec::periodic(20e6, 1200, 30);
    std::uint64_t got = 0;
    for (int s = 0; s < 5; ++s) {
      probe::StreamResult r = sc.transport().send_stream(spec);
      got += r.packets.size() - r.lost_count();
      sc.simulator().run_until(sc.simulator().now() + 100 * kMillisecond);
    }
    truth[run] = sc.ground_truth(2 * kSecond, sc.simulator().now());
    received[run] = got;
  }
  EXPECT_DOUBLE_EQ(truth[0], truth[1]);
  EXPECT_EQ(received[0], received[1]);
}

// ------------------------------ vectorized bulk retirement, pinned ---

struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void f64(double d) { u64(std::bit_cast<std::uint64_t>(d)); }
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

struct FluidOutcome {
  std::uint64_t digest = 0;
  std::uint64_t bulk_packets = 0;
};

// Feeds a synthetic arrival schedule through a FluidQueue in chunks and
// digests everything observable: link counters, meter series, interval
// count, residual backlog.
FluidOutcome run_fluid(double load_factor, std::size_t queue_limit,
                       bool straddle_horizon, std::uint32_t seed) {
  sim::Simulator simu;
  sim::LinkConfig lc;
  lc.capacity_bps = 50e6;
  lc.propagation_delay = sim::kMillisecond;
  lc.queue_limit_bytes = queue_limit;
  sim::Path path(simu, {lc});
  sim::CountingSink sink;
  path.set_receiver(&sink);
  sim::FluidQueue& fq = path.link(0).enable_fluid();
  fq.reset(0);

  std::mt19937 rng(seed);
  std::exponential_distribution<double> gap(1.0);
  const std::uint32_t size_choices[4] = {40, 576, 1500, 1004};
  const double mean_gap_s = 1500.0 * 8.0 / (50e6 * load_factor);

  sim::SimTime t = 0;
  std::vector<sim::SimTime> times;
  std::vector<std::uint32_t> sizes;
  Digest d;
  for (int chunk = 0; chunk < 24; ++chunk) {
    times.clear();
    sizes.clear();
    const std::size_t n = 64 + rng() % 512;
    for (std::size_t i = 0; i < n; ++i) {
      t += sim::from_seconds(gap(rng) * mean_gap_s);
      times.push_back(t);
      sizes.push_back(size_choices[rng() % 4]);
    }
    // Horizon at the chunk end, or pulled back into the chunk to force
    // straddling runs onto the exact per-packet path.
    sim::SimTime record_until = times.back();
    if (straddle_horizon && chunk % 3 == 1)
      record_until = times[n / 2] + (times.back() - times[n / 2]) / 4;
    // Contract: all absorbed arrivals are <= record_until; split the
    // chunk there and advance past the remainder like the pump does.
    std::size_t m = n;
    while (m > 0 && times[m - 1] > record_until) --m;
    if (m == 0) continue;
    fq.absorb(times.data(), sizes.data(), m, record_until);
    t = times[m - 1];
    // Periodically drain to an idle point so the run crosses the
    // carried-backlog code.
    if (chunk % 5 == 4) {
      t += sim::from_seconds(mean_gap_s * 64);
      fq.advance(t);
    }
    d.u64(static_cast<std::uint64_t>(fq.free_at()));
    d.u64(fq.backlog_bytes());
    d.u64(fq.in_system());
  }
  const sim::SimTime end = t + sim::kSecond;
  fq.advance(end);

  digest_link(d, path.link(0));
  const auto& meter = path.link(0).meter();
  d.time(meter.busy_time(0, end));
  d.u64(meter.interval_count());
  for (double a :
       meter.avail_bw_series(0, end, 10 * sim::kMillisecond, false))
    d.f64(a);

  FluidOutcome out;
  out.digest = d.h;
  out.bulk_packets = fq.bulk_packets();
  return out;
}

// Digests of the five schedules recorded when absorb() still had a
// scalar whole-run loop beside the vectorized pass, identical with the
// pass on or off, except the straddle case, recorded again once a call's
// last run stayed in the FIFO: the backlog it samples after each call
// counts that run.  The vectorized pass, now the only whole-run path,
// must keep reproducing them.
TEST(FluidSimd, SchedulesMatchRecordedDigests) {
  struct Case {
    double load;
    std::size_t limit;
    bool straddle;
    std::uint64_t digest;
  };
  const Case cases[] = {
      // light load: long idle gaps, short runs
      {0.3, 2u << 20, false, 0xc8c07f4c552995a6ull},
      // heavy load: long runs, carried backlog
      {0.8, 2u << 20, false, 0x1147c87e85d9a331ull},
      // horizon straddles mid-chunk
      {0.8, 2u << 20, true, 0x4c11d508bbdb5679ull},
      // tiny queue: drop path engages
      {0.9, 6000, false, 0xfb324338b3a2ee71ull},
      // overload: one run per chunk, deep backlog
      {1.2, 2u << 20, false, 0xea937223e8addbebull},
  };
  std::uint32_t seed = 5;
  for (const Case& c : cases) {
    EXPECT_EQ(run_fluid(c.load, c.limit, c.straddle, seed).digest, c.digest)
        << "load=" << c.load << " limit=" << c.limit
        << " straddle=" << c.straddle;
    ++seed;
  }
}

TEST(FluidSimd, BulkPathActuallyEngages) {
  FluidOutcome out = run_fluid(0.5, 2u << 20, false, 42);
  EXPECT_GT(out.bulk_packets, 0u);
}

}  // namespace
