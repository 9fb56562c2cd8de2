// Property-based and randomized-reference tests: invariants that must
// hold across swept parameters, checked against brute-force references or
// closed-form fluid predictions.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/monitor.hpp"
#include "core/scenario.hpp"
#include "est/pathload.hpp"
#include "est/spruce.hpp"
#include "probe/session.hpp"
#include "sim/scheduler.hpp"
#include "sim/util_meter.hpp"
#include "stats/moments.hpp"
#include "stats/rng.hpp"
#include "stats/trend.hpp"
#include "tcp/tcp.hpp"
#include "trace/availbw_process.hpp"
#include "traffic/cbr.hpp"

namespace {

using namespace abw;
using abw::sim::kMillisecond;
using abw::sim::kSecond;

// ---------------------------------------------------- scheduler fuzzing ---

TEST(Property, SchedulerPopsInGlobalTimeOrder) {
  stats::Rng rng(1);
  sim::Scheduler sched;
  for (int i = 0; i < 5000; ++i)
    sched.schedule(rng.uniform_int(0, 1000000), [] {});
  sim::SimTime last = -1;
  while (!sched.empty()) {
    auto ev = sched.pop();
    EXPECT_GE(ev.time, last);
    last = ev.time;
  }
}

TEST(Property, SchedulerFifoAmongEqualTimes) {
  sim::Scheduler sched;
  stats::Rng rng(2);
  // Interleave two timestamps; within each, insertion order must hold.
  for (int i = 0; i < 200; ++i) {
    sim::SimTime t = rng.bernoulli(0.5) ? 10 : 20;
    sched.schedule(t, [] {});
  }
  std::vector<std::uint64_t> seq10, seq20;
  while (!sched.empty()) {
    auto ev = sched.pop();
    (ev.time == 10 ? seq10 : seq20).push_back(ev.seq);
  }
  EXPECT_TRUE(std::is_sorted(seq10.begin(), seq10.end()));
  EXPECT_TRUE(std::is_sorted(seq20.begin(), seq20.end()));
  EXPECT_EQ(seq10.size() + seq20.size(), 200u);
}

// ------------------------------------------ meter vs brute-force checks ---

TEST(Property, MeterMatchesBruteForceOnRandomPattern) {
  stats::Rng rng(3);
  sim::UtilizationMeter meter(10e6);
  struct Iv {
    sim::SimTime a, b;
    bool meas;
  };
  std::vector<Iv> ivs;
  sim::SimTime t = 0;
  for (int i = 0; i < 400; ++i) {
    t += rng.uniform_int(1, 50);          // idle gap
    sim::SimTime len = rng.uniform_int(1, 80);
    bool meas = rng.bernoulli(0.3);
    meter.add_busy(t, t + len, meas);
    ivs.push_back({t, t + len, meas});
    t += len;
  }
  auto brute = [&](sim::SimTime a, sim::SimTime b, bool only_meas) {
    sim::SimTime sum = 0;
    for (const auto& iv : ivs) {
      if (only_meas && !iv.meas) continue;
      sim::SimTime lo = std::max(a, iv.a), hi = std::min(b, iv.b);
      if (hi > lo) sum += hi - lo;
    }
    return sum;
  };
  for (int q = 0; q < 300; ++q) {
    sim::SimTime a = rng.uniform_int(0, t);
    sim::SimTime b = a + rng.uniform_int(1, t / 3);
    EXPECT_EQ(meter.busy_time(a, b), brute(a, b, false)) << a << " " << b;
    EXPECT_EQ(meter.measurement_busy_time(a, b), brute(a, b, true))
        << a << " " << b;
  }
}

TEST(Property, AvailBwProcessBytesMatchBruteForce) {
  stats::Rng rng(4);
  trace::PacketTrace tr(50e6);
  sim::SimTime t = 0;
  std::vector<std::pair<sim::SimTime, std::uint32_t>> recs;
  for (int i = 0; i < 2000; ++i) {
    t += rng.uniform_int(0, 5000);
    auto size = static_cast<std::uint32_t>(rng.uniform_int(40, 1500));
    tr.add(t, size);
    recs.emplace_back(t, size);
  }
  trace::AvailBwProcess proc(tr);
  for (int q = 0; q < 200; ++q) {
    sim::SimTime a = rng.uniform_int(0, t);
    sim::SimTime b = a + rng.uniform_int(1, t / 4);
    std::uint64_t brute = 0;
    for (const auto& [at, size] : recs)
      if (at >= a && at < b) brute += size;
    EXPECT_EQ(proc.bytes_in(a, b), brute);
  }
}

// ------------------------------------- multi-hop fluid cascade (Eq. 8) ---

// Through a cascade of links each carrying one-hop CBR cross traffic of
// rate Rc, the fluid model applies hop by hop: the stream leaves hop i at
// R_out = R_in * C / (C + R_in - A) when R_in > A, else unchanged.
class FluidCascade
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(FluidCascade, OutputRateFollowsPerHopEquationEight) {
  auto [hops, ri] = GetParam();
  constexpr double c = 50e6, rc = 25e6, a = c - rc;

  sim::Simulator simu;
  sim::LinkConfig lc;
  lc.capacity_bps = c;
  lc.queue_limit_bytes = 64 << 20;
  sim::Path path(simu, std::vector<sim::LinkConfig>(hops, lc));
  probe::ProbeSession session(simu, path);
  std::vector<std::unique_ptr<traffic::CbrGenerator>> gens;
  for (std::size_t h = 0; h < hops; ++h) {
    gens.push_back(std::make_unique<traffic::CbrGenerator>(
        simu, path, h, /*one_hop=*/true, static_cast<std::uint32_t>(h),
        stats::Rng(50 + h), rc, 1500));
    gens.back()->start(0, 120 * kSecond);
  }
  simu.run_until(kSecond);

  auto res = session.send_stream(probe::StreamSpec::periodic(ri, 1500, 300));
  ASSERT_TRUE(res.complete());

  double predicted = ri;
  for (std::size_t h = 0; h < hops; ++h)
    if (predicted > a) predicted = predicted * c / (c + predicted - a);

  EXPECT_NEAR(res.output_rate_bps(), predicted, predicted * 0.03)
      << "hops=" << hops << " Ri=" << ri;
}

INSTANTIATE_TEST_SUITE_P(
    HopsAndRates, FluidCascade,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u),
                       ::testing::Values(30e6, 40e6, 45e6)));

// -------------------------------------------------- spruce sweep (CBR) ---

class SpruceSweep : public ::testing::TestWithParam<double> {};

TEST_P(SpruceSweep, MeanSampleTracksAvailBwOnCbr) {
  double cross = GetParam();
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  cfg.cross_rate_bps = cross;
  cfg.seed = 99;
  auto sc = core::Scenario::single_hop(cfg);
  est::SpruceConfig spc;
  spc.tight_capacity_bps = cfg.capacity_bps;
  spc.pair_count = 200;
  est::Spruce spruce(spc, sc.rng().fork());
  auto e = spruce.estimate(sc.transport());
  ASSERT_TRUE(e.valid);
  double a = cfg.capacity_bps - cross;
  EXPECT_NEAR(e.point_bps(), a, std::max(3e6, a * 0.12)) << "cross=" << cross;
}

INSTANTIATE_TEST_SUITE_P(CrossRates, SpruceSweep,
                         ::testing::Values(10e6, 20e6, 30e6, 40e6));

// --------------------------------------------------- TCP vs loss rate ---

TEST(Property, TcpThroughputMonotoneInRandomLoss) {
  auto run = [](double loss) {
    sim::Simulator simu;
    sim::LinkConfig cfg;
    cfg.capacity_bps = 40e6;
    cfg.propagation_delay = 10 * kMillisecond;
    cfg.random_loss_prob = loss;
    sim::Path path(simu, {cfg});
    sim::TypeDemux demux;
    tcp::TcpReceiverHub hub;
    demux.register_handler(sim::PacketType::kTcpData, &hub);
    path.set_receiver(&demux);
    tcp::TcpConfig tc;
    tc.receiver_window = 256;
    tcp::TcpConnection conn(simu, path, hub, 1, tc);
    conn.start(0);
    simu.run_until(30 * kSecond);
    return conn.throughput_bps(simu.now());
  };
  double t0 = run(0.0), t1 = run(0.003), t2 = run(0.02);
  EXPECT_GT(t0, t1);
  EXPECT_GT(t1, t2);
  EXPECT_GT(t2, 0.5e6);  // still makes progress at 2% loss
}

// ------------------------------------------------ estimator determinism ---

TEST(Property, IdenticalSeedsGiveIdenticalEstimates) {
  auto run = [] {
    core::SingleHopConfig cfg;
    cfg.model = core::CrossModel::kParetoOnOff;
    cfg.seed = 31337;
    auto sc = core::Scenario::single_hop(cfg);
    est::PathloadConfig pc;
    pc.min_rate_bps = 2e6;
    pc.max_rate_bps = 49e6;
    est::Pathload pl(pc);
    return pl.estimate(sc.transport());
  };
  auto a = run();
  auto b = run();
  ASSERT_EQ(a.valid, b.valid);
  EXPECT_DOUBLE_EQ(a.low_bps, b.low_bps);
  EXPECT_DOUBLE_EQ(a.high_bps, b.high_bps);
}

TEST(Property, DifferentSeedsGiveDifferentPacketTimings) {
  auto first_gap = [](std::uint64_t seed) {
    core::SingleHopConfig cfg;
    cfg.seed = seed;
    auto sc = core::Scenario::single_hop(cfg);
    return sc.path().link(0).stats().packets_in;
  };
  EXPECT_NE(first_gap(1), first_gap(2));  // warmup packet counts differ
}

// ------------------------------------------------ trend detection SNR ---

class TrendSnr : public ::testing::TestWithParam<double> {};

TEST_P(TrendSnr, DetectionImprovesWithSignalToNoise) {
  double slope_per_sample = GetParam();  // seconds per packet
  stats::Rng rng(7);
  int detected = 0;
  constexpr int kTrials = 40;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<double> owds;
    for (int i = 0; i < 120; ++i)
      owds.push_back(0.005 + slope_per_sample * i + 2e-4 * rng.normal());
    if (stats::combined_trend(owds) == stats::Trend::kIncreasing) ++detected;
  }
  double rate = static_cast<double>(detected) / kTrials;
  if (slope_per_sample >= 2e-5) {
    EXPECT_GT(rate, 0.9) << "slope=" << slope_per_sample;
  } else if (slope_per_sample <= 1e-7) {
    EXPECT_LT(rate, 0.1) << "slope=" << slope_per_sample;
  }
}

INSTANTIATE_TEST_SUITE_P(Slopes, TrendSnr,
                         ::testing::Values(0.0, 1e-7, 2e-5, 1e-4));

// ------------------------------------------------------------- monitor ---

TEST(Monitor, TracksConstantAvailBw) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kPoisson;
  cfg.seed = 17;
  auto sc = core::Scenario::single_hop(cfg);
  core::MonitorConfig mc;
  mc.min_rate_bps = 2e6;
  mc.max_rate_bps = 48e6;
  mc.pathload.streams_per_fleet = 4;
  mc.pathload.packets_per_stream = 60;
  core::AvailBwMonitor monitor(sc, mc);
  auto readings = monitor.run_until(15 * kSecond);
  ASSERT_GE(readings.size(), 8u);
  // After the first few readings the estimate stays near 25 Mb/s.
  for (std::size_t i = 4; i < readings.size(); ++i)
    EXPECT_NEAR(readings[i].estimate_bps, 25e6, 8e6) << "reading " << i;
}

TEST(Monitor, RespondsToAvailBwDrop) {
  std::vector<sim::LinkConfig> links(1);
  links[0].capacity_bps = 50e6;
  auto sc = core::Scenario::custom(links, 21);
  traffic::CbrGenerator base(sc.simulator(), sc.path(), 0, false, 1,
                             stats::Rng(1), 15e6, 1500);
  base.start(0, 60 * kSecond);
  traffic::CbrGenerator surge(sc.simulator(), sc.path(), 0, false, 2,
                              stats::Rng(2), 20e6, 1500);
  surge.start(12 * kSecond, 60 * kSecond);
  sc.simulator().run_until(kSecond);

  core::MonitorConfig mc;
  mc.min_rate_bps = 2e6;
  mc.max_rate_bps = 48e6;
  mc.pathload.streams_per_fleet = 4;
  mc.pathload.packets_per_stream = 60;
  core::AvailBwMonitor monitor(sc, mc);
  monitor.run_until(25 * kSecond);

  // Last reading must be near the post-step avail-bw (15), the readings
  // before the step near 35.
  const auto& rs = monitor.readings();
  ASSERT_GE(rs.size(), 15u);
  double pre = 0, post = 0;
  int pre_n = 0, post_n = 0;
  for (const auto& r : rs) {
    if (r.at < 11 * kSecond && r.at > 4 * kSecond) {
      pre += r.estimate_bps;
      ++pre_n;
    }
    if (r.at > 20 * kSecond) {
      post += r.estimate_bps;
      ++post_n;
    }
  }
  ASSERT_GT(pre_n, 0);
  ASSERT_GT(post_n, 0);
  EXPECT_NEAR(pre / pre_n, 35e6, 8e6);
  EXPECT_NEAR(post / post_n, 15e6, 6e6);
}

TEST(Monitor, RejectsBadConfig) {
  core::SingleHopConfig cfg;
  auto sc = core::Scenario::single_hop(cfg);
  core::MonitorConfig bad;
  bad.probe_margin = 1.5;
  EXPECT_THROW(core::AvailBwMonitor(sc, bad), std::invalid_argument);
  bad = {};
  bad.max_rate_bps = bad.min_rate_bps;
  EXPECT_THROW(core::AvailBwMonitor(sc, bad), std::invalid_argument);
}

// ------------------------------------------- scenario loss passthrough ---

TEST(Property, ScenarioLossKnobReachesTheLink) {
  core::SingleHopConfig cfg;
  cfg.random_loss_prob = 0.05;
  cfg.seed = 5;
  auto sc = core::Scenario::single_hop(cfg);
  sc.simulator().run_until(10 * kSecond);
  const auto& st = sc.path().link(0).stats();
  EXPECT_GT(st.packets_lost, 0u);
  double rate = static_cast<double>(st.packets_lost) / st.packets_in;
  EXPECT_NEAR(rate, 0.05, 0.02);
}

}  // namespace
