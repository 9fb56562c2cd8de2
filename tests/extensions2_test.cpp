// Tests for the second extension wave: RED queueing, CUSUM level-shift
// detection, and noisy receiver timestamps.
#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "est/pathload.hpp"
#include "probe/session.hpp"
#include "sim/link.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "stats/cusum.hpp"
#include "stats/moments.hpp"
#include "stats/rng.hpp"
#include "stats/trend.hpp"
#include "tcp/tcp.hpp"
#include "traffic/poisson.hpp"

namespace {

using namespace abw;
using abw::sim::kMillisecond;
using abw::sim::kSecond;

// ----------------------------------------------------------------- RED ---

TEST(Red, NoDropsBelowMinThreshold) {
  sim::Simulator simu;
  sim::LinkConfig cfg;
  cfg.capacity_bps = 100e6;
  cfg.discipline = sim::QueueDiscipline::kRed;
  sim::Path path(simu, {cfg});
  sim::CountingSink sink;
  path.set_receiver(&sink);
  // Offered load 50% => backlog never approaches min_threshold.
  traffic::PoissonGenerator g(simu, path, 0, false, 1, stats::Rng(1), 50e6,
                              traffic::SizeDistribution::fixed(1500));
  g.start(0, 10 * kSecond);
  simu.run_until(10 * kSecond);
  EXPECT_EQ(path.link(0).stats().packets_red_dropped, 0u);
}

TEST(Red, EarlyDropsUnderSustainedOverload) {
  sim::Simulator simu;
  sim::LinkConfig cfg;
  cfg.capacity_bps = 20e6;
  cfg.queue_limit_bytes = 300 * 1500;
  cfg.discipline = sim::QueueDiscipline::kRed;
  cfg.red.min_threshold_bytes = 10 * 1500;
  cfg.red.max_threshold_bytes = 60 * 1500;
  cfg.red.ewma_weight = 0.05;
  sim::Path path(simu, {cfg});
  sim::CountingSink sink;
  path.set_receiver(&sink);
  traffic::PoissonGenerator g(simu, path, 0, false, 1, stats::Rng(2), 30e6,
                              traffic::SizeDistribution::fixed(1500));
  g.start(0, 10 * kSecond);
  simu.run_until(10 * kSecond);
  simu.run_until_idle();
  const auto& st = path.link(0).stats();
  EXPECT_GT(st.packets_red_dropped, 100u);
  EXPECT_EQ(st.packets_in,
            st.packets_out + st.packets_dropped + st.packets_red_dropped +
                st.packets_lost);
}

TEST(Red, KeepsQueueShorterThanDropTail) {
  auto avg_backlog = [](sim::QueueDiscipline disc) {
    sim::Simulator simu;
    sim::LinkConfig cfg;
    cfg.capacity_bps = 20e6;
    cfg.queue_limit_bytes = 200 * 1500;
    cfg.discipline = disc;
    cfg.red.min_threshold_bytes = 8 * 1500;
    cfg.red.max_threshold_bytes = 40 * 1500;
    cfg.red.max_drop_prob = 0.2;
    cfg.red.ewma_weight = 0.05;
    sim::Path path(simu, {cfg});
    sim::TypeDemux demux;
    tcp::TcpReceiverHub hub;
    demux.register_handler(sim::PacketType::kTcpData, &hub);
    path.set_receiver(&demux);
    tcp::TcpConfig tc;
    tc.receiver_window = 512;
    tcp::TcpConnection conn(simu, path, hub, 1, tc);
    conn.start(0);
    // Sample the backlog once per 50 ms over 20 s.
    double sum = 0;
    int n = 0;
    for (sim::SimTime t = kSecond; t <= 20 * kSecond; t += 50 * kMillisecond) {
      simu.run_until(t);
      sum += static_cast<double>(path.link(0).backlog_bytes());
      ++n;
    }
    return sum / n;
  };
  double red = avg_backlog(sim::QueueDiscipline::kRed);
  double tail = avg_backlog(sim::QueueDiscipline::kDropTail);
  EXPECT_LT(red, 0.6 * tail);  // RED's whole point: shorter standing queue
}

TEST(Red, TcpStillGetsGoodUtilization) {
  sim::Simulator simu;
  sim::LinkConfig cfg;
  cfg.capacity_bps = 20e6;
  cfg.propagation_delay = 5 * kMillisecond;
  cfg.discipline = sim::QueueDiscipline::kRed;
  cfg.red.min_threshold_bytes = 8 * 1500;
  cfg.red.max_threshold_bytes = 40 * 1500;
  cfg.red.ewma_weight = 0.02;
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
  EXPECT_GT(conn.throughput_bps(simu.now()), 20e6 * 0.6);
}

// --------------------------------------------------------------- CUSUM ---

TEST(Cusum, DetectsUpwardStep) {
  stats::Rng rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(10.0 + 0.5 * rng.normal());
  for (int i = 0; i < 100; ++i) xs.push_back(14.0 + 0.5 * rng.normal());
  auto shift = stats::detect_level_shift(xs);
  ASSERT_TRUE(shift.has_value());
  EXPECT_TRUE(shift->upward);
  EXPECT_NEAR(static_cast<double>(shift->at), 100.0, 20.0);
}

TEST(Cusum, DetectsDownwardStep) {
  stats::Rng rng(6);
  std::vector<double> xs;
  for (int i = 0; i < 120; ++i) xs.push_back(35.0 + 1.0 * rng.normal());
  for (int i = 0; i < 120; ++i) xs.push_back(15.0 + 1.0 * rng.normal());
  auto shift = stats::detect_level_shift(xs);
  ASSERT_TRUE(shift.has_value());
  EXPECT_FALSE(shift->upward);
  EXPECT_NEAR(static_cast<double>(shift->at), 120.0, 20.0);
}

TEST(Cusum, QuietOnStationaryNoise) {
  stats::Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.normal());
  EXPECT_FALSE(stats::detect_level_shift(xs).has_value());
}

TEST(Cusum, SegmentsMultipleShifts) {
  stats::Rng rng(8);
  std::vector<double> xs;
  for (int i = 0; i < 80; ++i) xs.push_back(10.0 + 0.3 * rng.normal());
  for (int i = 0; i < 80; ++i) xs.push_back(20.0 + 0.3 * rng.normal());
  for (int i = 0; i < 80; ++i) xs.push_back(5.0 + 0.3 * rng.normal());
  auto bounds = stats::segment_by_level_shifts(xs);
  ASSERT_GE(bounds.size(), 3u);  // 0 + two change points
  EXPECT_EQ(bounds[0], 0u);
  EXPECT_NEAR(static_cast<double>(bounds[1]), 80.0, 15.0);
  EXPECT_NEAR(static_cast<double>(bounds[2]), 160.0, 15.0);
}

TEST(Cusum, ShortOrConstantSeriesNeverAlarm) {
  EXPECT_FALSE(stats::detect_level_shift({1, 2, 3}).has_value());
  std::vector<double> constant(50, 3.0);
  EXPECT_FALSE(stats::detect_level_shift(constant).has_value());
}

// --------------------------------------------------- timestamp noise ---

TEST(ClockNoise, QuantizationRoundsTimestamps) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  probe::ReceiverClock clock;
  clock.quantization = 10 * sim::kMicrosecond;
  sc.transport().set_receiver_clock(clock);
  auto res = sc.transport().send_stream(probe::StreamSpec::periodic(20e6, 1500, 50));
  for (const auto& p : res.packets) {
    if (p.lost) continue;
    EXPECT_EQ(p.received % (10 * sim::kMicrosecond), 0);
  }
}

TEST(ClockNoise, JitterWidensOwdSpreadButTrendSurvives) {
  auto run = [](double jitter, double rate) {
    core::SingleHopConfig cfg;
    cfg.model = core::CrossModel::kCbr;
    cfg.seed = 9;
    auto sc = core::Scenario::single_hop(cfg);
    probe::ReceiverClock clock;
    clock.jitter_std_seconds = jitter;
    sc.transport().set_receiver_clock(clock);
    auto res = sc.transport().send_stream(
        probe::StreamSpec::periodic(rate, 1500, 200));
    return std::make_pair(stats::stddev(res.owds_seconds()),
                          stats::combined_trend(res.owds_seconds()));
  };
  // Below the avail-bw the OWD series is nearly flat, so timestamping
  // jitter dominates the spread there.
  auto [clean_sd, clean_trend] = run(0.0, 20e6);
  auto [noisy_sd, noisy_trend] = run(100e-6, 20e6);
  EXPECT_GT(noisy_sd, 2.0 * clean_sd);
  EXPECT_NE(clean_trend, stats::Trend::kIncreasing);
  EXPECT_NE(noisy_trend, stats::Trend::kIncreasing);
  // Above the avail-bw the congestion ramp dwarfs the jitter: the
  // increasing verdict must survive.
  auto [ignored, above_trend] = run(100e-6, 40e6);
  (void)ignored;
  EXPECT_EQ(above_trend, stats::Trend::kIncreasing);
}

TEST(ClockNoise, PathloadRobustToRealisticNoise) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  cfg.seed = 10;
  auto sc = core::Scenario::single_hop(cfg);
  probe::ReceiverClock clock;
  clock.offset = 123 * kMillisecond;
  clock.drift_ppm = 50.0;
  clock.quantization = sim::kMicrosecond;
  clock.jitter_std_seconds = 20e-6;
  sc.transport().set_receiver_clock(clock);

  est::PathloadConfig pc;
  pc.min_rate_bps = 2e6;
  pc.max_rate_bps = 49e6;
  est::Pathload pl(pc);
  auto e = pl.estimate(sc.transport());
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(e.point_bps(), 25e6, 6e6);
}

}  // namespace
