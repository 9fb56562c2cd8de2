// API-surface and edge-case tests that the module-focused suites don't
// reach: result-type invariants, boundary states, accessor semantics.
#include <gtest/gtest.h>

#include <sstream>

#include "core/monitor.hpp"
#include "core/registry.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "est/schirp.hpp"
#include "probe/session.hpp"
#include "sim/path.hpp"
#include "tcp/flows.hpp"

namespace {

using namespace abw;
using abw::sim::kMillisecond;
using abw::sim::kSecond;

// ---------------------------------------------------------- probe cost ---

TEST(Api, ProbeCostElapsedSpansFirstToLastActivity) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  EXPECT_EQ(sc.transport().cost().streams, 0u);
  sc.transport().send_stream(probe::StreamSpec::periodic(10e6, 1500, 10));
  sim::SimTime first = sc.transport().cost().first_send;
  sc.simulator().run_until(sc.simulator().now() + kSecond);
  sc.transport().send_stream(probe::StreamSpec::periodic(10e6, 1500, 10));
  const auto& cost = sc.transport().cost();
  EXPECT_EQ(cost.first_send, first);  // unchanged by later streams
  EXPECT_GT(cost.elapsed(), kSecond);
  EXPECT_EQ(cost.streams, 2u);
}

// --------------------------------------------------------- stream specs ---

TEST(Api, StreamSpecDegenerateAccessors) {
  probe::StreamSpec empty;
  EXPECT_DOUBLE_EQ(empty.nominal_rate_bps(), 0.0);
  EXPECT_EQ(empty.span(), 0);
  auto one = probe::StreamSpec::periodic(1e6, 100, 1);
  EXPECT_DOUBLE_EQ(one.nominal_rate_bps(), 0.0);  // needs >= 2 packets
}

TEST(Api, StreamResultAllLost) {
  probe::StreamResult r;
  for (std::uint32_t i = 0; i < 3; ++i) {
    probe::ProbeRecord rec;
    rec.seq = i;
    rec.size_bytes = 100;
    rec.sent = i;
    rec.lost = true;
    r.packets.push_back(rec);
  }
  EXPECT_EQ(r.lost_count(), 3u);
  EXPECT_DOUBLE_EQ(r.output_rate_bps(), 0.0);
  EXPECT_TRUE(r.owds_seconds().empty());
  EXPECT_TRUE(r.relative_owds_ms().empty());
}

// ---------------------------------------------------------------- path ---

TEST(Api, TightLinkPrefersFirstOnTies) {
  sim::Simulator simu;
  sim::LinkConfig cfg;
  cfg.capacity_bps = 10e6;
  sim::Path path(simu, {cfg, cfg});
  sim::CountingSink sink;
  path.set_receiver(&sink);
  // Both links idle and identical: the minimum is attained at hop 0.
  EXPECT_EQ(path.tight_link(0, kSecond), 0u);
}

TEST(Api, CrossAvailBwNeverBelowTotalAvailBw) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kPoisson;
  auto sc = core::Scenario::single_hop(cfg);
  sc.transport().send_stream(probe::StreamSpec::periodic(40e6, 1500, 200));
  sim::SimTime now = sc.simulator().now();
  double total = sc.path().avail_bw(now - kSecond, now);
  double cross_only = sc.path().cross_avail_bw(now - kSecond, now);
  EXPECT_GE(cross_only, total - 1.0);  // excluding load can only raise A
}

// ----------------------------------------------------------------- TCP ---

TEST(Api, TcpCompletionDeliversExactByteCount) {
  sim::Simulator simu;
  sim::LinkConfig cfg;
  cfg.capacity_bps = 50e6;
  sim::Path path(simu, {cfg});
  sim::TypeDemux demux;
  tcp::TcpReceiverHub hub;
  demux.register_handler(sim::PacketType::kTcpData, &hub);
  path.set_receiver(&demux);
  tcp::TcpConfig tc;
  tc.bytes_to_send = 12345;  // not a multiple of MSS: rounds up to segments
  tcp::TcpConnection conn(simu, path, hub, 1, tc);
  int completions = 0;
  conn.set_on_complete([&] { ++completions; });
  conn.start(0);
  simu.run_until(10 * kSecond);
  EXPECT_TRUE(conn.completed());
  EXPECT_EQ(completions, 1);
  // 12345 / 1460 -> 9 segments of payload acked.
  EXPECT_EQ(conn.acked_bytes(), 9u * 1460u);
}

TEST(Api, PersistentFlowSetRejectsZeroFlows) {
  sim::Simulator simu;
  sim::LinkConfig cfg;
  sim::Path path(simu, {cfg});
  tcp::TcpReceiverHub hub;
  tcp::TcpConfig tc;
  EXPECT_THROW(tcp::PersistentFlowSet(simu, path, hub, 1, 0, tc),
               std::invalid_argument);
}

// -------------------------------------------------------------- schirp ---

TEST(Api, SChirpSmoothWindowLargerThanSeriesIsIdentity) {
  std::vector<double> xs = {1, 2, 3};
  EXPECT_EQ(est::SChirp::smooth(xs, 9), xs);
}

// ------------------------------------------------------------ registry ---

TEST(Api, RegistryHonorsRepetitionKnob) {
  core::ToolOptions opts;
  opts.tight_capacity_bps = 50e6;
  opts.min_rate_bps = 2e6;
  opts.max_rate_bps = 48e6;
  opts.repetitions = 7;
  stats::Rng rng(1);
  // Builds fine and the knob reaches the tool (observable via cost).
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  auto spruce = core::make_estimator("spruce", opts, rng);
  auto before = sc.transport().cost().packets;
  auto e = spruce->estimate(sc.transport());
  ASSERT_TRUE(e.valid);
  EXPECT_EQ(sc.transport().cost().packets - before, 14u);  // 7 pairs
}

TEST(Api, RegistryPacketSizeKnob) {
  core::ToolOptions opts;
  opts.tight_capacity_bps = 50e6;
  opts.min_rate_bps = 2e6;
  opts.max_rate_bps = 48e6;
  opts.packet_size = 700;
  stats::Rng rng(2);
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  auto direct = core::make_estimator("direct", opts, rng);
  auto before = sc.transport().cost().bytes;
  auto pkts_before = sc.transport().cost().packets;
  (void)direct->estimate(sc.transport());
  auto bytes = sc.transport().cost().bytes - before;
  auto pkts = sc.transport().cost().packets - pkts_before;
  EXPECT_EQ(bytes, pkts * 700u);
}

// -------------------------------------------------------------- report ---

TEST(Api, AsciiPlotDownsamplesLongSeries) {
  std::vector<double> ys;
  for (int i = 0; i < 10000; ++i) ys.push_back(std::sin(i * 0.01));
  std::string plot = core::ascii_plot(ys, 10, 60);
  // Every column carries exactly one mark; rows bounded by height.
  std::size_t stars = 0;
  for (char c : plot) stars += c == '*';
  EXPECT_EQ(stars, 60u);
}

TEST(Api, MbpsPrecisionControl) {
  EXPECT_EQ(core::mbps(123456789.0, 0), "123 Mbps");
  EXPECT_EQ(core::mbps(123456789.0, 3), "123.457 Mbps");
}

// ------------------------------------------------------------- monitor ---

TEST(Api, MonitorReadingsAccumulateAcrossRuns) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  core::MonitorConfig mc;
  mc.min_rate_bps = 2e6;
  mc.max_rate_bps = 48e6;
  mc.pathload.streams_per_fleet = 3;
  mc.pathload.packets_per_stream = 50;
  core::AvailBwMonitor monitor(sc, mc);
  auto first = monitor.run_until(5 * kSecond);
  auto second = monitor.run_until(8 * kSecond);
  EXPECT_EQ(monitor.readings().size(), first.size() + second.size());
  EXPECT_GT(second.size(), 0u);
  // Timestamps strictly increase across the whole history.
  for (std::size_t i = 1; i < monitor.readings().size(); ++i)
    EXPECT_GT(monitor.readings()[i].at, monitor.readings()[i - 1].at);
  EXPECT_GT(monitor.current_estimate(), 0.0);
}

TEST(Api, MonitorInitialEstimateSkipsBootstrap) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  core::MonitorConfig mc;
  mc.min_rate_bps = 2e6;
  mc.max_rate_bps = 48e6;
  mc.initial_estimate_bps = 25e6;
  mc.pathload.streams_per_fleet = 3;
  mc.pathload.packets_per_stream = 50;
  core::AvailBwMonitor monitor(sc, mc);
  EXPECT_DOUBLE_EQ(monitor.current_estimate(), 25e6);
  auto readings = monitor.run_until(4 * kSecond);
  ASSERT_GT(readings.size(), 0u);
  EXPECT_NEAR(readings.back().estimate_bps, 25e6, 8e6);
}

// ----------------------------------------------------------- scenarios ---

TEST(Api, CustomScenarioHasNoTrafficHorizon) {
  std::vector<sim::LinkConfig> links(1);
  auto sc = core::Scenario::custom(links, 1);
  EXPECT_EQ(sc.traffic_active_until(), 0);
  EXPECT_DOUBLE_EQ(sc.nominal_avail_bw(), links[0].capacity_bps);
}

TEST(Api, RecentGroundTruthBeforeWarmupFallsBack) {
  core::SingleHopConfig cfg;
  cfg.warmup = 100 * kMillisecond;
  auto sc = core::Scenario::single_hop(cfg);
  // Window longer than elapsed time: falls back to the nominal value.
  EXPECT_DOUBLE_EQ(sc.recent_ground_truth(10 * kSecond), 25e6);
}

}  // namespace
