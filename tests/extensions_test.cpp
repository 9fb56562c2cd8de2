// Tests for the extension features: autocorrelation/Ljung-Box, linear
// detrending, trace CSV persistence, random link loss (failure
// injection), unsynchronized receiver clocks, Pareto-gap traffic, the
// S-chirp estimator, and the estimator registry.
#include <gtest/gtest.h>

#include <sstream>

#include "core/registry.hpp"
#include "core/scenario.hpp"
#include "est/schirp.hpp"
#include "probe/session.hpp"
#include "stats/acf.hpp"
#include "stats/fgn.hpp"
#include "stats/moments.hpp"
#include "stats/regression.hpp"
#include "stats/trend.hpp"
#include "tcp/tcp.hpp"
#include "trace/synthetic_trace.hpp"
#include "trace/trace_io.hpp"
#include "traffic/pareto_gaps.hpp"

namespace {

using namespace abw;
using abw::sim::kMillisecond;
using abw::sim::kSecond;

// ----------------------------------------------------------------- ACF ---

TEST(Acf, WhiteNoiseHasNoCorrelation) {
  stats::Rng rng(1);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.normal());
  EXPECT_NEAR(stats::autocorrelation(xs, 1), 0.0, 0.05);
  EXPECT_NEAR(stats::autocorrelation(xs, 10), 0.0, 0.05);
  EXPECT_FALSE(stats::is_autocorrelated(xs, 10));
}

TEST(Acf, FgnMatchesTheoreticalAcf) {
  stats::Rng rng(2);
  auto xs = stats::generate_fgn(1 << 15, 0.8, rng);
  for (std::size_t lag : {1u, 2u, 4u}) {
    EXPECT_NEAR(stats::autocorrelation(xs, lag),
                stats::fgn_autocovariance(0.8, lag), 0.06)
        << "lag " << lag;
  }
  EXPECT_TRUE(stats::is_autocorrelated(xs, 10));
}

TEST(Acf, LagZeroIsOne) {
  std::vector<double> xs = {1, 5, 2, 8, 3};
  EXPECT_DOUBLE_EQ(stats::autocorrelation(xs, 0), 1.0);
  auto a = stats::acf(xs, 2);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0], 1.0);
}

TEST(Acf, DegenerateInputsAreSafe) {
  EXPECT_DOUBLE_EQ(stats::autocorrelation({}, 1), 0.0);
  EXPECT_DOUBLE_EQ(stats::autocorrelation({3.0, 3.0, 3.0}, 1), 0.0);
  EXPECT_THROW(stats::ljung_box({1.0, 2.0}, 5), std::invalid_argument);
}

// ------------------------------------------------------------- detrend ---

TEST(Detrend, RemovesExactLine) {
  std::vector<double> ys;
  for (int i = 0; i < 100; ++i) ys.push_back(3.0 * i + 7.0);
  auto r = stats::linear_detrend(ys);
  for (double v : r) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(Detrend, PreservesResidualStructure) {
  stats::Rng rng(3);
  std::vector<double> noise, drifted;
  for (int i = 0; i < 2000; ++i) {
    double n = rng.normal();
    noise.push_back(n);
    drifted.push_back(n + 0.01 * i);  // heavy linear drift
  }
  auto recovered = stats::linear_detrend(drifted);
  EXPECT_NEAR(stats::stddev(recovered), stats::stddev(noise), 0.05);
}

TEST(Detrend, ShortSeriesPassThrough) {
  std::vector<double> ys = {5.0};
  EXPECT_EQ(stats::linear_detrend(ys), ys);
}

// ------------------------------------------------------------ trace IO ---

TEST(TraceIo, RoundTripsThroughStreams) {
  stats::Rng rng(4);
  trace::SyntheticTraceConfig cfg;
  cfg.duration = kSecond;
  auto tr = trace::synthesize_selfsimilar_trace(cfg, rng);

  std::stringstream ss;
  trace::write_trace_csv(tr, ss);
  trace::PacketTrace back = trace::read_trace_csv(ss);

  ASSERT_EQ(back.size(), tr.size());
  EXPECT_DOUBLE_EQ(back.capacity_bps(), tr.capacity_bps());
  EXPECT_EQ(back.total_bytes(), tr.total_bytes());
  EXPECT_EQ(back.records()[tr.size() / 2].at, tr.records()[tr.size() / 2].at);
}

TEST(TraceIo, RoundTripsThroughFile) {
  trace::PacketTrace tr(10e6);
  tr.add(100, 40);
  tr.add(200, 1500);
  std::string path = "/tmp/abw_trace_io_test.csv";
  trace::save_trace_csv(tr, path);
  auto back = trace::load_trace_csv(path);
  EXPECT_EQ(back.size(), 2u);
  EXPECT_EQ(back.records()[1].size_bytes, 1500u);
}

TEST(TraceIo, RejectsMalformedInput) {
  std::stringstream no_header("1,2\n");
  EXPECT_THROW(trace::read_trace_csv(no_header), std::runtime_error);
  std::stringstream bad_field("# abw-trace v1 capacity_bps=1e6\nabc,100\n");
  EXPECT_THROW(trace::read_trace_csv(bad_field), std::runtime_error);
  std::stringstream no_comma("# abw-trace v1 capacity_bps=1e6\n123 100\n");
  EXPECT_THROW(trace::read_trace_csv(no_comma), std::runtime_error);
  std::stringstream out_of_order(
      "# abw-trace v1 capacity_bps=1e6\n200,100\n100,100\n");
  EXPECT_THROW(trace::read_trace_csv(out_of_order), std::runtime_error);
}

TEST(TraceIo, SkipsCommentsAndBlankLines) {
  std::stringstream ss(
      "# abw-trace v1 capacity_bps=5e6\n# comment\n\n10,100\n");
  auto tr = trace::read_trace_csv(ss);
  EXPECT_EQ(tr.size(), 1u);
}

// ----------------------------------------------------------- link loss ---

TEST(LinkLoss, LossRateMatchesConfig) {
  sim::Simulator simu;
  sim::LinkConfig cfg;
  cfg.capacity_bps = 1e9;
  cfg.random_loss_prob = 0.1;
  sim::Path path(simu, {cfg});
  sim::CountingSink sink;
  path.set_receiver(&sink);
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    sim::Packet p;
    p.size_bytes = 100;
    simu.at(i * 1000, [&path, p] { path.inject(0, p); });
  }
  simu.run_until_idle();
  double loss = static_cast<double>(path.link(0).stats().packets_lost) / kN;
  EXPECT_NEAR(loss, 0.1, 0.01);
  EXPECT_EQ(path.link(0).stats().packets_in,
            path.link(0).stats().packets_out +
                path.link(0).stats().packets_lost +
                path.link(0).stats().packets_dropped);
}

TEST(LinkLoss, ProbeStreamsReportLosses) {
  sim::Simulator simu;
  sim::LinkConfig cfg;
  cfg.capacity_bps = 100e6;
  cfg.random_loss_prob = 0.05;
  sim::Path path(simu, {cfg});
  probe::ProbeSession session(simu, path);
  session.set_drain_timeout(200 * kMillisecond);
  auto res = session.send_stream(probe::StreamSpec::periodic(20e6, 1500, 400));
  EXPECT_GT(res.lost_count(), 0u);
  EXPECT_LT(res.lost_count(), 100u);  // ~20 expected
  EXPECT_GT(res.output_rate_bps(), 0.0);
}

TEST(LinkLoss, TcpSurvivesRandomLoss) {
  sim::Simulator simu;
  sim::LinkConfig cfg;
  cfg.capacity_bps = 20e6;
  cfg.propagation_delay = 5 * kMillisecond;
  cfg.random_loss_prob = 0.01;
  sim::Path path(simu, {cfg});
  sim::TypeDemux demux;
  tcp::TcpReceiverHub hub;
  demux.register_handler(sim::PacketType::kTcpData, &hub);
  path.set_receiver(&demux);
  tcp::TcpConfig tc;
  tc.receiver_window = 128;
  tcp::TcpConnection conn(simu, path, hub, 1, tc);
  conn.start(0);
  simu.run_until(20 * kSecond);
  EXPECT_GT(conn.retransmits(), 0u);
  EXPECT_GT(conn.throughput_bps(simu.now()), 1e6);
}

TEST(LinkLoss, RejectsInvalidProbability) {
  sim::Simulator simu;
  sim::LinkConfig bad;
  bad.random_loss_prob = 1.5;
  EXPECT_THROW(sim::Link(simu, "x", bad), std::invalid_argument);
}

// ------------------------------------------------------- receiver clock ---

TEST(ReceiverClock, ConstantOffsetInflatesOwdsNotTrends) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  probe::ReceiverClock clock;
  clock.offset = 500 * kMillisecond;  // half a second of clock error
  sc.transport().set_receiver_clock(clock);

  auto res = sc.transport().send_stream(probe::StreamSpec::periodic(20e6, 1500, 100));
  auto owds = res.owds_seconds();
  EXPECT_GT(owds.front(), 0.5);  // absolute OWDs absorb the offset...
  auto rel = res.relative_owds_ms();
  EXPECT_NEAR(rel.front(), 0.0, 1e-9);  // ...relative OWDs do not
  EXPECT_NE(stats::combined_trend(owds), stats::Trend::kIncreasing);
}

TEST(ReceiverClock, DriftIsNegligibleWithinOneStream) {
  // 100 ppm drift adds 5 us over a 50 ms stream — far below queueing
  // signals; the trend verdicts at both rates must be unaffected.
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  probe::ReceiverClock clock;
  clock.drift_ppm = 100.0;
  sc.transport().set_receiver_clock(clock);

  auto below = sc.transport().send_stream(probe::StreamSpec::periodic(20e6, 1500, 150));
  EXPECT_NE(stats::combined_trend(below.owds_seconds()),
            stats::Trend::kIncreasing);
  auto above = sc.transport().send_stream(probe::StreamSpec::periodic(40e6, 1500, 150));
  EXPECT_EQ(stats::combined_trend(above.owds_seconds()),
            stats::Trend::kIncreasing);
}

TEST(ReceiverClock, DriftAccumulatesAcrossStreamsAndDetrends) {
  // Across many seconds the drift dominates long-run OWD records; the
  // detrending utility recovers the stationary residual.
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kPoisson;
  auto sc = core::Scenario::single_hop(cfg);
  probe::ReceiverClock clock;
  clock.drift_ppm = 200.0;
  sc.transport().set_receiver_clock(clock);

  std::vector<double> baselines;
  for (int i = 0; i < 40; ++i) {
    auto res = sc.transport().send_stream(
        probe::StreamSpec::periodic(10e6, 1500, 20), 100 * kMillisecond);
    auto owds = res.owds_seconds();
    if (!owds.empty()) baselines.push_back(stats::median(owds));
  }
  // Raw baselines drift upward strongly.
  auto fit_x = std::vector<double>(baselines.size());
  for (std::size_t i = 0; i < fit_x.size(); ++i) fit_x[i] = static_cast<double>(i);
  EXPECT_GT(stats::linear_fit(fit_x, baselines).slope, 1e-6);
  // Detrended residual is small again.
  auto resid = stats::linear_detrend(baselines);
  EXPECT_LT(stats::stddev(resid), stats::stddev(baselines));
}

// ----------------------------------------------------------- ParetoGap ---

TEST(ParetoGap, RateConvergesDespiteHeavyTail) {
  sim::Simulator simu;
  sim::LinkConfig cfg;
  cfg.capacity_bps = 1e9;
  sim::Path path(simu, {cfg});
  sim::CountingSink sink;
  path.set_receiver(&sink);
  traffic::ParetoGapGenerator g(simu, path, 0, false, 1, stats::Rng(5), 30e6,
                                1500, 1.9);
  g.start(0, 60 * kSecond);
  simu.run_until(60 * kSecond);
  EXPECT_NEAR(g.offered_rate(), 30e6, 30e6 * 0.1);
}

TEST(ParetoGap, GapsAreHeavierThanExponential) {
  sim::Simulator simu;
  sim::LinkConfig cfg;
  cfg.capacity_bps = 1e9;
  sim::Path path(simu, {cfg});
  sim::CountingSink sink;
  path.set_receiver(&sink);
  std::vector<double> gaps;
  sim::SimTime last = -1;
  path.link(0).set_arrival_tap([&](const sim::Packet&, sim::SimTime t) {
    if (last >= 0) gaps.push_back(sim::to_seconds(t - last));
    last = t;
  });
  traffic::ParetoGapGenerator g(simu, path, 0, false, 1, stats::Rng(6), 30e6,
                                1500, 1.5);
  g.start(0, 60 * kSecond);
  simu.run_until(60 * kSecond);
  ASSERT_GT(gaps.size(), 1000u);
  double cv = stats::stddev(gaps) / stats::mean(gaps);
  EXPECT_GT(cv, 1.5);  // exponential would be 1
}

TEST(ParetoGap, RejectsBadShape) {
  sim::Simulator simu;
  sim::LinkConfig cfg;
  sim::Path path(simu, {cfg});
  EXPECT_THROW(traffic::ParetoGapGenerator(simu, path, 0, false, 1,
                                           stats::Rng(1), 1e6, 1500, 1.0),
               std::invalid_argument);
}

// -------------------------------------------------------------- SChirp ---

TEST(SChirp, SmoothingIsCausalAndAveraging) {
  std::vector<double> spike = {0, 0, 0, 9, 0, 0, 0};
  auto sm = est::SChirp::smooth(spike, 3);
  ASSERT_EQ(sm.size(), spike.size());
  EXPECT_DOUBLE_EQ(sm[2], 0.0);  // nothing leaks BEFORE the spike
  EXPECT_DOUBLE_EQ(sm[3], 3.0);
  EXPECT_DOUBLE_EQ(sm[5], 3.0);  // trailing window carries it forward
  EXPECT_DOUBLE_EQ(sm[6], 0.0);
}

TEST(SChirp, WindowOneIsIdentity) {
  std::vector<double> xs = {1, 2, 3};
  EXPECT_EQ(est::SChirp::smooth(xs, 1), xs);
}

TEST(SChirp, EstimatesOnCbrWithinTolerance) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  est::SChirpConfig scfg;
  scfg.chirp.low_rate_bps = 4e6;
  scfg.chirp.packets_per_chirp = 22;
  scfg.chirp.chirps = 20;
  est::SChirp tool(scfg);
  auto e = tool.estimate(sc.transport());
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(e.point_bps(), 25e6, 10e6);
  EXPECT_EQ(tool.name(), "schirp");
}

TEST(SChirp, RejectsBadConfig) {
  est::SChirpConfig bad;
  bad.smooth_window = 2;  // even
  EXPECT_THROW(est::SChirp{bad}, std::invalid_argument);
  bad.smooth_window = 3;
  bad.busy_threshold_fraction = 0.0;
  EXPECT_THROW(est::SChirp{bad}, std::invalid_argument);
}

// ------------------------------------------------------------ registry ---

TEST(Registry, ListsAllTools) {
  auto tools = core::available_tools();
  EXPECT_EQ(tools.size(), 9u);
  for (const auto& t : tools) EXPECT_TRUE(core::is_tool(t));
  EXPECT_FALSE(core::is_tool("nonexistent"));
}

TEST(Registry, BuildsEveryToolAndNamesMatch) {
  core::ToolOptions opts;
  opts.tight_capacity_bps = 50e6;
  opts.min_rate_bps = 2e6;
  opts.max_rate_bps = 48e6;
  stats::Rng rng(1);
  for (const auto& name : core::available_tools()) {
    auto tool = core::make_estimator(name, opts, rng);
    ASSERT_NE(tool, nullptr) << name;
    EXPECT_EQ(tool->name(), name);
  }
}

TEST(Registry, DirectToolsRequireCapacity) {
  core::ToolOptions opts;  // tight_capacity_bps = 0
  opts.min_rate_bps = 2e6;
  opts.max_rate_bps = 48e6;
  stats::Rng rng(1);
  for (const char* name : {"direct", "spruce", "igi", "ptr"})
    EXPECT_THROW(core::make_estimator(name, opts, rng), std::invalid_argument)
        << name;
  // Iterative tools do not need it.
  EXPECT_NO_THROW(core::make_estimator("pathload", opts, rng));
  EXPECT_NO_THROW(core::make_estimator("pathchirp", opts, rng));
}

TEST(Registry, UnknownToolThrows) {
  core::ToolOptions opts;
  stats::Rng rng(1);
  EXPECT_THROW(core::make_estimator("sprouce", opts, rng), std::invalid_argument);
}

TEST(Registry, RegistryBuiltPathloadWorksEndToEnd) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  auto sc = core::Scenario::single_hop(cfg);
  core::ToolOptions opts;
  opts.min_rate_bps = 2e6;
  opts.max_rate_bps = 49e6;
  stats::Rng rng(2);
  auto tool = core::make_estimator("pathload", opts, rng);
  auto e = tool->estimate(sc.transport());
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(e.point_bps(), 25e6, 6e6);
}

}  // namespace
