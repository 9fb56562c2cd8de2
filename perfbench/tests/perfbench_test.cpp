// Tests of the benchmark itself: its decorators must not change what
// they wrap, and its arithmetic must follow the stated rules.
#include <gtest/gtest.h>

#include <atomic>

#include "common.hpp"
#include "core/experiment.hpp"
#include "core/registry.hpp"
#include "core/scenario.hpp"
#include "timed.hpp"
#include "workloads.hpp"

namespace {

using namespace abw;
using namespace perfbench;

// Every registry tool, on both cross-traffic models of tools_hybrid:
// the decorated, traced run (TimedTransport, simulator and tool metrics
// attached) serializes exactly like the plain run.
TEST(TimedTransport, EveryToolBitIdenticalToUndecorated) {
  for (std::size_t round = 0; round < 2; ++round) {
    for (const std::string& name : core::available_tools()) {
      core::Scenario plain_sc = tools_scenario(7, round);
      core::Scenario traced_sc = tools_scenario(7, round);
      obs::MetricsRegistry metrics;
      traced_sc.simulator().set_metrics(&metrics);
      TransportClock clock;
      TimedTransport timed(traced_sc.transport(), clock);

      auto plain_tool =
          core::make_estimator(name, tools_options(nullptr), plain_sc.rng());
      auto traced_tool =
          core::make_estimator(name, tools_options(&metrics), traced_sc.rng());
      const std::string plain = plain_tool->estimate(plain_sc.transport()).to_json();
      const std::string traced = traced_tool->estimate(timed).to_json();
      EXPECT_EQ(plain, traced) << name << " round " << round;
      if (name != "bfind") {
        EXPECT_GT(clock.streams, 0u) << name;
      }
    }
  }
}

TEST(TimedTransport, ForwardsEveryVirtual) {
  core::Scenario sc = tools_scenario(3, 0);
  TransportClock clock;
  TimedTransport timed(sc.transport(), clock);
  EXPECT_EQ(timed.kind(), "sim");
  EXPECT_EQ(timed.sim_session(), sc.transport().sim_session());
  EXPECT_EQ(timed.now(), sc.transport().now());
  timed.wait(5 * sim::kMillisecond);
  EXPECT_EQ(timed.now(), sc.transport().now());
  timed.send_stream(probe::StreamSpec::periodic(10e6, 1000, 20));
  EXPECT_EQ(&timed.cost(), &sc.transport().cost());
  EXPECT_EQ(clock.streams, 1u);
  EXPECT_EQ(clock.packets, 20u);
  EXPECT_EQ(clock.send_us.size(), 1u);
  EXPECT_GT(clock.wait_s, 0.0);
}

// One multi-hop ratio point through the decorator equals the library's
// own response-curve procedure on a twin scenario.
TEST(TimedTransport, MultihopRatioPointMatchesMeasureRatioCurve) {
  core::Scenario ref = core::Scenario::multi_hop(multihop_config(11));
  core::RatioCurveConfig rc;
  rc.rates_bps = {27.5e6};
  rc.streams_per_rate = 20;
  rc.inter_stream_gap = kMultihopLeadIn;
  const core::RatioPoint want = core::measure_ratio_curve(ref, rc).front();

  core::Scenario sc = core::Scenario::multi_hop(multihop_config(11));
  TransportClock clock;
  TimedTransport timed(sc.transport(), clock);
  const core::RatioPoint got = ratio_point(timed, 27.5e6, 20);
  EXPECT_EQ(got.mean_ratio, want.mean_ratio);
  EXPECT_EQ(got.std_ratio, want.std_ratio);
  EXPECT_EQ(got.streams, want.streams);
  EXPECT_EQ(clock.streams, 20u);
}

TEST(TimedMeasureFn, ForwardsEveryCall) {
  std::atomic<int> calls{0};
  est::MeshMeasureFn inner = [&](std::size_t pair, std::uint64_t seed) {
    ++calls;
    est::MeshMeasurement m;
    m.valid = pair % 2 == 0;
    m.avail_bps = static_cast<double>(pair * 1000 + seed);
    return m;
  };
  MeasureClock clock;
  est::MeshMeasureFn timed = timed_measure_fn(inner, clock);
  for (std::size_t p = 0; p < 5; ++p) {
    est::MeshMeasurement a = inner(p, 9);
    est::MeshMeasurement b = timed(p, 9);
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.avail_bps, b.avail_bps);
  }
  EXPECT_EQ(calls.load(), 10);
  EXPECT_EQ(clock.call_s.size(), 5u);
}

// The tail is the highest percentile with at least 10 samples beyond it.
TEST(Arithmetic, TailLeavesTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  Tail t = tail(v);
  EXPECT_EQ(t.count, 1000u);
  EXPECT_EQ(t.value, 990.0);  // 991..1000 lie beyond it
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);

  std::vector<double> eleven;
  for (int i = 0; i < 11; ++i) eleven.push_back(i);
  t = tail(eleven);
  EXPECT_EQ(t.value, 0.0);
  EXPECT_DOUBLE_EQ(t.percentile, 100.0 / 11.0);

  t = tail({3.0, 1.0, 2.0});  // too few: the maximum, at 100
  EXPECT_EQ(t.value, 3.0);
  EXPECT_EQ(t.percentile, 100.0);
  EXPECT_EQ(t.count, 3u);
}

TEST(Arithmetic, Median) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

// overhead = wall - lead-in - StreamSpec::span(), whatever the stream's
// geometry: a chirp's span is not (count - 1) times any one gap.
TEST(Arithmetic, OverheadSubtractsLeadInAndSpan) {
  const sim::SimTime lead_in = 200 * sim::kMicrosecond;
  for (const probe::StreamSpec& spec :
       {probe::StreamSpec::periodic(100e6, 1500, 100),
        probe::StreamSpec::chirp(5e6, 1.2, 1000, 16)}) {
    const double wall =
        sim::to_seconds(lead_in) + sim::to_seconds(spec.span()) + 0.25e-3;
    EXPECT_NEAR(stream_overhead_ms(wall, lead_in, spec), 0.25, 1e-9);
  }
  // The 1500 B train at 100 Mb/s spans 99 gaps of 120 us.
  EXPECT_EQ(probe::StreamSpec::periodic(100e6, 1500, 100).span(),
            99 * 120 * sim::kMicrosecond);
}

// Chunks are whole rounds of at least kChunkS; each reports ops / chunk
// wall and the median latency of its ops; the figures are medians over
// chunks, and a short trailing chunk is dropped.
TEST(Arithmetic, SteadyTakesMediansOverChunks) {
  ASSERT_EQ(kChunkS, 1.0);
  Pass p;
  p.start_s = 0.0;
  p.round_end_s = {0.5, 1.0, 1.5, 2.5, 2.75, 3.5, 3.7};
  p.round_ops = {10, 10, 10, 10, 10, 10, 10};
  p.op_end_s = {0.5, 1.0, 1.5, 2.5, 2.75, 3.5};
  p.op_ms = {1, 2, 3, 4, 5, 6};
  // Chunks [0, 1.0]: 20 ops/s, p50 1.5 ms; [1.0, 2.5]: 13.3 ops/s, p50
  // 3.5 ms; [2.5, 3.5]: 20 ops/s, p50 5.5 ms; the round ending at 3.7
  // is a short tail and dropped.
  const Steady s = steady(p);
  EXPECT_EQ(s.chunks, 3u);
  EXPECT_DOUBLE_EQ(s.ops_per_s, 20.0);
  EXPECT_DOUBLE_EQ(s.op_ms_p50, 3.5);

  Pass one;  // a single short chunk is kept
  one.start_s = 0.0;
  one.round_end_s = {0.25};
  one.round_ops = {5.0};
  one.op_end_s = {0.25};
  one.op_ms = {2.0};
  EXPECT_EQ(steady(one).chunks, 1u);
  EXPECT_DOUBLE_EQ(steady(one).ops_per_s, 20.0);
}

TEST(Arithmetic, FailedFracCountsAttempts) {
  Tally t;
  t.add(true);
  t.add(false);
  t.add(true);
  EXPECT_EQ(t.attempted, 3u);
  EXPECT_EQ(t.failed, 1u);
  EXPECT_DOUBLE_EQ(t.failed_frac(), 1.0 / 3.0);  // not 1 / 2 successes
  EXPECT_EQ(Tally{}.failed_frac(), 0.0);
}

}  // namespace
