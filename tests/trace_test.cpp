// Tests for packet traces, the avail-bw process A_tau(t) (Eqs. 1-3), and
// the synthetic self-similar trace substituting for the paper's NLANR
// trace.
#include <gtest/gtest.h>

#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "stats/hurst.hpp"
#include "stats/moments.hpp"
#include "trace/availbw_process.hpp"
#include "trace/packet_trace.hpp"
#include "trace/synthetic_trace.hpp"
#include "traffic/poisson.hpp"

namespace {

using namespace abw;
using abw::sim::kMillisecond;
using abw::sim::kSecond;

// --------------------------------------------------------- PacketTrace ---

TEST(PacketTrace, AccumulatesInOrder) {
  trace::PacketTrace tr(10e6);
  tr.add(0, 1000);
  tr.add(kMillisecond, 500);
  tr.add(kMillisecond, 500);  // equal timestamps allowed
  EXPECT_EQ(tr.size(), 3u);
  EXPECT_EQ(tr.total_bytes(), 2000u);
  EXPECT_EQ(tr.start_time(), 0);
  EXPECT_EQ(tr.end_time(), kMillisecond);
}

TEST(PacketTrace, RejectsDisorderAndZeroSize) {
  trace::PacketTrace tr(10e6);
  tr.add(kMillisecond, 100);
  EXPECT_THROW(tr.add(0, 100), std::invalid_argument);
  EXPECT_THROW(tr.add(2 * kMillisecond, 0), std::invalid_argument);
  EXPECT_THROW(trace::PacketTrace(0.0), std::invalid_argument);
}

TEST(PacketTrace, MeanUtilization) {
  trace::PacketTrace tr(8e6);  // 1 MB/s
  // 1000 bytes per ms over 10 ms = 8 Mb/s = full utilization.
  for (int i = 0; i <= 10; ++i) tr.add(i * kMillisecond, 1000);
  EXPECT_NEAR(tr.mean_utilization(), 1.1, 0.15);  // 11 pkts / 10 ms span
}

TEST(PacketTrace, RecordsKeepTimesAndSizes) {
  trace::PacketTrace tr(10e6);
  tr.add(5, 100);
  tr.add(10, 200);
  const std::vector<traffic::ReplayRecord>& recs = tr.records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[1].at, 10);
  EXPECT_EQ(recs[1].size_bytes, 200u);
}

TEST(LinkTraceRecorder, CapturesLinkArrivals) {
  sim::Simulator simu;
  sim::LinkConfig cfg;
  cfg.capacity_bps = 100e6;
  sim::Path path(simu, {cfg});
  sim::CountingSink sink;
  path.set_receiver(&sink);
  trace::LinkTraceRecorder rec(path.link(0));

  traffic::PoissonGenerator g(simu, path, 0, false, 1, stats::Rng(5), 20e6,
                              traffic::SizeDistribution::fixed(1500));
  g.start(0, kSecond);
  simu.run_until(kSecond);
  EXPECT_EQ(rec.trace().size(), g.packets_sent());
  EXPECT_DOUBLE_EQ(rec.trace().capacity_bps(), 100e6);
}

// ------------------------------------------------------ AvailBwProcess ---

trace::PacketTrace make_uniform_trace(double capacity, double rate,
                                      sim::SimTime duration,
                                      std::uint32_t pkt = 1000) {
  trace::PacketTrace tr(capacity);
  sim::SimTime gap = sim::transmission_time(pkt, rate);
  for (sim::SimTime t = 0; t < duration; t += gap) tr.add(t, pkt);
  return tr;
}

TEST(AvailBwProcess, ConstantLoadGivesConstantAvailBw) {
  auto tr = make_uniform_trace(50e6, 20e6, kSecond);
  trace::AvailBwProcess proc(tr);
  EXPECT_NEAR(proc.mean_avail_bw(), 30e6, 0.5e6);
  auto series = proc.series(10 * kMillisecond);
  ASSERT_GT(series.size(), 50u);
  for (double a : series) EXPECT_NEAR(a, 30e6, 1.5e6);
}

TEST(AvailBwProcess, BytesInWindows) {
  trace::PacketTrace tr(10e6);
  tr.add(0, 100);
  tr.add(10, 200);
  tr.add(20, 300);
  trace::AvailBwProcess proc(tr);
  EXPECT_EQ(proc.bytes_in(0, 11), 300u);
  EXPECT_EQ(proc.bytes_in(10, 21), 500u);
  EXPECT_EQ(proc.bytes_in(21, 100), 0u);
}

TEST(AvailBwProcess, AvailBwClampedAtZero) {
  // Arrival rate above capacity in the window.
  trace::PacketTrace tr(1e6);
  for (int i = 0; i < 100; ++i) tr.add(i, 1500);
  trace::AvailBwProcess proc(tr);
  EXPECT_DOUBLE_EQ(proc.avail_bw(0, 100), 0.0);
}

TEST(AvailBwProcess, AggregationIdentity) {
  // Bytes over a 4-window span equal the sum over its sub-windows, so the
  // tau-average of A is consistent across scales (up to the clamp).
  auto tr = make_uniform_trace(50e6, 35e6, 2 * kSecond);
  trace::AvailBwProcess proc(tr);
  sim::SimTime tau = 5 * kMillisecond;
  for (int w = 0; w < 10; ++w) {
    sim::SimTime t0 = w * 4 * tau;
    double coarse = proc.avail_bw(t0, 4 * tau);
    double fine_mean = 0.0;
    for (int i = 0; i < 4; ++i) fine_mean += proc.avail_bw(t0 + i * tau, tau);
    fine_mean /= 4.0;
    EXPECT_NEAR(coarse, fine_mean, 1e3);
  }
}

TEST(AvailBwProcess, PoissonSamplesWithinRange) {
  auto tr = make_uniform_trace(50e6, 20e6, kSecond);
  trace::AvailBwProcess proc(tr);
  stats::Rng rng(3);
  auto samples = proc.poisson_samples(20, 10 * kMillisecond, rng);
  ASSERT_EQ(samples.size(), 20u);
  for (double s : samples) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 50e6);
  }
}

TEST(AvailBwProcess, VariationRangeOrdered) {
  stats::Rng rng(5);
  trace::SyntheticTraceConfig cfg;
  cfg.duration = 5 * kSecond;
  auto tr = trace::synthesize_selfsimilar_trace(cfg, rng);
  trace::AvailBwProcess proc(tr);
  auto [lo, hi] = proc.variation_range(10 * kMillisecond, 0.05);
  EXPECT_LT(lo, hi);
  EXPECT_GT(lo, 0.0);
  EXPECT_LT(hi, cfg.capacity_bps);
}

TEST(AvailBwProcess, RejectsTinyTrace) {
  trace::PacketTrace tr(1e6);
  tr.add(0, 100);
  EXPECT_THROW(trace::AvailBwProcess{tr}, std::invalid_argument);
}

// ------------------------------------------------------ synthetic trace ---

TEST(SyntheticTrace, MeanUtilizationOnTarget) {
  stats::Rng rng(11);
  trace::SyntheticTraceConfig cfg;
  cfg.duration = 10 * kSecond;
  auto tr = trace::synthesize_selfsimilar_trace(cfg, rng);
  EXPECT_NEAR(tr.mean_utilization(), cfg.mean_utilization, 0.05);
}

TEST(SyntheticTrace, VarianceDecaysSlowerThanIid) {
  // The defining self-similar property (paper Eqs. 4 vs 5): aggregating
  // by k shrinks the variance by much less than k.
  stats::Rng rng(12);
  trace::SyntheticTraceConfig cfg;
  cfg.duration = 20 * kSecond;
  auto tr = trace::synthesize_selfsimilar_trace(cfg, rng);
  trace::AvailBwProcess proc(tr);
  double v1 = stats::variance(proc.series(2 * kMillisecond));
  double v16 = stats::variance(proc.series(32 * kMillisecond));
  double ratio = v1 / v16;
  EXPECT_LT(ratio, 12.0);  // IID would give ~16
  EXPECT_GT(ratio, 1.0);   // but variance must still decrease
}

TEST(SyntheticTrace, HurstRoughlyAsConfigured) {
  stats::Rng rng(13);
  trace::SyntheticTraceConfig cfg;
  cfg.duration = 30 * kSecond;
  cfg.hurst = 0.8;
  auto tr = trace::synthesize_selfsimilar_trace(cfg, rng);
  trace::AvailBwProcess proc(tr);
  double h = stats::hurst_variance_time(proc.series(kMillisecond));
  EXPECT_GT(h, 0.65);
  EXPECT_LT(h, 0.95);
}

TEST(SyntheticTrace, TrimodalSizesPresent) {
  stats::Rng rng(14);
  trace::SyntheticTraceConfig cfg;
  cfg.duration = 2 * kSecond;
  auto tr = trace::synthesize_selfsimilar_trace(cfg, rng);
  bool saw40 = false, saw576 = false, saw1500 = false;
  for (const auto& r : tr.records()) {
    saw40 |= r.size_bytes == 40;
    saw576 |= r.size_bytes == 576;
    saw1500 |= r.size_bytes == 1500;
  }
  EXPECT_TRUE(saw40);
  EXPECT_TRUE(saw576);
  EXPECT_TRUE(saw1500);
}

TEST(SyntheticTrace, DeterministicGivenSeed) {
  trace::SyntheticTraceConfig cfg;
  cfg.duration = kSecond;
  stats::Rng r1(77), r2(77);
  auto a = trace::synthesize_selfsimilar_trace(cfg, r1);
  auto b = trace::synthesize_selfsimilar_trace(cfg, r2);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.records()[a.size() / 2].at, b.records()[b.size() / 2].at);
}

TEST(SyntheticTrace, RejectsBadConfig) {
  stats::Rng rng(1);
  trace::SyntheticTraceConfig bad;
  bad.mean_utilization = 1.5;
  EXPECT_THROW(trace::synthesize_selfsimilar_trace(bad, rng),
               std::invalid_argument);
}

// Replaying a synthetic trace through a simulated link reproduces its
// utilization — the trace and the simulator agree about ground truth.
TEST(SyntheticTrace, ReplayReproducesUtilization) {
  stats::Rng rng(15);
  trace::SyntheticTraceConfig cfg;
  cfg.duration = 5 * kSecond;
  auto tr = trace::synthesize_selfsimilar_trace(cfg, rng);

  sim::Simulator simu;
  sim::LinkConfig lc;
  lc.capacity_bps = cfg.capacity_bps;
  lc.queue_limit_bytes = 64 << 20;
  sim::Path path(simu, {lc});
  sim::CountingSink sink;
  path.set_receiver(&sink);
  traffic::TraceGenerator gen(simu, path, 0, false, 1, tr.records());
  gen.start(0, 2 * cfg.duration);
  simu.run_until_idle();

  double sim_util = path.link(0).meter().utilization(0, cfg.duration);
  EXPECT_NEAR(sim_util, tr.mean_utilization(), 0.02);
}

}  // namespace
