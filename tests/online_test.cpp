// Tests for the online (streaming) estimation layer: the reorder-safe
// output-rate fix, StreamResult invariants under random impairments, the
// three trackers (Kalman, passive TCP delivery rate, adaptive prober),
// and per-update admission control + observability.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "est/online/adaptive.hpp"
#include "est/online/kalman.hpp"
#include "est/online/online.hpp"
#include "est/online/tcp_rate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "probe/stream_result.hpp"
#include "sim/fault.hpp"
#include "sim/node.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"
#include "tcp/tcp.hpp"

namespace {

using namespace abw;
using abw::sim::kMicrosecond;
using abw::sim::kMillisecond;
using abw::sim::kSecond;
namespace online = abw::est::online;

// Collects decision events by value (the string_views in TraceEvent only
// live through emit()).
struct DecisionLog final : obs::TraceSink {
  struct Entry {
    sim::SimTime time;
    std::string source, label, text;
    double value, value2;
  };
  std::vector<Entry> entries;
  void emit(const obs::TraceEvent& ev) override {
    if (ev.kind != obs::EventKind::kDecision) return;
    entries.push_back({ev.time, std::string(ev.source), std::string(ev.label),
                       std::string(ev.text), ev.value, ev.value2});
  }
};

// A synthetic sample straight from the paper's Eq. 8 fluid model:
// strain(Ri) = max(0, (Ri - A)/Ct), Ro = Ri/(1 + strain).
online::OnlineSample fluid_sample(double ri, double avail, double ct,
                                  sim::SimTime t) {
  online::OnlineSample s;
  s.time = t;
  s.input_rate_bps = ri;
  s.strain = std::max(0.0, (ri - avail) / ct);
  s.rate_bps = ri / (1.0 + s.strain);
  s.packets = 60;
  return s;
}

// ------------------------------------------- reorder-safe output rate ---

TEST(StreamResultReorder, ReorderedStreamHasPositiveOutputRate) {
  // Regression for the seq-ordered span bug: when the highest-seq
  // survivor overtakes earlier packets, first/last *by seq* gives a
  // non-positive receive span and the old code silently returned 0.
  probe::StreamResult res;
  for (std::uint32_t seq = 0; seq < 4; ++seq) {
    probe::ProbeRecord p;
    p.seq = seq;
    p.size_bytes = 1000;
    p.sent = seq * kMillisecond;
    p.received = (10 + seq) * kMillisecond;
    res.packets.push_back(p);
  }
  // The last packet overtakes everything: arrives before packet 0.
  res.packets[3].received = 9 * kMillisecond + 500 * kMicrosecond;
  res.reordered_count = 1;

  // Seq-ordered span would be 9.5ms - 10ms < 0 -> the old code's 0.0.
  ASSERT_LT(res.packets.back().received, res.packets.front().received);

  // Receive span from timestamps: earliest 9.5 ms (seq 3), latest 12 ms
  // (seq 2) -> 2.5 ms; bits after the earliest arrival = 3 * 8000.
  double expect = 3 * 8000.0 / 2.5e-3;
  EXPECT_GT(res.output_rate_bps(), 0.0);
  EXPECT_NEAR(res.output_rate_bps(), expect, 1.0);
}

TEST(StreamResultReorder, InOrderStreamsKeepTheClassicFormula) {
  // For FIFO arrivals the fix must be bit-identical to the original
  // "(bits after first) / (last - first)" computation.
  probe::StreamResult res;
  for (std::uint32_t seq = 0; seq < 10; ++seq) {
    probe::ProbeRecord p;
    p.seq = seq;
    p.size_bytes = 1200;
    p.sent = seq * 300 * kMicrosecond;
    p.received = p.sent + 2 * kMillisecond;
    if (seq == 4) p.lost = true;
    res.packets.push_back(p);
  }
  sim::SimTime span = res.packets[9].received - res.packets[0].received;
  double expect = 8 * 1200 * 8.0 / sim::to_seconds(span);
  EXPECT_DOUBLE_EQ(res.output_rate_bps(), expect);
}

TEST(StreamResultReorder, FaultInjectedReorderingStillYieldsARate) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  core::Scenario sc = core::Scenario::single_hop(cfg);
  sim::LinkFaults faults;
  faults.reorder_prob = 0.5;
  faults.reorder_extra_max = 2 * kMillisecond;
  sc.path().link(0).set_faults(faults);

  auto res = sc.transport().send_stream(
      probe::StreamSpec::periodic(30e6, 1200, 100));
  ASSERT_GT(res.reordered_count, 0u);  // p=0.5 over 100 packets
  EXPECT_GT(res.output_rate_bps(), 0.0);
  // Ro still reflects the link: within a factor ~2 of the probing rate.
  EXPECT_LT(res.output_rate_bps(), 60e6);
  EXPECT_GT(res.output_rate_bps(), 10e6);
}

// ------------------------------------ StreamResult property invariants ---

void check_invariants(const probe::StreamResult& res) {
  EXPECT_EQ(res.received_count() + res.lost_count(), res.packets.size());
  EXPECT_GE(res.loss_fraction(), 0.0);
  EXPECT_LE(res.loss_fraction(), 1.0);
  EXPECT_EQ(res.complete(), res.lost_count() == 0);
  for (double v : {res.input_rate_bps(), res.output_rate_bps(),
                   res.rate_ratio(), res.loss_fraction()}) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
  }
  auto owds = res.owds_seconds();
  EXPECT_EQ(owds.size(), res.received_count());
  for (double d : owds) EXPECT_TRUE(std::isfinite(d));
  auto rel = res.relative_owds_ms();
  EXPECT_EQ(rel.size(), res.received_count());
  if (!rel.empty()) {
    EXPECT_DOUBLE_EQ(rel.front(), 0.0);
  }
  for (double d : rel) EXPECT_TRUE(std::isfinite(d));
  auto s = online::OnlineEstimator::to_sample(res);
  EXPECT_TRUE(std::isfinite(s.rate_bps));
  EXPECT_TRUE(std::isfinite(s.input_rate_bps));
  EXPECT_TRUE(std::isfinite(s.strain));
  EXPECT_GE(s.strain, 0.0);
  EXPECT_EQ(s.packets, res.packets.size());
}

TEST(StreamResultProperty, RandomImpairmentsNeverBreakAccessors) {
  stats::Rng rng(0xBEEF);
  for (int trial = 0; trial < 400; ++trial) {
    probe::StreamResult res;
    std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 40));
    sim::SimTime t = 0;
    for (std::uint32_t seq = 0; seq < n; ++seq) {
      probe::ProbeRecord p;
      p.seq = seq;
      p.size_bytes = static_cast<std::uint32_t>(rng.uniform_int(64, 1500));
      p.sent = t;
      t += rng.uniform_int(1, 1000) * kMicrosecond;
      p.lost = rng.bernoulli(0.3);
      if (!p.lost)
        // Jitter up to 3 ms on a 1 ms base delay: heavy reordering.
        p.received = p.sent + kMillisecond + rng.uniform_int(0, 3000) * kMicrosecond;
      res.packets.push_back(p);
    }
    res.duplicate_count = static_cast<std::uint32_t>(rng.uniform_int(0, 5));
    res.reordered_count = static_cast<std::uint32_t>(rng.uniform_int(0, 5));
    check_invariants(res);
  }
}

TEST(StreamResultProperty, FaultInjectedScenarioStreamsHoldInvariants) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kPoisson;
  core::Scenario sc = core::Scenario::single_hop(cfg);
  sim::LinkFaults faults;
  faults.gilbert.p_good_bad = 0.05;
  faults.gilbert.p_bad_good = 0.3;
  faults.reorder_prob = 0.2;
  faults.duplicate_prob = 0.05;
  sc.path().link(0).set_faults(faults);

  for (double rate : {10e6, 30e6, 60e6, 90e6}) {
    auto res = sc.transport().send_stream(
        probe::StreamSpec::periodic(rate, 1200, 80));
    check_invariants(res);
  }
}

// --------------------------------------------------------------- Kalman ---

TEST(KalmanTracker, ConvergesOnTheFluidModel) {
  online::KalmanTracker tr;
  const double avail = 25e6, ct = 50e6;
  sim::SimTime t = 0;
  for (int round = 0; round < 10; ++round) {
    for (double ri : {30e6, 40e6, 50e6, 60e6}) {
      t += 100 * kMillisecond;
      EXPECT_EQ(tr.feed(fluid_sample(ri, avail, ct, t)),
                online::FeedResult::kUpdated);
    }
  }
  ASSERT_TRUE(tr.belief().valid());
  EXPECT_NEAR(tr.belief().estimate_bps, avail, 0.1 * avail);
  EXPECT_GT(tr.belief().confidence, 0.5);
  EXPECT_EQ(tr.belief().last_update, t);
  EXPECT_EQ(tr.belief().updates, 40u);
  // The line's slope identifies the capacity: beta = 1/Ct (Mb/s units).
  EXPECT_NEAR(1.0 / tr.beta(), ct / 1e6, 0.1 * ct / 1e6);
}

TEST(KalmanTracker, ReconvergesAfterALevelShift) {
  online::KalmanTracker tr;
  const double ct = 50e6;
  sim::SimTime t = 0;
  auto feed_regime = [&](double avail, int rounds) {
    for (int round = 0; round < rounds; ++round)
      for (double ri : {35e6, 45e6, 55e6, 65e6}) {
        t += 100 * kMillisecond;
        tr.feed(fluid_sample(ri, avail, ct, t));
      }
  };
  feed_regime(30e6, 15);
  ASSERT_NEAR(tr.belief().estimate_bps, 30e6, 3e6);
  feed_regime(10e6, 15);  // capacity flap / regime change
  EXPECT_GE(tr.change_points(), 1u);
  EXPECT_NEAR(tr.belief().estimate_bps, 10e6, 1.5e6);
}

TEST(KalmanTracker, RejectsPassiveAndEmptySamples) {
  online::KalmanTracker tr;
  online::OnlineSample passive;
  passive.time = kSecond;
  passive.rate_bps = 10e6;  // no input rate: a passive delivery sample
  EXPECT_EQ(tr.feed(passive), online::FeedResult::kRejected);
  EXPECT_FALSE(tr.belief().valid());
  EXPECT_EQ(tr.belief().updates, 0u);
}

// ---------------------------------------------------- admission control ---

TEST(OnlineAdmission, ProbeBudgetFreezesTheBelief) {
  online::KalmanTracker tr;
  est::EstimatorLimits lim;
  lim.max_probe_packets = 100;
  tr.set_limits(lim);
  EXPECT_EQ(tr.feed(fluid_sample(40e6, 25e6, 50e6, kSecond)),
            online::FeedResult::kUpdated);  // 60 consumed
  double before = tr.belief().estimate_bps;
  EXPECT_EQ(tr.feed(fluid_sample(50e6, 25e6, 50e6, 2 * kSecond)),
            online::FeedResult::kExhausted);  // 120 > 100: dropped
  EXPECT_TRUE(tr.exhausted());
  EXPECT_EQ(tr.abort(), est::AbortReason::kProbeBudgetExhausted);
  EXPECT_EQ(tr.packets_consumed(), 60u);
  EXPECT_EQ(tr.belief().updates, 1u);
  EXPECT_EQ(tr.belief().estimate_bps, before);  // frozen
  // Everything after the trip short-circuits.
  EXPECT_EQ(tr.feed(fluid_sample(30e6, 25e6, 50e6, 3 * kSecond)),
            online::FeedResult::kExhausted);
}

TEST(OnlineAdmission, DeadlineCountsFromTheFirstSample) {
  online::KalmanTracker tr;
  est::EstimatorLimits lim;
  lim.deadline = kSecond;
  tr.set_limits(lim);
  EXPECT_EQ(tr.feed(fluid_sample(40e6, 25e6, 50e6, 5 * kSecond)),
            online::FeedResult::kUpdated);
  EXPECT_EQ(tr.feed(fluid_sample(40e6, 25e6, 50e6, 5 * kSecond + kSecond / 2)),
            online::FeedResult::kUpdated);
  EXPECT_EQ(tr.feed(fluid_sample(40e6, 25e6, 50e6, 7 * kSecond)),
            online::FeedResult::kExhausted);
  EXPECT_EQ(tr.abort(), est::AbortReason::kDeadline);
}

TEST(OnlineAdmission, RejectedSamplesStillSpendTheBudget) {
  // The probes were sent whether or not the tracker could use them.
  online::KalmanTracker tr;
  est::EstimatorLimits lim;
  lim.max_probe_packets = 100;
  tr.set_limits(lim);
  online::OnlineSample junk;
  junk.time = kSecond;
  junk.packets = 60;  // active stream that came back unusable
  EXPECT_EQ(tr.feed(junk), online::FeedResult::kRejected);
  EXPECT_EQ(tr.packets_consumed(), 60u);
  junk.time = 2 * kSecond;
  EXPECT_EQ(tr.feed(junk), online::FeedResult::kExhausted);
}

// ---------------------------------------------------- TCP delivery rate ---

TEST(TcpDeliveryRate, BulkFlowTracksTheBottleneck) {
  sim::Simulator simu;
  sim::LinkConfig lcfg;
  lcfg.capacity_bps = 20e6;
  lcfg.propagation_delay = 5 * kMillisecond;
  lcfg.queue_limit_bytes = 128 * 1500;
  sim::Path path(simu, {lcfg});
  sim::TypeDemux demux;
  tcp::TcpReceiverHub hub;
  demux.register_handler(sim::PacketType::kTcpData, &hub);
  path.set_receiver(&demux);

  tcp::TcpConfig tcfg;
  tcp::TcpConnection conn(simu, path, hub, 1, tcfg);
  online::TcpDeliveryRateTracker tracker;
  tracker.attach(conn);
  conn.start(0);
  simu.run_until(6 * kSecond);

  ASSERT_TRUE(tracker.belief().valid());
  // Payload rate of a saturated 20 Mb/s link: 20e6 * 1460/1500.
  double payload_rate = 20e6 * 1460.0 / 1500.0;
  EXPECT_NEAR(tracker.belief().estimate_bps, payload_rate,
              0.15 * payload_rate);
  EXPECT_DOUBLE_EQ(tracker.belief().confidence, 1.0);
  EXPECT_GT(tracker.window_samples(), 0u);
}

TEST(TcpDeliveryRate, AppLimitedSamplesNeverLowerTheEstimate) {
  online::TcpDeliveryRateTracker tr;
  tcp::DeliveryRateSample s;
  s.time = kSecond;
  s.delivery_rate_bps = 10e6;
  EXPECT_EQ(tr.feed_delivery(s), online::FeedResult::kUpdated);
  EXPECT_DOUBLE_EQ(tr.belief().estimate_bps, 10e6);

  s.time += 100 * kMillisecond;
  s.delivery_rate_bps = 2e6;
  s.app_limited = true;  // understates the path: must not lower
  EXPECT_EQ(tr.feed_delivery(s), online::FeedResult::kRejected);
  EXPECT_DOUBLE_EQ(tr.belief().estimate_bps, 10e6);

  s.time += 100 * kMillisecond;
  s.delivery_rate_bps = 12e6;  // app-limited may still raise
  EXPECT_EQ(tr.feed_delivery(s), online::FeedResult::kUpdated);
  EXPECT_DOUBLE_EQ(tr.belief().estimate_bps, 12e6);
}

TEST(TcpDeliveryRate, OldSamplesAgeOutOfTheMaxWindow) {
  online::TcpRateConfig cfg;
  cfg.window = kSecond;
  online::TcpDeliveryRateTracker tr(cfg);
  tcp::DeliveryRateSample s;
  s.time = kSecond;
  s.delivery_rate_bps = 30e6;
  tr.feed_delivery(s);
  for (int i = 1; i <= 20; ++i) {
    s.time = kSecond + i * 200 * kMillisecond;
    s.delivery_rate_bps = 8e6;
    tr.feed_delivery(s);
  }
  // The 30 Mb/s sample is 4 s old: only the 8 Mb/s plateau remains.
  EXPECT_DOUBLE_EQ(tr.belief().estimate_bps, 8e6);
}

TEST(TcpDeliveryRate, DeadlineAppliesToPassiveSamples) {
  online::TcpDeliveryRateTracker tr;
  est::EstimatorLimits lim;
  lim.deadline = kSecond;
  tr.set_limits(lim);
  tcp::DeliveryRateSample s;
  s.time = kSecond;
  s.delivery_rate_bps = 10e6;
  EXPECT_EQ(tr.feed_delivery(s), online::FeedResult::kUpdated);
  s.time = 3 * kSecond;
  EXPECT_EQ(tr.feed_delivery(s), online::FeedResult::kExhausted);
  EXPECT_EQ(tr.abort(), est::AbortReason::kDeadline);
}

// ------------------------------------------------------- AdaptiveProber ---

TEST(AdaptiveProber, ConvergesNearTheNominalAvailBw) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;  // fluid-like: clean strain samples
  core::Scenario sc = core::Scenario::single_hop(cfg);
  online::AdaptiveProber prober;
  for (int i = 0; i < 40; ++i)
    ASSERT_NE(prober.step(sc.transport()), online::FeedResult::kExhausted);
  ASSERT_TRUE(prober.belief().valid());
  EXPECT_NEAR(prober.belief().estimate_bps, sc.nominal_avail_bw(),
              0.3 * sc.nominal_avail_bw());
  EXPECT_GT(prober.belief().updates, 10u);
}

TEST(AdaptiveProber, RateChoicesStayInsideTheBracket) {
  online::AdaptiveConfig cfg;
  cfg.min_rate_bps = 5e6;
  cfg.max_rate_bps = 80e6;
  online::AdaptiveProber prober(cfg);
  for (int i = 0; i < 64; ++i) {
    double r = prober.next_rate_bps();
    EXPECT_GE(r, 5e6 * 0.999);
    EXPECT_LE(r, 80e6 * 1.001);
  }
}

TEST(AdaptiveProber, StepStopsBeforeBustingTheBudget) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kCbr;
  core::Scenario sc = core::Scenario::single_hop(cfg);
  online::AdaptiveProber prober;  // 60 packets per stream
  est::EstimatorLimits lim;
  lim.max_probe_packets = 150;
  prober.set_limits(lim);
  EXPECT_NE(prober.step(sc.transport()), online::FeedResult::kExhausted);
  EXPECT_NE(prober.step(sc.transport()), online::FeedResult::kExhausted);
  std::uint64_t sent_before = sc.transport().cost().packets;
  // 120 consumed; a third stream would reach 180 > 150: nothing sent.
  EXPECT_EQ(prober.step(sc.transport()), online::FeedResult::kExhausted);
  EXPECT_EQ(sc.transport().cost().packets, sent_before);
  EXPECT_EQ(prober.abort(), est::AbortReason::kProbeBudgetExhausted);
  EXPECT_EQ(prober.step(sc.transport()), online::FeedResult::kExhausted);
}

TEST(AdaptiveProber, ValidatesItsConfig) {
  online::AdaptiveConfig bad;
  bad.min_rate_bps = 10e6;
  bad.max_rate_bps = 5e6;
  EXPECT_THROW(online::AdaptiveProber{bad}, std::invalid_argument);
  online::AdaptiveConfig bad2;
  bad2.packets_per_stream = 1;
  EXPECT_THROW(online::AdaptiveProber{bad2}, std::invalid_argument);
  online::AdaptiveConfig bad3;
  bad3.explore_fraction = 1.5;
  EXPECT_THROW(online::AdaptiveProber{bad3}, std::invalid_argument);
}

// -------------------------------------------------------- observability ---

TEST(OnlineObservability, UpdatesEmitCountersGaugesAndDecisions) {
  DecisionLog log;
  obs::MetricsRegistry metrics;
  online::KalmanTracker tr;
  tr.set_observer(&log, &metrics);
  est::EstimatorLimits lim;
  lim.max_probe_packets = 150;
  tr.set_limits(lim);

  tr.feed(fluid_sample(40e6, 25e6, 50e6, kSecond));       // updated (60)
  tr.feed(fluid_sample(50e6, 25e6, 50e6, 2 * kSecond));   // updated (120)
  tr.feed(fluid_sample(60e6, 25e6, 50e6, 3 * kSecond));   // budget trip

  EXPECT_EQ(metrics.counter("online.kalman.updates").value, 2u);
  EXPECT_EQ(metrics.counter("online.kalman.abort.probe-budget").value, 1u);
  EXPECT_GT(metrics.gauge("online.kalman.estimate_bps").value, 0.0);

  ASSERT_EQ(log.entries.size(), 3u);
  EXPECT_EQ(log.entries[0].source, "kalman");
  EXPECT_EQ(log.entries[0].label, "update");
  EXPECT_EQ(log.entries[0].text, "updated");
  EXPECT_EQ(log.entries[2].label, "admission");
  EXPECT_EQ(log.entries[2].text, "probe-budget");
}

TEST(OnlineObservability, NullObserverIsTheDefaultAndSafe) {
  online::KalmanTracker tr;
  EXPECT_EQ(tr.feed(fluid_sample(40e6, 25e6, 50e6, kSecond)),
            online::FeedResult::kUpdated);  // no sink, no registry: fine
}

}  // namespace
