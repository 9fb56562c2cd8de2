// Tests for the probing framework: stream geometries, receiver-side
// measurements, and — most importantly — the paper's single-link fluid
// model identities (Eqs. 6-8) verified packet-by-packet against CBR cross
// traffic.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "probe/session.hpp"
#include "probe/stream_result.hpp"
#include "probe/stream_spec.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "stats/trend.hpp"
#include "traffic/cbr.hpp"

namespace {

using namespace abw;
using abw::sim::kMicrosecond;
using abw::sim::kMillisecond;
using abw::sim::kSecond;

// ---------------------------------------------------------- StreamSpec ---

TEST(StreamSpec, PeriodicGeometry) {
  auto s = probe::StreamSpec::periodic(40e6, 1500, 100);
  ASSERT_EQ(s.size(), 100u);
  sim::SimTime gap = sim::transmission_time(1500, 40e6);
  for (std::size_t i = 1; i < s.size(); ++i)
    EXPECT_EQ(s.packets[i].offset - s.packets[i - 1].offset, gap);
  EXPECT_NEAR(s.nominal_rate_bps(), 40e6, 40e6 * 1e-6);
  EXPECT_EQ(s.span(), 99 * gap);
}

TEST(StreamSpec, PacketPairIsTwoPackets) {
  auto s = probe::StreamSpec::packet_pair(50e6, 1500);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_NEAR(s.instantaneous_rate(1), 50e6, 1.0);
}

TEST(StreamSpec, ChirpRatesGrowByGamma) {
  auto s = probe::StreamSpec::chirp(5e6, 1.5, 1000, 10);
  ASSERT_EQ(s.size(), 10u);
  for (std::size_t k = 1; k + 1 < s.size(); ++k) {
    double ratio = s.instantaneous_rate(k + 1) / s.instantaneous_rate(k);
    EXPECT_NEAR(ratio, 1.5, 0.01);
  }
  EXPECT_NEAR(s.instantaneous_rate(1), 5e6, 5e6 * 0.001);
}

TEST(StreamSpec, PairTrainHasPairsAtIntraRate) {
  stats::Rng rng(3);
  auto s = probe::StreamSpec::pair_train(50e6, 1500, 10, 5 * kMillisecond, rng);
  ASSERT_EQ(s.size(), 20u);
  sim::SimTime intra = sim::transmission_time(1500, 50e6);
  for (std::size_t p = 0; p < 10; ++p)
    EXPECT_EQ(s.packets[2 * p + 1].offset - s.packets[2 * p].offset, intra);
}

TEST(StreamSpec, RejectsBadParameters) {
  EXPECT_THROW(probe::StreamSpec::periodic(0, 1500, 10), std::invalid_argument);
  EXPECT_THROW(probe::StreamSpec::chirp(1e6, 1.0, 1000, 10), std::invalid_argument);
  EXPECT_THROW(probe::StreamSpec::chirp(1e6, 2.0, 1000, 1), std::invalid_argument);
  stats::Rng rng(1);
  EXPECT_THROW(probe::StreamSpec::pair_train(1e6, 1500, 0, kMillisecond, rng),
               std::invalid_argument);
}

TEST(StreamSpec, InstantaneousRateBounds) {
  auto s = probe::StreamSpec::periodic(10e6, 1500, 5);
  EXPECT_THROW(s.instantaneous_rate(0), std::out_of_range);
  EXPECT_THROW(s.instantaneous_rate(5), std::out_of_range);
}

// -------------------------------------------------------- StreamResult ---

TEST(StreamResult, RatesFromRecords) {
  probe::StreamResult r;
  // 3 packets of 1000 B, sent 1 ms apart, received 2 ms apart.
  for (std::uint32_t i = 0; i < 3; ++i) {
    probe::ProbeRecord rec;
    rec.seq = i;
    rec.size_bytes = 1000;
    rec.sent = i * kMillisecond;
    rec.received = 10 * kMillisecond + i * 2 * kMillisecond;
    r.packets.push_back(rec);
  }
  EXPECT_NEAR(r.input_rate_bps(), 8e6, 1.0);   // 2000 B over 2 ms
  EXPECT_NEAR(r.output_rate_bps(), 4e6, 1.0);  // 2000 B over 4 ms
  EXPECT_NEAR(r.rate_ratio(), 0.5, 1e-9);
  EXPECT_TRUE(r.complete());
}

TEST(StreamResult, LossHandling) {
  probe::StreamResult r;
  for (std::uint32_t i = 0; i < 4; ++i) {
    probe::ProbeRecord rec;
    rec.seq = i;
    rec.size_bytes = 1000;
    rec.sent = i * kMillisecond;
    rec.received = i * kMillisecond + kMillisecond;
    rec.lost = (i == 1);
    r.packets.push_back(rec);
  }
  EXPECT_EQ(r.lost_count(), 1u);
  EXPECT_FALSE(r.complete());
  EXPECT_EQ(r.owds_seconds().size(), 3u);
}

TEST(StreamResult, RelativeOwdsStartAtZero) {
  probe::StreamResult r;
  for (std::uint32_t i = 0; i < 3; ++i) {
    probe::ProbeRecord rec;
    rec.seq = i;
    rec.size_bytes = 100;
    rec.sent = i * kMillisecond;
    rec.received = i * kMillisecond + (5 + i) * kMillisecond;
    r.packets.push_back(rec);
  }
  auto rel = r.relative_owds_ms();
  ASSERT_EQ(rel.size(), 3u);
  EXPECT_DOUBLE_EQ(rel[0], 0.0);
  EXPECT_DOUBLE_EQ(rel[1], 1.0);
  EXPECT_DOUBLE_EQ(rel[2], 2.0);
}

TEST(StreamResult, DegenerateCasesReturnZero) {
  probe::StreamResult r;
  EXPECT_DOUBLE_EQ(r.input_rate_bps(), 0.0);
  EXPECT_DOUBLE_EQ(r.output_rate_bps(), 0.0);
  EXPECT_DOUBLE_EQ(r.rate_ratio(), 0.0);
}

// ------------------------------------------------------------ Session ---

struct SessionFixture {
  sim::Simulator simu;
  sim::Path path;
  probe::ProbeSession session;

  explicit SessionFixture(double capacity = 50e6)
      : path(simu, {make_cfg(capacity)}), session(simu, path) {}
  static sim::LinkConfig make_cfg(double c) {
    sim::LinkConfig cfg;
    cfg.capacity_bps = c;
    cfg.propagation_delay = kMillisecond;
    return cfg;
  }
};

TEST(Session, IdlePathDeliversAtLineRate) {
  SessionFixture f;
  auto res = f.session.send_stream(probe::StreamSpec::periodic(40e6, 1500, 50));
  EXPECT_TRUE(res.complete());
  EXPECT_NEAR(res.input_rate_bps(), 40e6, 40e6 * 0.01);
  // No cross traffic: output rate equals input rate.
  EXPECT_NEAR(res.rate_ratio(), 1.0, 0.01);
  // OWD = transmission + propagation for every packet.
  sim::SimTime expect_owd = sim::transmission_time(1500, 50e6) + kMillisecond;
  for (double owd : res.owds_seconds())
    EXPECT_NEAR(owd, sim::to_seconds(expect_owd), 1e-9);
}

TEST(Session, CostAccumulates) {
  SessionFixture f;
  f.session.send_stream(probe::StreamSpec::periodic(10e6, 1500, 10));
  f.session.send_stream(probe::StreamSpec::periodic(10e6, 1500, 10));
  EXPECT_EQ(f.session.cost().streams, 2u);
  EXPECT_EQ(f.session.cost().packets, 20u);
  EXPECT_EQ(f.session.cost().bytes, 20u * 1500u);
  EXPECT_GT(f.session.cost().elapsed(), 0);
}

TEST(Session, LostPacketsMarkedLost) {
  SessionFixture f;
  // Tiny queue: a burst at 100 Mb/s into a 50 Mb/s link must drop.
  sim::LinkConfig cfg;
  cfg.capacity_bps = 50e6;
  cfg.queue_limit_bytes = 4500;  // 3 packets
  sim::Simulator simu;
  sim::Path path(simu, {cfg});
  probe::ProbeSession session(simu, path);
  session.set_drain_timeout(200 * kMillisecond);
  auto res = session.send_stream(probe::StreamSpec::periodic(200e6, 1500, 50));
  EXPECT_GT(res.lost_count(), 0u);
  EXPECT_LT(res.lost_count(), 50u);
}

TEST(Session, RejectsEmptyAndPastStreams) {
  SessionFixture f;
  probe::StreamSpec empty;
  EXPECT_THROW(f.session.send_stream(empty), std::invalid_argument);
  f.simu.run_until(kSecond);
  auto spec = probe::StreamSpec::periodic(1e6, 100, 2);
  // A start in the past is a negative lead-in.
  EXPECT_THROW(f.session.send_stream(spec, -kSecond), std::invalid_argument);
  EXPECT_EQ(f.session.cost().streams, 0u);
}

// A spec or setting the session rejects must leave it exactly as it was:
// a send queued before the rejection, or a deadline before the last send,
// would leave an event pointing at a dead stack frame.  Every case throws
// with cost() unchanged, and the next valid stream then equals the same
// stream sent on a fresh twin session.
void expect_same_result(const probe::StreamResult& a, const probe::StreamResult& b) {
  EXPECT_EQ(a.stream_id, b.stream_id);
  EXPECT_EQ(a.duplicate_count, b.duplicate_count);
  EXPECT_EQ(a.reordered_count, b.reordered_count);
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    EXPECT_EQ(a.packets[i].seq, b.packets[i].seq);
    EXPECT_EQ(a.packets[i].size_bytes, b.packets[i].size_bytes);
    EXPECT_EQ(a.packets[i].sent, b.packets[i].sent);
    EXPECT_EQ(a.packets[i].received, b.packets[i].received);
    EXPECT_EQ(a.packets[i].lost, b.packets[i].lost);
  }
}

void expect_rejected_cleanly(
    const std::string& what, const std::function<void(core::Scenario&)>& bad) {
  SCOPED_TRACE(what);
  core::SingleHopConfig cfg;
  cfg.seed = 31;
  core::Scenario sc = core::Scenario::single_hop(cfg);
  core::Scenario twin = core::Scenario::single_hop(cfg);
  const probe::ProbeCost before = sc.transport().cost();
  EXPECT_THROW(bad(sc), std::invalid_argument);
  const probe::ProbeCost& after = sc.transport().cost();
  EXPECT_EQ(after.streams, before.streams);
  EXPECT_EQ(after.packets, before.packets);
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(after.first_send, before.first_send);
  EXPECT_EQ(after.last_activity, before.last_activity);

  const auto spec = probe::StreamSpec::periodic(30e6, 1500, 60);
  ASSERT_EQ(sc.simulator().now(), twin.simulator().now());
  expect_same_result(sc.transport().send_stream(spec),
                     twin.transport().send_stream(spec));
  EXPECT_EQ(sc.simulator().now(), twin.simulator().now());
  EXPECT_EQ(sc.simulator().events_processed(), twin.simulator().events_processed());
}

TEST(Session, BadStreamInputsLeaveNoStrandedSends) {
  auto spec_of = [](std::vector<sim::SimTime> offsets) {
    probe::StreamSpec spec;
    for (sim::SimTime o : offsets) spec.packets.push_back({o, 1500});
    return spec;
  };
  auto send = [](probe::StreamSpec spec) {
    return [spec](core::Scenario& sc) {
      sc.transport().send_stream(spec);
    };
  };
  expect_rejected_cleanly(
      "negative offset after valid sends",
      send(spec_of({0, 100 * kMicrosecond, 200 * kMicrosecond, -kMicrosecond})));
  expect_rejected_cleanly("negative first offset",
                                send(spec_of({-kMicrosecond, 0, kMicrosecond})));
  expect_rejected_cleanly(
      "decreasing offsets, last packet not the latest",
      send(spec_of({0, 2 * kMillisecond, kMillisecond})));
  expect_rejected_cleanly("empty stream", send(probe::StreamSpec{}));
  expect_rejected_cleanly("negative drain timeout", [](core::Scenario& sc) {
    sc.transport().set_drain_timeout(-kMillisecond);
  });
}

TEST(StreamSpec, ValidateAcceptsTiesAndRejectsDisorder) {
  probe::StreamSpec spec;
  spec.packets = {{0, 100}, {0, 100}, {5, 100}};
  EXPECT_NO_THROW(spec.validate());  // simultaneous sends are a valid burst
  spec.packets.push_back({4, 100});
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.packets = {{-1, 100}};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

// A stream's sends hold one entry in the event queue however long the
// stream is.  What else is pending is the cross traffic's source and
// transmitter (packet mode) and one delivery per probe in propagation:
// 1 ms at 50 Mb/s holds five 1500-byte packets.  In hybrid mode a probe's
// delivery is scheduled when it joins the fluid queue, so probes waiting
// in the backlog count too.  Scheduled one by one, the sends alone would
// put 1,000 entries in the queue when the stream starts.
TEST(Session, LongStreamKeepsTheEventHeapSmall) {
  for (sim::SimMode mode : {sim::SimMode::kPacket, sim::SimMode::kHybrid}) {
    core::SingleHopConfig cfg;
    cfg.mode = mode;
    core::Scenario sc = core::Scenario::single_hop(cfg);
    const auto res =
        sc.transport().send_stream(probe::StreamSpec::periodic(20e6, 1500, 1000));
    EXPECT_EQ(res.lost_count(), 0u);
    EXPECT_LE(sc.simulator().peak_event_count(), 16u)
        << (mode == sim::SimMode::kPacket ? "packet" : "hybrid") << " mode";
  }
}

// ------------------------------------------- fluid-model identities ----

// Single hop, CBR cross traffic at Rc, probing at Ri > A: the paper's
// Eqs. 6-8 predict, per interarrival Delta_i = L/Ri:
//   OWD increase per packet  d = (L / Ct) * (Ri - A) / Ri       (Eq. 7)
//   output rate              Ro = Ri Ct / (Ct + Ri - A)          (Eq. 8)
// We sweep Ri and check both against the simulation.
class FluidModel : public ::testing::TestWithParam<double> {};

TEST_P(FluidModel, EquationsSevenAndEight) {
  double ri = GetParam();
  constexpr double ct = 50e6;
  constexpr double rc = 25e6;  // CBR cross => A = 25 Mb/s
  constexpr double a = ct - rc;

  sim::Simulator simu;
  sim::LinkConfig cfg;
  cfg.capacity_bps = ct;
  cfg.queue_limit_bytes = 64 << 20;
  sim::Path path(simu, {cfg});
  probe::ProbeSession session(simu, path);
  traffic::CbrGenerator cross(simu, path, 0, false, 1, stats::Rng(3), rc, 1500);
  cross.start(0, 60 * kSecond);
  simu.run_until(kSecond);

  auto res = session.send_stream(probe::StreamSpec::periodic(ri, 1500, 400));
  ASSERT_TRUE(res.complete());

  if (ri > a) {
    double ro_fluid = ri * ct / (ct + ri - a);
    EXPECT_NEAR(res.output_rate_bps(), ro_fluid, ro_fluid * 0.02) << "Ri=" << ri;

    // Average per-packet OWD slope ~ Eq. 7 (in the long-run average; CBR
    // packet granularity adds sawtooth noise around the fluid line).
    auto owds = res.owds_seconds();
    double d_fluid = (1500.0 * 8.0 / ct) * (ri - a) / ri;
    double slope = (owds.back() - owds.front()) /
                   static_cast<double>(owds.size() - 1);
    EXPECT_NEAR(slope, d_fluid, d_fluid * 0.15) << "Ri=" << ri;
    EXPECT_EQ(stats::combined_trend(owds), stats::Trend::kIncreasing);
  } else {
    EXPECT_NEAR(res.rate_ratio(), 1.0, 0.08) << "Ri=" << ri;
    EXPECT_NE(stats::combined_trend(res.owds_seconds()),
              stats::Trend::kIncreasing);
  }
}

INSTANTIATE_TEST_SUITE_P(RateSweep, FluidModel,
                         ::testing::Values(10e6, 15e6, 20e6, 24e6, 27e6, 30e6,
                                           35e6, 40e6, 45e6));

// Eq. 6 directly: queue growth per probing packet at the link.
TEST(FluidModel, EquationSixQueueGrowth) {
  constexpr double ct = 50e6, rc = 25e6, ri = 40e6, a = ct - rc;
  sim::Simulator simu;
  sim::LinkConfig cfg;
  cfg.capacity_bps = ct;
  cfg.queue_limit_bytes = 64 << 20;
  sim::Path path(simu, {cfg});
  probe::ProbeSession session(simu, path);
  traffic::CbrGenerator cross(simu, path, 0, false, 1, stats::Rng(3), rc, 1500);
  cross.start(0, 60 * kSecond);
  simu.run_until(kSecond);

  std::size_t backlog_before = path.link(0).backlog_bytes();
  auto spec = probe::StreamSpec::periodic(ri, 1500, 100);
  // Sample the backlog right as the last packet goes in.
  std::size_t backlog_after = 0;
  simu.at(simu.now() + kMillisecond + spec.packets.back().offset,
          [&] { backlog_after = path.link(0).backlog_bytes(); });
  session.send_stream(spec, kMillisecond);

  // Eq. 6: q grows by L * (Ri - A) / Ri per interarrival, so after N
  // packets: q ~ N * 1500 * (40-25)/40 = N * 562.5 B.
  double expected_growth = 100 * 1500.0 * (ri - a) / ri;
  EXPECT_NEAR(static_cast<double>(backlog_after) -
                  static_cast<double>(backlog_before),
              expected_growth, expected_growth * 0.15);
}

}  // namespace
