// Fault-injection layer tests: Gilbert-Elliott bursty loss, duplication,
// reordering, capacity dynamics (with mid-transmission re-planning and
// exact piecewise ground truth), the fluid/fault mutual-exclusion
// guards, per-stream impairment accounting, estimator limits with
// structured aborts, and the fault-tolerant batch runner.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/scenario.hpp"
#include "est/estimator.hpp"
#include "probe/session.hpp"
#include "probe/stream_spec.hpp"
#include "runner/batch.hpp"
#include "sim/fault.hpp"
#include "sim/link.hpp"
#include "sim/node.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "stats/rng.hpp"
#include "traffic/cbr.hpp"

namespace {

using namespace abw;
using namespace abw::sim;

// A link feeding a counting sink, with helpers to pour packets through.
struct LinkFixture {
  Simulator simu;
  Link link;
  CountingSink sink;

  explicit LinkFixture(double capacity = 10e6, SimTime prop = 0)
      : link(simu, "L", make_cfg(capacity, prop)) {
    link.set_next(&sink);
  }
  static LinkConfig make_cfg(double c, SimTime prop) {
    LinkConfig cfg;
    cfg.capacity_bps = c;
    cfg.propagation_delay = prop;
    return cfg;
  }
  // Injects `n` packets of `size` bytes at interval `gap`, starting now.
  void pour(std::size_t n, std::uint32_t size, SimTime gap) {
    SimTime t = simu.now();
    for (std::size_t i = 0; i < n; ++i, t += gap) {
      simu.at(t, [this, size, i] {
        Packet pkt;
        pkt.id = simu.next_packet_id();
        pkt.size_bytes = size;
        pkt.seq = static_cast<std::uint32_t>(i);
        pkt.send_time = simu.now();
        link.handle(pkt);
      });
    }
    simu.run_until(t + kSecond);
    simu.run_until_idle();
  }
};

// ------------------------------------------------ Gilbert-Elliott loss ---

TEST(GilbertElliottLoss, StationaryLossRateMatchesChain) {
  // p_gb/(p_gb+p_bg) = 0.015/0.050 = 30% average loss.
  LinkFixture f(100e6);
  LinkFaults faults;
  faults.gilbert.p_good_bad = 0.015;
  faults.gilbert.p_bad_good = 0.035;
  f.link.set_faults(faults);
  f.pour(20000, 1000, 100 * kMicrosecond);

  const LinkStats& st = f.link.stats();
  EXPECT_EQ(st.packets_in, 20000u);
  EXPECT_EQ(st.packets_lost, st.packets_ge_lost);
  double loss = static_cast<double>(st.packets_ge_lost) /
                static_cast<double>(st.packets_in);
  EXPECT_NEAR(loss, 0.30, 0.05);
  EXPECT_EQ(st.packets_out + st.packets_lost, st.packets_in);
}

TEST(GilbertElliottLoss, LossIsBursty) {
  // Mean burst length 1/p_bad_good = 25 packets: consecutive losses must
  // cluster far beyond what Bernoulli loss at the same rate produces.
  LinkFixture f(100e6);
  LinkFaults faults;
  faults.gilbert.p_good_bad = 0.012;
  faults.gilbert.p_bad_good = 0.04;
  f.link.set_faults(faults);

  // Tap arrivals and compare against deliveries to reconstruct the loss
  // pattern: a packet is lost iff its seq never reaches the sink.
  std::vector<bool> lost(20000, true);
  f.sink.set_on_packet([&](const Packet& p) { lost[p.seq] = false; });
  f.pour(20000, 1000, 100 * kMicrosecond);

  std::size_t bursts = 0, lost_total = 0;
  bool in_burst = false;
  for (bool l : lost) {
    if (l) {
      ++lost_total;
      if (!in_burst) ++bursts;
    }
    in_burst = l;
  }
  ASSERT_GT(bursts, 0u);
  double mean_burst =
      static_cast<double>(lost_total) / static_cast<double>(bursts);
  EXPECT_GT(mean_burst, 5.0);  // Bernoulli at 23% would give ~1.3
}

TEST(GilbertElliottLoss, DeterministicAcrossRuns) {
  auto run = [] {
    LinkFixture f(100e6);
    LinkFaults faults;
    faults.gilbert.p_good_bad = 0.02;
    faults.gilbert.p_bad_good = 0.05;
    faults.duplicate_prob = 0.01;
    f.link.set_faults(faults);
    f.pour(5000, 1000, 100 * kMicrosecond);
    return f.link.stats();
  };
  LinkStats a = run(), b = run();
  EXPECT_EQ(a.packets_ge_lost, b.packets_ge_lost);
  EXPECT_EQ(a.packets_duplicated, b.packets_duplicated);
  EXPECT_EQ(a.packets_out, b.packets_out);
  EXPECT_EQ(a.bytes_out, b.bytes_out);
}

// ------------------------------------------- duplication & reordering ---

TEST(FaultDuplication, DuplicatesConsumeCapacityAndAreMetered) {
  LinkFixture f;
  LinkFaults faults;
  faults.duplicate_prob = 0.2;
  f.link.set_faults(faults);
  f.pour(5000, 1000, kMillisecond);

  const LinkStats& st = f.link.stats();
  EXPECT_NEAR(static_cast<double>(st.packets_duplicated), 1000.0, 150.0);
  EXPECT_EQ(st.packets_out, st.packets_in + st.packets_duplicated);
  EXPECT_EQ(f.sink.packets(), st.packets_out);
  // Every duplicate was serialized: busy time covers in + duplicated.
  SimTime per_pkt = transmission_time(1000, 10e6);
  SimTime busy = f.link.meter().busy_time(0, f.simu.now());
  EXPECT_EQ(busy, static_cast<SimTime>(st.packets_out) * per_pkt);
}

TEST(FaultReordering, DelayedPacketsArriveOutOfOrder) {
  // 2 ms extra delay on a quarter of departures, back-to-back packets:
  // held-back packets must be overtaken by later seqs at the sink.
  LinkFixture f(100e6);
  LinkFaults faults;
  faults.reorder_prob = 0.25;
  faults.reorder_extra_max = 2 * kMillisecond;
  f.link.set_faults(faults);

  std::vector<std::uint32_t> arrival_order;
  f.sink.set_on_packet(
      [&](const Packet& p) { arrival_order.push_back(p.seq); });
  f.pour(2000, 1000, 100 * kMicrosecond);

  ASSERT_EQ(arrival_order.size(), 2000u);
  std::size_t inversions = 0;
  std::uint32_t highest = 0;
  for (std::uint32_t s : arrival_order) {
    if (s < highest) ++inversions;
    else highest = s;
  }
  EXPECT_GT(inversions, 100u);
  EXPECT_GT(f.link.stats().packets_reordered, 100u);
  // Reordering delays delivery but never loses or duplicates.
  EXPECT_EQ(f.link.stats().packets_out, 2000u);
}

TEST(FaultConfig, ValidationAndRemoval) {
  LinkFixture f;
  LinkFaults bad;
  bad.gilbert.p_good_bad = 1.5;
  EXPECT_THROW(f.link.set_faults(bad), std::invalid_argument);
  bad = LinkFaults{};
  bad.duplicate_prob = -0.1;
  EXPECT_THROW(f.link.set_faults(bad), std::invalid_argument);
  bad = LinkFaults{};
  bad.reorder_prob = 0.5;
  bad.reorder_extra_max = 0;
  EXPECT_THROW(f.link.set_faults(bad), std::invalid_argument);

  LinkFaults on;
  on.duplicate_prob = 0.5;
  f.link.set_faults(on);
  EXPECT_NE(f.link.faults(), nullptr);
  f.link.set_faults(LinkFaults{});  // any()==false removes
  EXPECT_EQ(f.link.faults(), nullptr);
  f.pour(100, 1000, kMillisecond);
  EXPECT_EQ(f.link.stats().packets_duplicated, 0u);
}

// ------------------------------------------------- capacity dynamics ---

TEST(CapacityDynamics, ReplansInServicePacket) {
  // 1000 B at 8 Mb/s = 1 ms serialization.  Halving the capacity halfway
  // through must finish the remaining 4000 bits at 4 Mb/s: completion at
  // 0.5 ms + 1.0 ms = 1.5 ms, not 1.0 ms (old plan) or 2.0 ms (restart).
  LinkFixture f(8e6);
  SimTime arrival = 0;
  f.simu.at(0, [&] {
    Packet pkt;
    pkt.id = f.simu.next_packet_id();
    pkt.size_bytes = 1000;
    f.link.handle(pkt);
  });
  f.simu.at(kMillisecond / 2, [&] { f.link.set_capacity(4e6); });
  f.sink.set_on_packet([&](const Packet&) { arrival = f.simu.now(); });
  f.simu.run_until_idle();

  EXPECT_EQ(arrival, kMillisecond + kMillisecond / 2);
  EXPECT_EQ(f.link.stats().packets_out, 1u);  // stale event must not double-fire
  EXPECT_EQ(f.link.stats().capacity_changes, 1u);
  // The busy interval was amended to the true completion time.
  EXPECT_EQ(f.link.meter().busy_time(0, 10 * kMillisecond),
            kMillisecond + kMillisecond / 2);
}

TEST(CapacityDynamics, GroundTruthIntegratesPiecewiseCapacity) {
  // Idle link, capacity 10 -> 40 Mb/s at t = 1 s.  Over [0, 4 s) the
  // avail-bw is (1*10 + 3*40)/4 = 32.5 Mb/s — the piecewise integral,
  // not either endpoint.
  LinkFixture f(10e6);
  f.simu.at(kSecond, [&] { f.link.set_capacity(40e6); });
  f.simu.run_until(4 * kSecond);

  const UtilizationMeter& m = f.link.meter();
  EXPECT_EQ(m.capacity_step_count(), 1u);
  EXPECT_DOUBLE_EQ(m.capacity_at(0), 10e6);
  EXPECT_DOUBLE_EQ(m.capacity_at(2 * kSecond), 40e6);
  EXPECT_DOUBLE_EQ(m.avail_bw(0, 4 * kSecond), 32.5e6);
  EXPECT_DOUBLE_EQ(m.cross_avail_bw(0, 4 * kSecond), 32.5e6);
  // Windows entirely inside one segment read that segment's capacity.
  EXPECT_DOUBLE_EQ(m.avail_bw(0, kSecond), 10e6);
  EXPECT_DOUBLE_EQ(m.avail_bw(2 * kSecond, 3 * kSecond), 40e6);
  // The series path agrees with per-window queries.
  std::vector<double> series = m.avail_bw_series(0, 4 * kSecond, kSecond);
  ASSERT_EQ(series.size(), 4u);
  EXPECT_DOUBLE_EQ(series[0], 10e6);
  EXPECT_DOUBLE_EQ(series[1], 40e6);
}

TEST(CapacityDynamics, RepeatedChangesStayConsistent) {
  // A saturating CBR flow across several capacity changes: conservation
  // (in = out + queued + dropped) and meter sanity must survive every
  // re-plan, including back-to-back changes mid-transmission.
  Simulator simu;
  Path path(simu, {LinkFixture::make_cfg(20e6, 0)});
  CountingSink sink;
  path.set_receiver(&sink);
  traffic::CbrGenerator cbr(simu, path, 0, /*one_hop=*/false, /*flow_id=*/1,
                            stats::Rng(7), 18e6, 1000);
  cbr.start(0, 10 * kSecond);

  FaultInjector inj(simu);
  inj.set_capacity_at(path.link(0), 2 * kSecond, 5e6);
  inj.set_capacity_at(path.link(0), 2 * kSecond + 100 * kMicrosecond, 12e6);
  inj.flap(path.link(0), 4 * kSecond, kSecond, 1e6);
  EXPECT_EQ(inj.scheduled_changes(), 4u);

  simu.run_until(12 * kSecond);
  simu.run_until_idle();

  const LinkStats& st = path.link(0).stats();
  EXPECT_EQ(st.capacity_changes, 4u);
  EXPECT_DOUBLE_EQ(path.link(0).capacity_bps(), 20e6);  // flap recovered
  EXPECT_EQ(st.packets_in, st.packets_out + st.packets_dropped);
  // The meter never saw an overlapping or negative interval (it throws
  // otherwise), and utilization stays a valid fraction.
  double u = path.link(0).meter().utilization(0, simu.now());
  EXPECT_GE(u, 0.0);
  EXPECT_LE(u, 1.0);
}

TEST(CapacityDynamics, Validation) {
  LinkFixture f;
  EXPECT_THROW(f.link.set_capacity(0.0), std::invalid_argument);
  EXPECT_THROW(f.link.set_capacity(-5e6), std::invalid_argument);
  FaultInjector inj(f.simu);
  EXPECT_THROW(inj.set_capacity_at(f.link, 0, -1.0), std::invalid_argument);
  EXPECT_THROW(inj.flap(f.link, 0, 0, 1e6), std::invalid_argument);
  f.simu.run_until(kSecond);
  EXPECT_THROW(inj.set_capacity_at(f.link, 0, 1e6), std::invalid_argument);
}

// ------------------------------------------- fluid/fault exclusivity ---

TEST(FaultFluidGuards, EveryCombinationRejected) {
  LinkFaults faults;
  faults.gilbert.p_good_bad = 0.01;
  faults.gilbert.p_bad_good = 0.05;

  {  // faults installed first -> enable_fluid rejected
    LinkFixture f;
    f.link.set_faults(faults);
    EXPECT_THROW(f.link.enable_fluid(), std::logic_error);
  }
  {  // capacity change applied first -> enable_fluid rejected
    LinkFixture f;
    f.link.set_capacity(5e6);
    EXPECT_THROW(f.link.enable_fluid(), std::logic_error);
  }
  {  // capacity change merely SCHEDULED first -> enable_fluid rejected
    LinkFixture f;
    FaultInjector inj(f.simu);
    inj.set_capacity_at(f.link, 10 * kSecond, 5e6);
    EXPECT_THROW(f.link.enable_fluid(), std::logic_error);
  }
  {  // fluid enabled first -> every fault entry point rejected
    LinkFixture f;
    f.link.enable_fluid();
    EXPECT_THROW(f.link.set_faults(faults), std::logic_error);
    EXPECT_THROW(f.link.set_capacity(5e6), std::logic_error);
    EXPECT_THROW(f.link.expect_capacity_dynamics(), std::logic_error);
    FaultInjector inj(f.simu);
    EXPECT_THROW(inj.set_capacity_at(f.link, 10 * kSecond, 5e6),
                 std::logic_error);
    EXPECT_THROW(inj.set_link_faults(f.link, faults), std::logic_error);
  }
  {  // a hybrid scenario's tight link rejects fault installation
    core::SingleHopConfig cfg;
    cfg.mode = SimMode::kHybrid;
    core::Scenario sc = core::Scenario::single_hop(cfg);
    EXPECT_THROW(sc.path().link(0).set_faults(faults), std::logic_error);
    FaultInjector inj(sc.simulator());
    EXPECT_THROW(
        inj.flap(sc.path().link(0), sc.simulator().now() + kSecond, kSecond, 1e6),
        std::logic_error);
  }
}

// --------------------------------------- per-stream probe accounting ---

TEST(ProbeAccounting, StreamResultCountsImpairments) {
  core::SingleHopConfig cfg;
  cfg.cross_rate_bps = 5e6;  // lightly loaded: impairments dominate
  core::Scenario sc = core::Scenario::single_hop(cfg);
  LinkFaults faults;
  faults.duplicate_prob = 0.1;
  faults.reorder_prob = 0.2;
  faults.reorder_extra_max = 2 * kMillisecond;
  faults.gilbert.p_good_bad = 0.02;
  faults.gilbert.p_bad_good = 0.2;
  sc.path().link(0).set_faults(faults);

  probe::StreamSpec spec = probe::StreamSpec::periodic(10e6, 1000, 500);
  probe::StreamResult res = sc.transport().send_stream(spec);

  EXPECT_GT(res.duplicate_count, 0u);
  EXPECT_GT(res.reordered_count, 0u);
  EXPECT_GT(res.lost_count(), 0u);
  EXPECT_TRUE(res.impaired());
  EXPECT_EQ(res.received_count() + res.lost_count(), res.packets.size());
  EXPECT_GT(res.loss_fraction(), 0.0);
  EXPECT_LT(res.loss_fraction(), 1.0);
}

TEST(ProbeAccounting, DegenerateStreamShapesAreSafe) {
  // The two shapes decimated streams collapse to — everything lost, and
  // exactly one survivor — must flow through every rate/OWD helper
  // without a division by zero or an out-of-range access.
  probe::StreamResult all_lost;
  for (std::uint32_t i = 0; i < 10; ++i) {
    probe::ProbeRecord r;
    r.seq = i;
    r.size_bytes = 1000;
    r.sent = static_cast<SimTime>(i) * kMillisecond;
    r.lost = true;
    all_lost.packets.push_back(r);
  }
  EXPECT_EQ(all_lost.lost_count(), 10u);
  EXPECT_EQ(all_lost.received_count(), 0u);
  EXPECT_DOUBLE_EQ(all_lost.loss_fraction(), 1.0);
  EXPECT_TRUE(all_lost.impaired());
  EXPECT_DOUBLE_EQ(all_lost.output_rate_bps(), 0.0);
  EXPECT_DOUBLE_EQ(all_lost.rate_ratio(), 0.0);
  EXPECT_TRUE(all_lost.owds_seconds().empty());
  EXPECT_TRUE(all_lost.relative_owds_ms().empty());

  probe::StreamResult one = all_lost;  // exactly one survivor
  one.packets[3].lost = false;
  one.packets[3].received = one.packets[3].sent + 2 * kMillisecond;
  EXPECT_EQ(one.received_count(), 1u);
  EXPECT_GT(one.input_rate_bps(), 0.0);
  EXPECT_DOUBLE_EQ(one.output_rate_bps(), 0.0);  // < 2 arrivals: undefined
  EXPECT_DOUBLE_EQ(one.rate_ratio(), 0.0);
  ASSERT_EQ(one.owds_seconds().size(), 1u);
  ASSERT_EQ(one.relative_owds_ms().size(), 1u);
  EXPECT_DOUBLE_EQ(one.relative_owds_ms()[0], 0.0);
  EXPECT_TRUE(one.impaired());
  EXPECT_FALSE(one.complete());
}

TEST(ProbeAccounting, CleanStreamIsUnimpaired) {
  core::SingleHopConfig cfg;
  cfg.cross_rate_bps = 5e6;
  core::Scenario sc = core::Scenario::single_hop(cfg);
  probe::StreamSpec spec = probe::StreamSpec::periodic(10e6, 1000, 200);
  probe::StreamResult res = sc.transport().send_stream(spec);
  EXPECT_EQ(res.duplicate_count, 0u);
  EXPECT_EQ(res.reordered_count, 0u);
  EXPECT_FALSE(res.impaired());
  EXPECT_DOUBLE_EQ(res.loss_fraction(), 0.0);
}

// ------------------------------------------------- estimator limits ---

TEST(EstimateType, InvalidPointIsNaNAndAbortCarriesReason) {
  est::Estimate inv = est::Estimate::invalid("why");
  EXPECT_FALSE(inv.valid);
  EXPECT_TRUE(std::isnan(inv.point_bps()));
  EXPECT_EQ(inv.abort, est::AbortReason::kNone);

  est::Estimate ab =
      est::Estimate::aborted(est::AbortReason::kDeadline, "too slow");
  EXPECT_FALSE(ab.valid);
  EXPECT_TRUE(std::isnan(ab.point_bps()));
  EXPECT_EQ(ab.abort, est::AbortReason::kDeadline);
  EXPECT_EQ(est::abort_reason_name(ab.abort), "deadline");

  est::Estimate ok = est::Estimate::point(10e6);
  EXPECT_DOUBLE_EQ(ok.point_bps(), 10e6);
}

// Blackout faults: the Gilbert-Elliott chain jumps to (and stays in) the
// bad state on the first packet and drops everything.
sim::LinkFaults blackout() {
  sim::LinkFaults f;
  f.gilbert.p_good_bad = 1.0;
  f.gilbert.p_bad_good = 0.0;
  f.gilbert.loss_bad = 1.0;
  return f;
}

TEST(EstimatorLimits, EveryToolAbortsStructurallyUnderBlackout) {
  // All probes lost: no tool can measure, and without limits several
  // published techniques would grind through their full search.  With a
  // probe budget every registry tool must return promptly with
  // valid == false and a structured reason — never crash or hang (the
  // ctest-level timeout backstops the "hang" half).
  for (const std::string& tool : core::available_tools()) {
    core::SingleHopConfig cfg;
    cfg.cross_rate_bps = 10e6;
    core::Scenario sc = core::Scenario::single_hop(cfg);
    sc.path().link(0).set_faults(blackout());
    sc.transport().set_drain_timeout(200 * kMillisecond);  // all-lost streams

    core::ToolOptions opt;
    opt.tight_capacity_bps = cfg.capacity_bps;
    opt.max_rate_bps = cfg.capacity_bps;
    opt.limits.max_probe_packets = 2000;
    opt.limits.deadline = 30 * kSecond;
    auto est = core::make_estimator(tool, opt, sc.rng());

    est::Estimate e = est->estimate(sc.transport());
    EXPECT_FALSE(e.valid) << tool;
    EXPECT_NE(e.abort, est::AbortReason::kNone) << tool << ": " << e.detail;
    EXPECT_TRUE(std::isnan(e.point_bps())) << tool;
  }
}

TEST(EstimatorLimits, DegenerateStreamsNeverCrashTools) {
  // Near-blackout (a lone survivor now and then), heavy duplication, and
  // heavy reordering: every tool must terminate with either a valid
  // estimate or a structured abort — and never throw.
  std::vector<sim::LinkFaults> regimes;
  {
    sim::LinkFaults f = blackout();
    f.gilbert.loss_bad = 0.995;  // one survivor per ~200 packets
    regimes.push_back(f);
  }
  {
    sim::LinkFaults f;
    f.duplicate_prob = 0.5;
    regimes.push_back(f);
  }
  {
    sim::LinkFaults f;
    f.reorder_prob = 0.8;
    f.reorder_extra_max = 5 * kMillisecond;
    regimes.push_back(f);
  }

  for (std::size_t r = 0; r < regimes.size(); ++r) {
    for (const std::string& tool : core::available_tools()) {
      core::SingleHopConfig cfg;
      cfg.cross_rate_bps = 10e6;
      cfg.seed = 100 + r;
      core::Scenario sc = core::Scenario::single_hop(cfg);
      sc.path().link(0).set_faults(regimes[r]);
      sc.transport().set_drain_timeout(200 * kMillisecond);

      core::ToolOptions opt;
      opt.tight_capacity_bps = cfg.capacity_bps;
      opt.max_rate_bps = cfg.capacity_bps;
      opt.limits.max_probe_packets = 4000;
      opt.limits.deadline = 30 * kSecond;
      auto est = core::make_estimator(tool, opt, sc.rng());

      est::Estimate e;
      ASSERT_NO_THROW(e = est->estimate(sc.transport()))
          << tool << " regime " << r;
      if (!e.valid) {
        EXPECT_TRUE(e.abort != est::AbortReason::kNone || !e.detail.empty())
            << tool << " regime " << r;
      }
    }
  }
}

TEST(EstimatorLimits, LimitsOffPreservesConvergence) {
  // Defaults (no limits) on a clean path: pathload still converges to a
  // valid range, i.e. the guard plumbing changed nothing when unused.
  core::SingleHopConfig cfg;
  core::Scenario sc = core::Scenario::single_hop(cfg);
  core::ToolOptions opt;
  opt.max_rate_bps = cfg.capacity_bps;
  auto est = core::make_estimator("pathload", opt, sc.rng());
  ASSERT_FALSE(est->limits().any());
  est::Estimate e = est->estimate(sc.transport());
  EXPECT_TRUE(e.valid) << e.detail;
  EXPECT_EQ(e.abort, est::AbortReason::kNone);
}

// --------------------------------------------- fault-tolerant runner ---

TEST(BatchCells, ThrowingCellYieldsErrorRecordOthersBitIdentical) {
  runner::BatchRunner pool(4);
  const std::uint64_t base = 99;
  // Reference: the plain seeded map over the non-throwing computation.
  auto ref = pool.map_seeded(16, base, [](std::size_t i, std::uint64_t seed) {
    return static_cast<double>(seed % 1000) + static_cast<double>(i);
  });

  auto cells = pool.map_cells_seeded(
      16, base,
      [](std::size_t i, std::uint64_t seed) -> double {
        if (i == 5) throw std::runtime_error("cell 5 exploded");
        return static_cast<double>(seed % 1000) + static_cast<double>(i);
      });

  ASSERT_EQ(cells.size(), 16u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i == 5) {
      EXPECT_FALSE(cells[i].ok);
      EXPECT_EQ(cells[i].error, "cell 5 exploded");
      EXPECT_EQ(cells[i].attempts, 1u);
    } else {
      EXPECT_TRUE(cells[i].ok);
      EXPECT_EQ(cells[i].attempts, 1u);
      EXPECT_DOUBLE_EQ(cells[i].value, ref[i]);  // bit-identical survivors
    }
  }
}

TEST(BatchCells, RetryUsesFreshDeterministicSeed) {
  runner::BatchRunner pool(2);
  const std::uint64_t base = 7;
  runner::RetryPolicy retry;
  retry.max_retries = 2;

  // Cell 3 fails on its first-attempt seed, succeeds on any other.
  auto cells = pool.map_cells_seeded(
      8, base,
      [&](std::size_t i, std::uint64_t seed) -> std::uint64_t {
        if (i == 3 && seed == runner::derive_seed(base, 3))
          throw std::runtime_error("first attempt fails");
        return seed;
      },
      retry);

  ASSERT_TRUE(cells[3].ok);
  EXPECT_EQ(cells[3].attempts, 2u);
  EXPECT_EQ(cells[3].value,
            runner::derive_seed(runner::derive_seed(base, 3), 1));
  for (std::size_t i = 0; i < 8; ++i) {
    if (i == 3) continue;
    EXPECT_TRUE(cells[i].ok);
    EXPECT_EQ(cells[i].attempts, 1u);
    EXPECT_EQ(cells[i].value, runner::derive_seed(base, i));  // attempt 0
  }
}

TEST(BatchCells, ExhaustedRetriesReportLastError) {
  runner::BatchRunner pool(1);  // serial path must catch too
  runner::RetryPolicy retry;
  retry.max_retries = 3;
  auto cells = pool.map_cells(
      4,
      [](std::size_t i, std::size_t attempt) -> int {
        if (i == 2) throw std::runtime_error("always fails, attempt " +
                                             std::to_string(attempt));
        return static_cast<int>(i);
      },
      retry);
  EXPECT_FALSE(cells[2].ok);
  EXPECT_EQ(cells[2].attempts, 4u);
  EXPECT_EQ(cells[2].error, "always fails, attempt 3");
  EXPECT_TRUE(cells[3].ok);
  EXPECT_EQ(cells[3].value, 3);
}

}  // namespace
