// Tests for the discrete-event simulator: scheduler ordering, clock
// semantics, link service behaviour, utilization metering (the ground
// truth behind the paper's Eqs. 1-3), and path routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_line.hpp"
#include "sim/fault.hpp"
#include "sim/link.hpp"
#include "sim/node.hpp"
#include "sim/path.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/util_meter.hpp"
#include "stats/rng.hpp"

namespace {

using namespace abw::sim;

// --------------------------------------------------------------- time ---

TEST(Time, Conversions) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_millis(1.0), kMillisecond);
  EXPECT_EQ(from_micros(1.0), kMicrosecond);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_millis(kMillisecond), 1.0);
}

TEST(Time, TransmissionTime) {
  // 1500 B at 50 Mb/s = 240 us.
  EXPECT_EQ(transmission_time(1500, 50e6), 240 * kMicrosecond);
  // 40 B at 100 Mb/s = 3.2 us.
  EXPECT_EQ(transmission_time(40, 100e6), from_micros(3.2));
}

// ---------------------------------------------------------- scheduler ---

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(30, [&] { order.push_back(3); });
  s.schedule(10, [&] { order.push_back(1); });
  s.schedule(20, [&] { order.push_back(2); });
  while (!s.empty()) s.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, TiesFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) s.schedule(7, [&order, i] { order.push_back(i); });
  while (!s.empty()) s.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, RejectsPast) {
  Scheduler s;
  s.schedule(10, [] {});
  (void)s.pop();
  EXPECT_THROW(s.schedule(5, [] {}), std::logic_error);
  EXPECT_NO_THROW(s.schedule(10, [] {}));  // same time as last pop is fine
}

TEST(Scheduler, PopOnEmptyThrows) {
  Scheduler s;
  EXPECT_THROW(s.pop(), std::logic_error);
}

// next_time() on an empty queue used to read heap_.front() of an empty
// vector (UB); it must throw like pop() does, and keep doing so after the
// queue drains.
TEST(Scheduler, NextTimeOnEmptyThrows) {
  Scheduler s;
  EXPECT_THROW(s.next_time(), std::logic_error);
  s.schedule(10, [] {});
  EXPECT_EQ(s.next_time(), 10);
  (void)s.pop();
  EXPECT_THROW(s.next_time(), std::logic_error);
}

// Regression for the schedule-in-the-past contract: the documented
// invariant ("t must not be earlier than the most recently popped event
// time") must be ENFORCED, not just tracked, including when the violation
// happens from inside a callback mid-simulation and after the queue has
// drained and refilled.
TEST(Scheduler, RejectsPastFromWithinCallback) {
  Scheduler s;
  bool threw = false;
  s.schedule(100, [&] {
    // The clock is at 100 (this event was just popped); asking for an
    // event at 40 would rewrite history.
    try {
      s.schedule(40, [] {});
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  while (!s.empty()) s.pop().cb();
  EXPECT_TRUE(threw);
}

TEST(Scheduler, PastBoundaryTracksLatestPop) {
  Scheduler s;
  s.schedule(10, [] {});
  s.schedule(30, [] {});
  (void)s.pop();                           // last popped: 10
  EXPECT_NO_THROW(s.schedule(20, [] {}));  // between pops: legal
  (void)s.pop();                           // last popped: 20
  (void)s.pop();                           // last popped: 30
  EXPECT_THROW(s.schedule(29, [] {}), std::logic_error);
  EXPECT_NO_THROW(s.schedule(30, [] {}));  // boundary is inclusive
  // Draining the queue must not reset the enforcement floor.
  (void)s.pop();
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.schedule(29, [] {}), std::logic_error);
}

// The scheduler keeps a few pending events as a sorted run and many as a
// 4-ary heap.  A seeded workload whose pending count swings across both
// switch points, on a coarse time grid so ties are common, must pop in
// exact (time, seq) order whichever form holds the events.
TEST(Scheduler, PopOrderHoldsAcrossSortedRunAndHeap) {
  Scheduler s;
  abw::stats::Rng rng(7);
  std::set<std::pair<SimTime, std::uint64_t>> pending;  // (time, seq)
  std::uint64_t next_seq = 0;
  SimTime now = 0;
  std::size_t peak = 0;
  for (int phase = 0; phase < 60; ++phase) {
    const auto target = static_cast<std::size_t>(
        rng.uniform_int(0, phase % 3 == 0 ? 200 : 40));
    while (pending.size() < target) {
      const SimTime t = now + 10 * rng.uniform_int(0, 12);
      s.schedule(t, [] {});
      pending.emplace(t, next_seq++);
      peak = std::max(peak, pending.size());
    }
    while (pending.size() > target) {
      ASSERT_EQ(s.next_time(), pending.begin()->first);
      const Scheduler::Event ev = s.pop();
      ASSERT_EQ(ev.time, pending.begin()->first) << "phase " << phase;
      ASSERT_EQ(ev.seq, pending.begin()->second) << "phase " << phase;
      pending.erase(pending.begin());
      now = ev.time;
    }
    ASSERT_EQ(s.size(), pending.size());
  }
  EXPECT_EQ(s.peak_size(), peak);
  EXPECT_GT(peak, 64u) << "the workload never reached heap mode";
}

// A reserved sequence number keeps its tie-break position, but the key it
// is finally scheduled under must still sort after the last popped event.
TEST(Scheduler, ReservedKeyAtOrBeforeLastPopThrows) {
  Scheduler s;
  const std::uint64_t early = s.reserve_seq();
  s.schedule(10, [] {});
  (void)s.pop();  // last popped: time 10, a later seq than `early`
  EXPECT_THROW(s.schedule_reserved(5, early, [] {}), std::logic_error);
  EXPECT_THROW(s.schedule_reserved(10, early, [] {}), std::logic_error);
  EXPECT_NO_THROW(s.schedule_reserved(11, early, [] {}));
  const std::uint64_t late = s.reserve_seq();
  EXPECT_NO_THROW(s.schedule_reserved(10, late, [] {}));
  EXPECT_THROW(s.schedule_reserved(20, late + 1, [] {}), std::logic_error)
      << "a number never reserved";
  // The reserved keys pop in (time, seq) order like any other.
  EXPECT_EQ(s.pop().seq, late);
  EXPECT_EQ(s.pop().seq, early);
}

// ---------------------------------------------------------- simulator ---

TEST(Simulator, ClockAdvancesBeforeCallback) {
  Simulator sim;
  SimTime seen = -1;
  sim.after(100, [&] { seen = sim.now(); });
  sim.run_until(1000);
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(Simulator, CallbackSchedulingChains) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) sim.after(10, chain);
  };
  sim.after(10, chain);
  sim.run_until_idle();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), 50);
}

TEST(Simulator, RunUntilConditionStopsEarly) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) sim.at(i * 10, [&] { ++count; });
  bool met = sim.run_until_condition(1000, [&] { return count == 3; });
  EXPECT_TRUE(met);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, RunUntilConditionRespectsDeadline) {
  Simulator sim;
  int count = 0;
  sim.at(500, [&] { ++count; });
  bool met = sim.run_until_condition(100, [&] { return count > 0; });
  EXPECT_FALSE(met);
  EXPECT_EQ(count, 0);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator sim;
  sim.run_until(100);
  EXPECT_THROW(sim.at(50, [] {}), std::logic_error);
  EXPECT_THROW(sim.after(-1, [] {}), std::logic_error);
}

TEST(Simulator, PacketIdsAreUnique) {
  Simulator sim;
  auto a = sim.next_packet_id();
  auto b = sim.next_packet_id();
  EXPECT_NE(a, b);
}

// --------------------------------------------------------- event line ---

struct Nop {
  void operator()() const {}
};

TEST(EventLine, HoldsOneHeapEntry) {
  Simulator sim;
  EventLine<Nop> line(sim);
  for (SimTime t = 0; t < 1000; t += 10) line.push(t, {});
  EXPECT_EQ(line.size(), 100u);
  EXPECT_EQ(sim.peak_event_count(), 1u);
  sim.run_until_idle();
  EXPECT_TRUE(line.empty());
  EXPECT_EQ(sim.events_processed(), 100u);
  EXPECT_EQ(sim.now(), 990);
}

TEST(EventLine, RejectsDecreasingAndPastTimes) {
  Simulator sim;
  EventLine<Nop> line(sim);
  line.push(10, {});
  EXPECT_THROW(line.push(5, {}), std::logic_error);
  sim.run_until(20);
  EXPECT_THROW(line.push(15, {}), std::logic_error);
  EXPECT_NO_THROW(line.push(20, {}));
  sim.run_until_idle();
  EXPECT_EQ(sim.events_processed(), 2u);
}

// A seeded random workload on several event lines.  The eager twin runs
// the same workload with every entry scheduled by Simulator::at() at push
// time; the lines must reproduce its pop order exactly.  Times sit on a
// coarse grid so ties are common, and every firing may push more entries
// onto any line (its own included) and schedule plain events.
class LineWorkload {
 public:
  static constexpr std::size_t kLines = 4;
  static constexpr SimTime kGrid = 100;
  static constexpr std::uint64_t kMaxLabels = 4000;

  LineWorkload(bool eager, std::uint64_t seed) : eager_(eager), rng_(seed) {
    for (std::size_t i = 0; i < kLines; ++i)
      lines_.push_back(std::make_unique<EventLine<Fire>>(sim_));
  }

  void run() {
    for (int i = 0; i < 60; ++i) {
      const SimTime t = kGrid * rng_.uniform_int(0, 8);
      if (rng_.uniform01() < 0.8)
        push(pick_line(), t);
      else
        plain(t);
    }
    sim_.run_until_idle();
  }

  const std::vector<std::pair<SimTime, std::uint64_t>>& log() const { return log_; }
  const Simulator& sim() const { return sim_; }

 private:
  struct Fire {
    LineWorkload* w = nullptr;
    std::uint64_t label = 0;
    void operator()() const { w->fired(label); }
  };

  std::size_t pick_line() {
    return static_cast<std::size_t>(rng_.uniform_int(0, kLines - 1));
  }
  SimTime later() { return sim_.now() + kGrid * rng_.uniform_int(0, 3); }

  void push(std::size_t line, SimTime t) {
    t = std::max(t, last_[line]);  // a line's times never decrease
    last_[line] = t;
    const Fire f{this, next_label_++};
    if (eager_)
      sim_.at(t, f);
    else
      lines_[line]->push(t, f);
  }

  void plain(SimTime t) { sim_.at(t, Fire{this, next_label_++}); }

  void fired(std::uint64_t label) {
    log_.emplace_back(sim_.now(), label);
    if (next_label_ >= kMaxLabels) return;
    for (auto n = rng_.uniform_int(0, 2); n > 0; --n) push(pick_line(), later());
    if (rng_.uniform01() < 0.3) plain(later());
  }

  bool eager_;
  abw::stats::Rng rng_;
  Simulator sim_;
  std::vector<std::unique_ptr<EventLine<Fire>>> lines_;
  SimTime last_[kLines] = {};
  std::uint64_t next_label_ = 0;
  std::vector<std::pair<SimTime, std::uint64_t>> log_;
};

TEST(EventLine, MatchesEagerSchedulingOnRandomWorkloads) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    LineWorkload lines(false, seed), eager(true, seed);
    lines.run();
    eager.run();
    ASSERT_EQ(lines.log(), eager.log()) << "seed " << seed;
    EXPECT_EQ(lines.sim().events_processed(), eager.sim().events_processed());
    EXPECT_GE(lines.log().size(), LineWorkload::kMaxLabels)
        << "seed " << seed << ": the workload died out early";
    std::size_t ties = 0;
    for (std::size_t i = 1; i < lines.log().size(); ++i)
      ties += lines.log()[i].first == lines.log()[i - 1].first;
    EXPECT_GT(ties, lines.log().size() / 2) << "seed " << seed;
    EXPECT_LT(lines.sim().peak_event_count(), eager.sim().peak_event_count());
  }
}

// ------------------------------------------------------------- meter ---

TEST(UtilizationMeter, ExactWindowQueries) {
  UtilizationMeter m(100e6);
  m.add_busy(0, 100);
  m.add_busy(200, 300);
  EXPECT_EQ(m.busy_time(0, 300), 200);
  EXPECT_EQ(m.busy_time(50, 250), 100);   // half of each interval
  EXPECT_EQ(m.busy_time(100, 200), 0);    // the idle gap
  EXPECT_EQ(m.busy_time(250, 1000), 50);
  EXPECT_DOUBLE_EQ(m.utilization(0, 400), 0.5);
  EXPECT_DOUBLE_EQ(m.avail_bw(0, 400), 50e6);
}

TEST(UtilizationMeter, CoalescesBackToBack) {
  UtilizationMeter m(1e6);
  m.add_busy(0, 10);
  m.add_busy(10, 20);  // adjacent: must merge
  EXPECT_EQ(m.interval_count(), 1u);
  EXPECT_EQ(m.busy_time(0, 20), 20);
}

TEST(UtilizationMeter, RejectsOverlapsAndEmpty) {
  UtilizationMeter m(1e6);
  m.add_busy(0, 10);
  EXPECT_THROW(m.add_busy(5, 15), std::logic_error);
  EXPECT_THROW(m.add_busy(20, 20), std::invalid_argument);
  EXPECT_THROW(UtilizationMeter(0.0), std::invalid_argument);
}

TEST(UtilizationMeter, SeriesCoversWindows) {
  UtilizationMeter m(10e6);
  m.add_busy(0, 500);
  auto series = m.avail_bw_series(0, 1000, 250);
  ASSERT_EQ(series.size(), 4u);
  EXPECT_DOUBLE_EQ(series[0], 0.0);      // fully busy
  EXPECT_DOUBLE_EQ(series[3], 10e6);     // fully idle
}

TEST(UtilizationMeter, MeasurementAttributionSeparatesLoads) {
  UtilizationMeter m(10e6);
  m.add_busy(0, 100, /*measurement=*/false);   // cross
  m.add_busy(100, 200, /*measurement=*/true);  // probe (not coalesced)
  m.add_busy(300, 400, /*measurement=*/true);
  EXPECT_EQ(m.interval_count(), 3u);  // attribution change blocks merging
  EXPECT_EQ(m.busy_time(0, 400), 300);
  EXPECT_EQ(m.measurement_busy_time(0, 400), 200);
  // Cross-only utilization: 100 ns busy over 400 ns => A = 0.75 * C.
  EXPECT_DOUBLE_EQ(m.cross_avail_bw(0, 400), 7.5e6);
  // Partial window over a measurement edge interval.
  EXPECT_EQ(m.measurement_busy_time(150, 350), 100);
}

TEST(UtilizationMeter, SameAttributionStillCoalesces) {
  UtilizationMeter m(1e6);
  m.add_busy(0, 10, true);
  m.add_busy(10, 20, true);
  EXPECT_EQ(m.interval_count(), 1u);
  EXPECT_EQ(m.measurement_busy_time(0, 20), 20);
}

TEST(UtilizationMeter, EmptyMeterIsIdle) {
  UtilizationMeter m(5e6);
  EXPECT_DOUBLE_EQ(m.avail_bw(0, 100), 5e6);
}

// Brute-force reference for the prefix-sum window queries: intersect the
// window with every recorded interval directly (equivalent to summing a
// per-nanosecond indicator).  The meter's binary-search + edge-trimming
// fast path must agree exactly on EVERY window, in particular windows that
// partially cover measurement and non-measurement edge intervals and
// windows that fall fully inside one busy interval.
struct RefInterval {
  SimTime start, end;
  bool meas;
};

SimTime ref_busy(const std::vector<RefInterval>& iv, SimTime t1, SimTime t2,
                 bool meas_only) {
  SimTime total = 0;
  for (const auto& i : iv) {
    if (meas_only && !i.meas) continue;
    SimTime lo = std::max(i.start, t1);
    SimTime hi = std::min(i.end, t2);
    if (hi > lo) total += hi - lo;
  }
  return total;
}

TEST(UtilizationMeter, WindowTrimmingMatchesBruteForceExhaustively) {
  // Mixed attribution, an idle gap, and adjacent intervals whose
  // attribution flips (so they stay separate): 5 stored intervals in
  // [2, 28) with edges at every flavor of partial coverage reachable.
  const std::vector<RefInterval> iv = {
      {2, 6, false}, {6, 9, true}, {12, 18, false}, {18, 20, true},
      {24, 28, false}};
  UtilizationMeter m(1e6);
  for (const auto& i : iv) m.add_busy(i.start, i.end, i.meas);
  ASSERT_EQ(m.interval_count(), iv.size());

  for (SimTime t1 = 0; t1 <= 30; ++t1) {
    for (SimTime t2 = t1 + 1; t2 <= 30; ++t2) {
      EXPECT_EQ(m.busy_time(t1, t2), ref_busy(iv, t1, t2, false))
          << "busy_time window [" << t1 << ", " << t2 << ")";
      EXPECT_EQ(m.measurement_busy_time(t1, t2), ref_busy(iv, t1, t2, true))
          << "measurement_busy_time window [" << t1 << ", " << t2 << ")";
      SimTime cross = ref_busy(iv, t1, t2, false) - ref_busy(iv, t1, t2, true);
      double u = static_cast<double>(cross) / static_cast<double>(t2 - t1);
      EXPECT_DOUBLE_EQ(m.cross_avail_bw(t1, t2), 1e6 * (1.0 - u))
          << "cross_avail_bw window [" << t1 << ", " << t2 << ")";
    }
  }
}

// Randomized version of the exhaustive check above: hundreds of intervals
// with random lengths/gaps/attribution, thousands of random windows.  The
// fixed seed keeps it deterministic; the scale exercises prefix-sum
// cancellation and two-pointer paths far beyond the hand-built cases.
TEST(UtilizationMeter, RandomizedQueriesMatchBruteForceReference) {
  abw::stats::Rng rng(0xab5eed);
  UtilizationMeter m(1e8);
  std::vector<RefInterval> iv;
  SimTime t = 0;
  for (int i = 0; i < 400; ++i) {
    t += 1 + static_cast<SimTime>(rng.uniform(0.0, 300.0));
    SimTime len = 1 + static_cast<SimTime>(rng.uniform(0.0, 200.0));
    bool meas = rng.bernoulli(0.3);
    m.add_busy(t, t + len, meas);
    iv.push_back({t, t + len, meas});
    t += len;
  }
  const double horizon = static_cast<double>(t);
  for (int q = 0; q < 3000; ++q) {
    SimTime t1 = static_cast<SimTime>(rng.uniform(0.0, horizon));
    SimTime t2 = t1 + 1 + static_cast<SimTime>(rng.uniform(0.0, horizon / 4));
    SimTime busy = ref_busy(iv, t1, t2, false);
    SimTime meas = ref_busy(iv, t1, t2, true);
    ASSERT_EQ(m.busy_time(t1, t2), busy)
        << "busy_time window [" << t1 << ", " << t2 << ")";
    ASSERT_EQ(m.measurement_busy_time(t1, t2), meas)
        << "measurement_busy_time window [" << t1 << ", " << t2 << ")";
    double span = static_cast<double>(t2 - t1);
    double cross_u = static_cast<double>(busy - meas) / span;
    ASSERT_DOUBLE_EQ(m.cross_avail_bw(t1, t2), 1e8 * (1.0 - cross_u))
        << "cross_avail_bw window [" << t1 << ", " << t2 << ")";
  }
}

// The monotone two-pointer series sweep must produce bit-identical doubles
// to issuing one prefix-sum query per window (which the randomized test
// above ties to the brute-force reference).
TEST(UtilizationMeter, SeriesSweepMatchesPerWindowQueries) {
  abw::stats::Rng rng(0x5e71e5);
  UtilizationMeter m(1e8);
  SimTime t = 0;
  for (int i = 0; i < 400; ++i) {
    t += 1 + static_cast<SimTime>(rng.uniform(0.0, 300.0));
    SimTime len = 1 + static_cast<SimTime>(rng.uniform(0.0, 200.0));
    m.add_busy(t, t + len, rng.bernoulli(0.3));
    t += len;
  }
  for (SimTime tau : {37, 250, 4001}) {
    for (bool cross : {false, true}) {
      auto series = m.avail_bw_series(0, t, tau, cross);
      ASSERT_EQ(series.size(), static_cast<std::size_t>(t / tau));
      for (std::size_t k = 0; k < series.size(); ++k) {
        SimTime w1 = static_cast<SimTime>(k) * tau, w2 = w1 + tau;
        double expect = cross ? m.cross_avail_bw(w1, w2) : m.avail_bw(w1, w2);
        ASSERT_DOUBLE_EQ(series[k], expect)
            << "tau=" << tau << " cross=" << cross << " window " << k;
      }
    }
  }
}

// ref_busy over a sorted, disjoint reference: starts at the first
// interval ending after t1 and stops at the first starting at/after t2.
SimTime ref_busy_sorted(const std::vector<RefInterval>& iv, SimTime t1,
                        SimTime t2, bool meas_only) {
  auto it = std::partition_point(iv.begin(), iv.end(),
                                 [t1](const RefInterval& i) { return i.end <= t1; });
  SimTime total = 0;
  for (; it != iv.end() && it->start < t2; ++it)
    if (!meas_only || it->meas) total += std::min(it->end, t2) - std::max(it->start, t1);
  return total;
}

// The span logs at scale: thousands of appends, so both logs fill several
// 4 KiB blocks and many 32-span groups.  Mixed attribution with
// back-to-back runs (coalescing), amend_last_end() after either
// attribution, and a reserve() mid-sequence.  Windows include ones whose
// edges sit exactly on a group or block boundary of either log.
TEST(UtilizationMeter, SpanLogsMatchReferenceAtScale) {
  constexpr double kCap = 1e8;
  abw::stats::Rng rng(0x5ca1e);
  UtilizationMeter m(kCap);
  std::vector<RefInterval> ref;  // coalesced, as the meter counts them
  std::size_t amends[2] = {0, 0};
  SimTime t = 0;
  for (int i = 0; i < 6000; ++i) {
    if (i == 2500) m.reserve(4000);
    if (!rng.bernoulli(0.35)) t += 1 + static_cast<SimTime>(rng.uniform(0.0, 300.0));
    const SimTime len = 1 + static_cast<SimTime>(rng.uniform(0.0, 200.0));
    const bool meas = rng.bernoulli(0.4);
    m.add_busy(t, t + len, meas);
    if (!ref.empty() && ref.back().end == t && ref.back().meas == meas)
      ref.back().end = t + len;
    else
      ref.push_back({t, t + len, meas});
    t += len;
    if (i % 97 == 96) {  // a capacity re-plan moves the last end
      RefInterval& last = ref.back();
      t = last.start + 1 +
          static_cast<SimTime>(rng.uniform(0.0, 2.0 * static_cast<double>(last.end - last.start)));
      m.amend_last_end(t);
      last.end = t;
      ++amends[last.meas];
    }
    if (i % 500 == 0) {
      ASSERT_EQ(m.interval_count(), ref.size()) << "append " << i;
    }
  }
  ASSERT_EQ(m.interval_count(), ref.size());
  ASSERT_GT(ref.size(), 4000u) << "too much coalescing to fill the logs";
  ASSERT_LT(ref.size(), 5900u) << "too little coalescing to test it";
  ASSERT_GT(amends[0], 0u);
  ASSERT_GT(amends[1], 0u);

  auto check = [&](SimTime t1, SimTime t2) {
    const SimTime busy = ref_busy_sorted(ref, t1, t2, false);
    const SimTime meas = ref_busy_sorted(ref, t1, t2, true);
    EXPECT_EQ(m.busy_time(t1, t2), busy) << "window [" << t1 << ", " << t2 << ")";
    EXPECT_EQ(m.measurement_busy_time(t1, t2), meas)
        << "window [" << t1 << ", " << t2 << ")";
    const double u = static_cast<double>(busy - meas) / static_cast<double>(t2 - t1);
    EXPECT_DOUBLE_EQ(m.cross_avail_bw(t1, t2), kCap * (1.0 - u))
        << "window [" << t1 << ", " << t2 << ")";
  };

  // Group and block boundaries of each log: spans g-1 and g for every
  // multiple g of 32 (each eighth one also starts a 256-span block).
  std::vector<RefInterval> logs[2];
  for (const RefInterval& i : ref) logs[i.meas].push_back(i);
  for (const auto& log : logs) {
    ASSERT_GT(log.size(), 3 * 256u) << "a log spans too few blocks";
    for (std::size_t g = 32; g < log.size(); g += 32) {
      for (SimTime e : {log[g - 1].start, log[g - 1].end, log[g].start, log[g].end}) {
        for (SimTime d : {1, 250, 9000}) {
          check(e, e + d);
          check(e - d, e);
        }
      }
      check(log[g - 32].start, log[g].start);  // exactly one group
      check(log[g - 1].end, log[g].start);     // the gap between groups
      if (g % 256 == 0) check(log[g - 256].start, log[g - 1].end);  // one block
    }
  }
  for (int q = 0; q < 1000; ++q) {
    const SimTime t1 = static_cast<SimTime>(rng.uniform(0.0, static_cast<double>(t)));
    check(t1, t1 + 1 + static_cast<SimTime>(rng.uniform(0.0, static_cast<double>(t) / 4)));
  }

  for (SimTime tau : {997, 4096, 25000}) {
    for (SimTime t0 : {SimTime{0}, logs[0][256].start, logs[1][512].end}) {
      for (bool cross : {false, true}) {
        auto series = m.avail_bw_series(t0, t, tau, cross);
        ASSERT_EQ(series.size(), static_cast<std::size_t>((t - t0) / tau));
        for (std::size_t k = 0; k < series.size(); ++k) {
          const SimTime w1 = t0 + static_cast<SimTime>(k) * tau;
          SimTime counted = ref_busy_sorted(ref, w1, w1 + tau, false);
          if (cross) counted -= ref_busy_sorted(ref, w1, w1 + tau, true);
          const double u = static_cast<double>(counted) / static_cast<double>(tau);
          ASSERT_DOUBLE_EQ(series[k], kCap * (1.0 - u))
              << "tau=" << tau << " t0=" << t0 << " cross=" << cross << " window " << k;
        }
      }
    }
  }
}

TEST(UtilizationMeter, WindowFullyInsideOneBusyInterval) {
  UtilizationMeter m(8e6);
  m.add_busy(100, 200, /*measurement=*/false);
  m.add_busy(300, 400, /*measurement=*/true);
  // Both edges of the window trim the SAME stored interval.
  EXPECT_EQ(m.busy_time(130, 170), 40);
  EXPECT_DOUBLE_EQ(m.utilization(130, 170), 1.0);
  EXPECT_DOUBLE_EQ(m.avail_bw(130, 170), 0.0);
  EXPECT_EQ(m.measurement_busy_time(130, 170), 0);
  EXPECT_DOUBLE_EQ(m.cross_avail_bw(130, 170), 0.0);
  // Same, inside the measurement interval: cross avail-bw is full capacity.
  EXPECT_EQ(m.busy_time(320, 380), 60);
  EXPECT_EQ(m.measurement_busy_time(320, 380), 60);
  EXPECT_DOUBLE_EQ(m.cross_avail_bw(320, 380), 8e6);
}

TEST(UtilizationMeter, WindowStraddlingMixedAttributionEdges) {
  UtilizationMeter m(2e6);
  m.add_busy(0, 10, /*measurement=*/true);    // meas edge, partially covered
  m.add_busy(10, 20, /*measurement=*/false);  // cross middle
  m.add_busy(20, 30, /*measurement=*/true);   // meas edge, partially covered
  // Window [5, 25): 5 of each meas edge + all 10 cross.
  EXPECT_EQ(m.busy_time(5, 25), 20);
  EXPECT_EQ(m.measurement_busy_time(5, 25), 10);
  EXPECT_DOUBLE_EQ(m.cross_avail_bw(5, 25), 2e6 * (1.0 - 10.0 / 20.0));
  // Window whose edges land exactly on attribution flips (no trimming).
  EXPECT_EQ(m.busy_time(10, 20), 10);
  EXPECT_EQ(m.measurement_busy_time(10, 20), 0);
  // Window covering only idle time after the last interval.
  EXPECT_EQ(m.busy_time(30, 40), 0);
  EXPECT_EQ(m.measurement_busy_time(30, 40), 0);
}

// --------------------------------------------------------------- link ---

struct Collector final : PacketHandler {
  std::vector<Packet> got;
  Simulator* sim = nullptr;
  std::vector<SimTime> at;
  void handle(Packet pkt) override {
    got.push_back(pkt);
    if (sim) at.push_back(sim->now());
  }
};

TEST(Link, ServiceTimeAndPropagation) {
  Simulator sim;
  LinkConfig cfg;
  cfg.capacity_bps = 10e6;            // 1000 B -> 800 us
  cfg.propagation_delay = kMillisecond;
  Link link(sim, "l", cfg);
  Collector sink;
  sink.sim = &sim;
  link.set_next(&sink);

  Packet p;
  p.size_bytes = 1000;
  sim.at(0, [&] { link.handle(p); });
  sim.run_until_idle();
  ASSERT_EQ(sink.got.size(), 1u);
  EXPECT_EQ(sink.at[0], from_micros(800) + kMillisecond);
}

TEST(Link, FifoOrderPreserved) {
  Simulator sim;
  LinkConfig cfg;
  cfg.capacity_bps = 10e6;
  Link link(sim, "l", cfg);
  Collector sink;
  link.set_next(&sink);
  for (std::uint32_t i = 0; i < 10; ++i) {
    Packet p;
    p.seq = i;
    p.size_bytes = 500;
    sim.at(0, [&link, p] { link.handle(p); });
  }
  sim.run_until_idle();
  ASSERT_EQ(sink.got.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(sink.got[i].seq, i);
}

TEST(Link, BackToBackSerialization) {
  // Two packets arriving together leave exactly one transmission apart.
  Simulator sim;
  LinkConfig cfg;
  cfg.capacity_bps = 50e6;
  Link link(sim, "l", cfg);
  Collector sink;
  sink.sim = &sim;
  link.set_next(&sink);
  for (int i = 0; i < 2; ++i) {
    Packet p;
    p.size_bytes = 1500;
    sim.at(0, [&link, p] { link.handle(p); });
  }
  sim.run_until_idle();
  ASSERT_EQ(sink.at.size(), 2u);
  EXPECT_EQ(sink.at[1] - sink.at[0], transmission_time(1500, 50e6));
}

TEST(Link, DropTailOnQueueLimit) {
  Simulator sim;
  LinkConfig cfg;
  cfg.capacity_bps = 1e6;
  cfg.queue_limit_bytes = 3000;  // room for two 1500 B packets
  Link link(sim, "l", cfg);
  Collector sink;
  link.set_next(&sink);
  for (int i = 0; i < 5; ++i) {
    Packet p;
    p.size_bytes = 1500;
    sim.at(0, [&link, p] { link.handle(p); });
  }
  sim.run_until_idle();
  EXPECT_EQ(link.stats().packets_dropped, 3u);
  EXPECT_EQ(sink.got.size(), 2u);
  EXPECT_EQ(link.stats().packets_in, 5u);
  EXPECT_EQ(link.stats().packets_out, 2u);
}

TEST(Link, MeterMatchesTransmissions) {
  Simulator sim;
  LinkConfig cfg;
  cfg.capacity_bps = 8e6;  // 1000 B = 1 ms
  Link link(sim, "l", cfg);
  Collector sink;
  link.set_next(&sink);
  for (int i = 0; i < 4; ++i) {
    Packet p;
    p.size_bytes = 1000;
    sim.at(i * 2 * kMillisecond, [&link, p] { link.handle(p); });
  }
  sim.run_until_idle();
  // 4 ms busy within the 8 ms span -> utilization 0.5.
  EXPECT_DOUBLE_EQ(link.meter().utilization(0, 8 * kMillisecond), 0.5);
  EXPECT_DOUBLE_EQ(link.meter().avail_bw(0, 8 * kMillisecond), 4e6);
}

TEST(Link, ArrivalTapSeesEveryArrival) {
  Simulator sim;
  LinkConfig cfg;
  cfg.capacity_bps = 1e6;
  cfg.queue_limit_bytes = 1500;  // second packet will drop
  Link link(sim, "l", cfg);
  Collector sink;
  link.set_next(&sink);
  int taps = 0;
  link.set_arrival_tap([&](const Packet&, SimTime) { ++taps; });
  for (int i = 0; i < 2; ++i) {
    Packet p;
    p.size_bytes = 1500;
    sim.at(0, [&link, p] { link.handle(p); });
  }
  sim.run_until_idle();
  EXPECT_EQ(taps, 2);  // tap fires before the drop decision
  EXPECT_EQ(link.stats().packets_dropped, 1u);
}

TEST(Link, RejectsBadConfig) {
  Simulator sim;
  LinkConfig bad;
  bad.capacity_bps = 0.0;
  EXPECT_THROW(Link(sim, "x", bad), std::invalid_argument);
  // NaN compares false against 0, so only a check written as !(c > 0)
  // rejects it (abwprobe --capacity=nan reaches this constructor).
  bad.capacity_bps = std::nan("");
  EXPECT_THROW(Link(sim, "x", bad), std::invalid_argument);
  EXPECT_THROW(UtilizationMeter(std::nan("")), std::invalid_argument);
  UtilizationMeter meter(1e6);
  EXPECT_THROW(meter.set_capacity(0, std::nan("")), std::invalid_argument);
  Link ok(sim, "y", LinkConfig{});
  EXPECT_THROW(ok.set_capacity(std::nan("")), std::invalid_argument);
  FaultInjector faults(sim);
  EXPECT_THROW(faults.set_capacity_at(ok, 10, std::nan("")),
               std::invalid_argument);
}

// --------------------------------------------------------------- path ---

TEST(Path, EndToEndTraversesAllHops) {
  Simulator sim;
  LinkConfig cfg;
  cfg.capacity_bps = 10e6;
  Path path(sim, {cfg, cfg, cfg});
  Collector sink;
  path.set_receiver(&sink);
  Packet p;
  p.size_bytes = 1000;
  p.exit_hop = kEndToEnd;
  sim.at(0, [&] { path.inject(0, p); });
  sim.run_until_idle();
  ASSERT_EQ(sink.got.size(), 1u);
  EXPECT_EQ(path.link(0).stats().packets_out, 1u);
  EXPECT_EQ(path.link(2).stats().packets_out, 1u);
}

TEST(Path, OneHopCrossExitsEarly) {
  Simulator sim;
  LinkConfig cfg;
  cfg.capacity_bps = 10e6;
  Path path(sim, {cfg, cfg, cfg});
  Collector sink;
  path.set_receiver(&sink);
  Packet p;
  p.size_bytes = 1000;
  p.exit_hop = 1;  // enters hop 1, leaves after hop 1
  sim.at(0, [&] { path.inject(1, p); });
  sim.run_until_idle();
  EXPECT_EQ(sink.got.size(), 0u);
  EXPECT_EQ(path.cross_sink().packets(), 1u);
  EXPECT_EQ(path.link(1).stats().packets_out, 1u);
  EXPECT_EQ(path.link(2).stats().packets_in, 0u);
}

TEST(Path, AvailBwIsMinimumOverLinks) {
  Simulator sim;
  LinkConfig fast, slow;
  fast.capacity_bps = 100e6;
  slow.capacity_bps = 10e6;
  Path path(sim, {fast, slow});
  Collector sink;
  path.set_receiver(&sink);
  // Idle path: avail-bw = min capacity.
  EXPECT_DOUBLE_EQ(path.avail_bw(0, kSecond), 10e6);
  EXPECT_EQ(path.tight_link(0, kSecond), 1u);
  EXPECT_DOUBLE_EQ(path.narrow_capacity(), 10e6);
}

TEST(Path, BaseOwdSumsHops) {
  Simulator sim;
  LinkConfig cfg;
  cfg.capacity_bps = 10e6;
  cfg.propagation_delay = kMillisecond;
  Path path(sim, {cfg, cfg});
  EXPECT_EQ(path.base_owd(1000),
            2 * (transmission_time(1000, 10e6) + kMillisecond));
}

TEST(Path, RejectsEmptyAndOutOfRange) {
  Simulator sim;
  EXPECT_THROW(Path(sim, {}), std::invalid_argument);
  LinkConfig cfg;
  Path path(sim, {cfg});
  Packet p;
  EXPECT_THROW(path.inject(3, p), std::out_of_range);
}

// -------------------------------------------------------------- demux ---

TEST(TypeDemux, RoutesByType) {
  TypeDemux demux;
  Collector probes, tcp;
  demux.register_handler(PacketType::kProbe, &probes);
  demux.register_handler(PacketType::kTcpData, &tcp);
  Packet p;
  p.type = PacketType::kProbe;
  demux.handle(p);
  p.type = PacketType::kTcpData;
  demux.handle(p);
  p.type = PacketType::kCross;  // unregistered -> fallback
  demux.handle(p);
  EXPECT_EQ(probes.got.size(), 1u);
  EXPECT_EQ(tcp.got.size(), 1u);
  EXPECT_EQ(demux.fallback().packets(), 1u);
}

}  // namespace
