// Randomized robustness stress: every registry tool measuring a path
// whose capacity flaps and whose loss is bursty, over responsive (TCP)
// cross traffic, across a seeded sweep of impairment parameters.  The
// contract under test is the PR's headline guarantee: with hard
// EstimatorLimits installed, no tool crashes, hangs, or throws — each
// cell of the sweep terminates with a valid estimate or a structured
// abort, and no exception escapes BatchRunner::map_cells.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "est/estimator.hpp"
#include "probe/session.hpp"
#include "runner/batch.hpp"
#include "sim/fault.hpp"
#include "sim/link.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "stats/rng.hpp"
#include "tcp/flows.hpp"
#include "tcp/tcp.hpp"

namespace {

using namespace abw;
using sim::kMillisecond;
using sim::kSecond;

constexpr double kCapacity = 50e6;

struct CellOutcome {
  bool valid = false;
  est::AbortReason abort = est::AbortReason::kNone;
  bool point_is_nan_when_invalid = true;
  std::uint64_t tcp_acked_bytes = 0;
};

// One stress cell: a single-hop path carrying persistent + short TCP
// cross traffic, Gilbert-Elliott loss and two capacity flaps derived
// from the cell seed, measured end-to-end by `tool` under hard limits.
CellOutcome run_cell(const std::string& tool, std::uint64_t seed) {
  sim::Simulator simu;
  sim::LinkConfig lc;
  lc.capacity_bps = kCapacity;
  lc.propagation_delay = 2 * kMillisecond;
  lc.queue_limit_bytes = 256 * 1500;
  sim::Path path(simu, {lc});
  probe::ProbeSession session(simu, path);
  session.set_drain_timeout(500 * kMillisecond);

  tcp::TcpReceiverHub hub;
  session.demux().register_handler(sim::PacketType::kTcpData, &hub);

  stats::Rng rng(seed);

  // Responsive cross traffic: a few window-limited persistent transfers
  // plus an aggregate of short flows.
  tcp::TcpConfig tc;
  tc.receiver_window = 24;
  tcp::PersistentFlowSet persistent(simu, path, hub, /*first_flow_id=*/1,
                                    /*count=*/4, tc);
  persistent.start(0, kSecond, rng);
  tcp::ShortFlowConfig sfc;
  sfc.flow_arrival_rate = 10.0;
  tcp::ShortFlowGenerator shorts(simu, path, hub, /*first_flow_id=*/100, sfc,
                                 rng.fork());
  shorts.start(0, 120 * kSecond);

  // Seed-derived impairments: 5-20% stationary bursty loss and two 10x
  // flaps that land inside the measurement window.
  sim::LinkFaults faults;
  faults.gilbert.p_good_bad = 0.002 + 0.002 * static_cast<double>(seed % 5);
  faults.gilbert.p_bad_good = 0.04;
  faults.seed = seed;
  path.link(0).set_faults(faults);

  sim::FaultInjector inj(simu);
  sim::SimTime flap1 = 3 * kSecond + static_cast<sim::SimTime>(seed % 7) *
                                         (kSecond / 2);
  inj.flap(path.link(0), flap1, 2 * kSecond, kCapacity / 10.0);
  inj.flap(path.link(0), flap1 + 8 * kSecond, kSecond, kCapacity / 5.0);

  simu.run_until(2 * kSecond);  // warmup: let TCP ramp up

  core::ToolOptions opt;
  opt.tight_capacity_bps = kCapacity;
  opt.min_rate_bps = 1e6;
  opt.max_rate_bps = kCapacity;
  opt.limits.max_probe_packets = 20000;
  opt.limits.deadline = 45 * kSecond;
  auto est = core::make_estimator(tool, opt, rng);

  est::Estimate e = est->estimate(session);

  CellOutcome out;
  out.valid = e.valid;
  out.abort = e.abort;
  if (!e.valid) out.point_is_nan_when_invalid = std::isnan(e.point_bps());
  // Aggregate TCP progress: individual flows may stall completely under a
  // long bad-state burst (each loss draw advances the chain per *packet*,
  // so a stalled flow's sparse retransmits keep meeting the bad state) —
  // but the population as a whole must have moved payload.
  for (std::size_t i = 0; i < persistent.size(); ++i)
    out.tcp_acked_bytes += persistent.flow(i).acked_bytes();
  out.tcp_acked_bytes += shorts.total_acked_bytes();
  return out;
}

TEST(FaultStress, SweepTerminatesWithoutEscapedExceptions) {
  const std::vector<std::string> tools = core::available_tools();
  const std::size_t seeds_per_tool = 3;
  const std::size_t cells = tools.size() * seeds_per_tool;

  runner::BatchRunner pool(4);
  auto results = pool.map_cells_seeded(
      cells, /*base_seed=*/20260806,
      [&](std::size_t i, std::uint64_t seed) {
        return run_cell(tools[i / seeds_per_tool], seed);
      });

  ASSERT_EQ(results.size(), cells);
  std::size_t valid = 0, aborted = 0, plain_invalid = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::string& tool = tools[i / seeds_per_tool];
    // The headline guarantee: the cell completed — nothing threw, nothing
    // hung (the ctest timeout backstops the latter).
    ASSERT_TRUE(results[i].ok) << tool << " cell " << i << " threw: "
                               << results[i].error;
    const CellOutcome& o = results[i].value;
    EXPECT_TRUE(o.point_is_nan_when_invalid) << tool << " cell " << i;
    if (o.valid)
      ++valid;
    else if (o.abort != est::AbortReason::kNone)
      ++aborted;
    else
      ++plain_invalid;
    // The cross traffic was real: TCP moved payload through the faulty
    // link in every cell.
    EXPECT_GT(o.tcp_acked_bytes, 0u) << tool << " cell " << i;
  }
  // Every cell is accounted for as one of the three graceful outcomes,
  // and the sweep did not degenerate to all-abort: graceful degradation,
  // not blanket refusal.
  EXPECT_EQ(valid + aborted + plain_invalid, cells);
  EXPECT_GT(valid, 0u);
}

}  // namespace
