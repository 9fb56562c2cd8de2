// Quickstart: measure the available bandwidth of a simulated path.
//
// Builds the paper's canonical single-hop scenario (50 Mb/s tight link,
// 25 Mb/s of Poisson cross traffic), runs Pathload over it, and compares
// the reported variation range against the simulator's exact ground
// truth.  This is the smallest end-to-end use of the library:
//
//   scenario -> session -> estimator -> estimate vs ground truth
#include <cstdio>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "est/pathload.hpp"

int main() {
  using namespace abw;

  // 1. A simulated path with known ground truth.
  core::SingleHopConfig cfg;
  cfg.capacity_bps = 50e6;      // tight link capacity Ct
  cfg.cross_rate_bps = 25e6;    // mean cross traffic => avail-bw A = 25 Mb/s
  cfg.model = core::CrossModel::kPoisson;
  cfg.seed = 1;
  core::Scenario scenario = core::Scenario::single_hop(cfg);

  std::printf("Path: 1 hop, Ct = %s, mean cross = %s  =>  A = %s\n",
              core::mbps(cfg.capacity_bps).c_str(),
              core::mbps(cfg.cross_rate_bps).c_str(),
              core::mbps(scenario.nominal_avail_bw()).c_str());

  // 2. Run an estimation tool over the path's probing session.
  est::PathloadConfig pl_cfg;
  pl_cfg.min_rate_bps = 2e6;
  pl_cfg.max_rate_bps = 49e6;
  est::Pathload pathload(pl_cfg);
  est::Estimate e = pathload.estimate(scenario.transport());

  if (!e.valid) {
    std::printf("estimation failed: %s\n", e.detail.c_str());
    return 1;
  }

  // 3. Compare with the exact ground truth over the measurement interval.
  sim::SimTime t0 = e.cost.first_send;
  sim::SimTime t1 = e.cost.last_activity;
  double truth = scenario.ground_truth(t0, t1);

  std::printf("\nPathload variation range : [%s, %s]\n",
              core::mbps(e.low_bps).c_str(), core::mbps(e.high_bps).c_str());
  std::printf("Ground-truth avail-bw    : %s (exact, from link busy periods)\n",
              core::mbps(truth).c_str());
  std::printf("Probing overhead         : %llu packets, %.1f s of measurement\n",
              static_cast<unsigned long long>(e.cost.packets),
              sim::to_seconds(e.cost.elapsed()));
  std::printf("\nNote: the range is the avail-bw VARIATION range at the\n"
              "stream-duration time scale — not a confidence interval (see\n"
              "the paper's ninth misconception).\n");
  return 0;
}
