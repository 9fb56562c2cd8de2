// Multi-bottleneck probing: build a 5-hop path where several links tie
// for the minimum avail-bw, locate the tight hop with BFind-style per-hop
// monitoring, and show the per-link vs end-to-end ground truth — the
// topology behind the paper's "multiple bottlenecks" pitfall (Fig. 4).
#include <cstdio>
#include <iostream>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "est/bfind.hpp"
#include "est/pathload.hpp"

int main() {
  using namespace abw;

  // 5 hops at 50 Mb/s; hops 0, 2, 4 each carry 25 Mb/s of one-hop
  // persistent Poisson cross traffic => three tight links with A = 25.
  core::MultiHopConfig cfg;
  cfg.hop_count = 5;
  cfg.loaded_hops = {0, 2, 4};
  cfg.seed = 7;
  auto sc = core::Scenario::multi_hop(cfg);

  sc.simulator().run_until(12 * sim::kSecond);
  sim::SimTime t0 = 2 * sim::kSecond, t1 = 12 * sim::kSecond;

  std::printf("5-hop path, one-hop persistent cross traffic on hops 0, 2, 4\n\n");
  core::Table links({"hop", "capacity", "utilization", "avail-bw"});
  for (std::size_t h = 0; h < sc.path().hop_count(); ++h) {
    const auto& m = sc.path().link(h).meter();
    links.row({std::to_string(h), core::mbps(sc.path().link(h).capacity_bps()),
               core::pct(m.utilization(t0, t1)), core::mbps(m.avail_bw(t0, t1))});
  }
  links.print(std::cout);
  std::printf("\nEnd-to-end avail-bw (Eq. 3, min over links): %s at tight hop %zu\n",
              core::mbps(sc.path().avail_bw(t0, t1)).c_str(),
              sc.path().tight_link(t0, t1));

  // Locate a tight hop with BFind's sender-side queue monitoring.
  est::BfindConfig bc;
  bc.initial_rate_bps = 10e6;
  bc.rate_step_bps = 5e6;
  bc.max_rate_bps = 60e6;
  bc.step_duration = 300 * sim::kMillisecond;
  est::Bfind bfind(bc);
  auto bf = bfind.estimate(sc.transport());
  if (bf.valid) {
    std::printf("\nBFind: first persistent queue growth at hop %u, rate %s\n",
                bfind.flagged_hop(), core::mbps(bf.point_bps()).c_str());
  } else {
    std::printf("\nBFind: %s\n", bf.detail.c_str());
  }

  // End-to-end estimation: pathload sees the combined effect of all three
  // tight links (expect mild underestimation — the paper's point).
  est::PathloadConfig pc;
  pc.min_rate_bps = 2e6;
  pc.max_rate_bps = 49e6;
  est::Pathload pl(pc);
  auto e = pl.estimate(sc.transport());
  if (e.valid) {
    std::printf("Pathload end-to-end: [%s, %s] vs per-link truth 25 Mbps\n",
                core::mbps(e.low_bps).c_str(), core::mbps(e.high_bps).c_str());
    std::printf("\nWith multiple tight links, probing streams interact with\n"
                "cross traffic at every loaded hop, so iterative probing\n"
                "tends to read LOW (the paper's seventh misconception).\n");
  } else {
    std::printf("Pathload failed: %s\n", e.detail.c_str());
  }
  return 0;
}
