// Figure 6 — "Variation range of an avail-bw sample path."
//
// Paper setup: the NLANR OC-3 trace; a passive avail-bw measurement every
// tau = 10 ms over 20 s.  The sample path varies, with significant
// probability, between ~60 and ~110 Mb/s; that band — NOT a confidence
// interval — is what iterative probing (Pathload) can estimate.
//
// We reproduce it on the synthetic self-similar OC-3 substitute, print
// the sample path, the passive variation range, and then actually RUN
// Pathload against the same traffic replayed through a simulated OC-3
// link, showing the probing-based range lands on the passive band.
#include <cstdio>
#include <iostream>
#include <memory>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "est/pathload.hpp"
#include "stats/moments.hpp"
#include "trace/availbw_process.hpp"
#include "trace/synthetic_trace.hpp"
#include "traffic/trace_replay.hpp"

int main() {
  using namespace abw;
  core::print_header(std::cout, "Figure 6: variation range of the avail-bw sample path",
                     "Jain & Dovrolis IMC'04, Fig. 6");

  stats::Rng rng(6);
  trace::SyntheticTraceConfig tc;
  tc.duration = 22 * sim::kSecond;
  std::printf("workload: synthetic self-similar OC-3 trace (NLANR substitute), "
              "tau = 10 ms, 20 s shown\n\n");
  trace::PacketTrace tr = trace::synthesize_selfsimilar_trace(tc, rng);
  trace::AvailBwProcess proc(tr);

  auto series = proc.series(10 * sim::kMillisecond);
  if (series.size() > 2000) series.resize(2000);
  std::printf("%s", core::ascii_plot(series, 14, 76).c_str());
  std::printf("  (y: avail-bw, bits/s; x: time over 20 s; one point per 10 ms)\n\n");

  auto [lo, hi] = proc.variation_range(10 * sim::kMillisecond, 0.05);
  std::printf("passive 5th-95th percentile variation range: [%s, %s]\n",
              core::mbps(lo).c_str(), core::mbps(hi).c_str());
  std::printf("mean avail-bw: %s\n\n", core::mbps(proc.mean_avail_bw()).c_str());

  // Replay the same trace through a simulated OC-3 link and let Pathload
  // estimate the variation range by probing.
  std::vector<sim::LinkConfig> links(1);
  links[0].capacity_bps = tc.capacity_bps;
  links[0].queue_limit_bytes = 8 << 20;
  auto sc = core::Scenario::custom(links, 66);
  sc.add_cross_source(
      std::make_unique<traffic::TraceGenerator>(sc.simulator(), sc.path(), 0,
                                                false, 1, tr.records()),
      0, false, 1, sim::SimMode::kPacket, 600 * sim::kSecond);
  sc.simulator().run_until(sim::kSecond);

  est::PathloadConfig pc;
  pc.min_rate_bps = 10e6;
  pc.max_rate_bps = 150e6;
  pc.resolution_bps = 4e6;
  est::Pathload pl(pc);
  auto e = pl.estimate(sc.transport());
  if (e.valid) {
    std::printf("Pathload (probing the replayed trace): [%s, %s]\n",
                core::mbps(e.low_bps).c_str(), core::mbps(e.high_bps).c_str());
  } else {
    std::printf("Pathload failed: %s\n", e.detail.c_str());
  }

  bool wide_band = (hi - lo) > 0.25 * proc.mean_avail_bw();
  bool overlap = e.valid && e.low_bps < hi && e.high_bps > lo;
  const bool match = core::print_check(
      std::cout,
      "at tau = 10 ms the avail-bw varies over a wide band (paper: "
      "~60-110 Mbps); iterative probing estimates that variation range, "
      "and the range must not be misread as a confidence interval",
      "passive band [" + core::mbps(lo) + ", " + core::mbps(hi) +
          "] is a large fraction of the mean, and the probing-based range "
          "overlaps it",
      wide_band && overlap);
  return match ? 0 : 1;
}
