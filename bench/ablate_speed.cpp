// Ablation — "Faster estimation is better" (the paper's third
// misconception), quantified.
//
// Two knobs trade measurement latency/overhead against accuracy:
//   * the number of streams k (Eq. 11: Var[m_A] = Var[A_tau]/k), and
//   * the stream duration (shorter streams = shorter averaging time
//     scale tau = larger population variance, compounding the first).
//
// For direct probing on a bursty single hop we sweep both and report the
// measurement latency next to the estimate spread: the "fast" corner is
// the noisy corner, with fully quantified exchange rates.
#include <cstdio>
#include <iostream>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "stats/moments.hpp"

using namespace abw;

namespace {

struct Cell {
  double spread_rel = 0.0;   // stddev of repeated estimates / A
  double latency_s = 0.0;    // sim time consumed per estimate
};

Cell measure(std::size_t streams, sim::SimTime duration, std::uint64_t seed) {
  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kPoisson;
  cfg.seed = seed;
  auto sc = core::Scenario::single_hop(cfg);

  stats::RunningStats estimates;
  stats::RunningStats latencies;
  for (int rep = 0; rep < 15; ++rep) {
    sim::SimTime t0 = sc.simulator().now();
    auto samples = core::collect_direct_samples(sc, cfg.capacity_bps, 40e6,
                                                duration, 1500, streams,
                                                10 * sim::kMillisecond);
    latencies.add(sim::to_seconds(sc.simulator().now() - t0));
    if (!samples.empty()) estimates.add(stats::mean(samples));
  }
  return {estimates.stddev() / sc.nominal_avail_bw(), latencies.mean()};
}

}  // namespace

int main() {
  core::print_header(std::cout,
                     "Ablation: estimation latency vs accuracy",
                     "Jain & Dovrolis IMC'04, third misconception");
  std::printf("workload: single hop Ct=50, Poisson cross, A=25 Mbps; direct "
              "probing at Ri=40;\nspread of repeated estimates (15 "
              "repetitions per cell) vs measurement latency\n\n");

  const std::size_t stream_counts[] = {3, 10, 30};
  const double durations_ms[] = {20, 60, 180};

  core::Table table({"streams k", "stream duration", "latency", "estimate spread"});
  double fast_corner = 0, slow_corner = 0;
  for (std::size_t k : stream_counts) {
    for (double d : durations_ms) {
      Cell c = measure(k, sim::from_millis(d), 900 + k * 7 +
                                                   static_cast<std::uint64_t>(d));
      char dur[16], lat[16];
      std::snprintf(dur, sizeof dur, "%.0f ms", d);
      std::snprintf(lat, sizeof lat, "%.2f s", c.latency_s);
      table.row({std::to_string(k), dur, lat, core::pct(c.spread_rel)});
      if (k == stream_counts[0] && d == durations_ms[0]) fast_corner = c.spread_rel;
      if (k == stream_counts[2] && d == durations_ms[2]) slow_corner = c.spread_rel;
    }
  }
  table.print(std::cout);

  const bool match = core::print_check(
      std::cout,
      "using fewer or shorter streams reduces the estimation latency with "
      "a penalty in accuracy; duration and stream count are knobs, not "
      "implementation details",
      "the fastest configuration's estimate spread (" +
          core::pct(fast_corner) + ") is several times the slowest's (" +
          core::pct(slow_corner) + ")",
      fast_corner > 2.0 * slow_corner);
  std::printf("\nimplication: tool comparisons must hold the latency/overhead "
              "budget fixed\n(see bench/tool_comparison's packets and latency "
              "columns).\n");
  return match ? 0 : 1;
}
