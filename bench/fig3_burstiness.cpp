// Figure 3 — "Effect of cross traffic burstiness."
//
// Paper setup: single hop, Ct = 50 Mb/s, mean avail-bw 25 Mb/s; measure
// the average Ro/Ri over 500 probing streams as a function of Ri for
// three cross-traffic models: CBR (periodic), Poisson, Pareto ON-OFF
// (OFF shape 1.5, ON 1-10 packets).
//
// Expected shape: with CBR the ratio stays ~1 until Ri crosses A = 25 and
// only then drops (fluid behaviour); with Poisson and even more with
// Pareto ON-OFF, Ro/Ri < 1 well BEFORE Ri reaches the avail-bw —
// burstiness causes underestimation in rate-based detection.
#include <cstdio>
#include <iostream>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "runner/cli.hpp"

int main(int argc, char** argv) {
  using namespace abw;
  core::print_header(std::cout, "Figure 3: effect of cross-traffic burstiness",
                     "Jain & Dovrolis IMC'04, Fig. 3");
  std::size_t jobs = runner::jobs_from_cli(argc, argv);
  std::printf("workload: single hop, Ct=50 Mbps, A=25 Mbps, 500 streams of "
              "100 x 1500B packets per point, %zu thread(s)\n\n", jobs);

  std::vector<double> rates;
  for (double r = 5e6; r <= 30e6 + 1; r += 2.5e6) rates.push_back(r);

  const core::CrossModel models[] = {core::CrossModel::kCbr,
                                     core::CrossModel::kPoisson,
                                     core::CrossModel::kParetoOnOff};

  std::vector<std::vector<core::RatioPoint>> curves;
  for (int mi = 0; mi < 3; ++mi) {
    core::RatioCurveConfig rc;
    rc.rates_bps = rates;
    rc.streams_per_rate = 500;
    // Fresh scenario per rate point: 500 long streams at low rates would
    // otherwise outlive one scenario's cross-traffic horizon.  Rate points
    // run in parallel on `jobs` threads; the curve is identical for any
    // thread count.
    curves.push_back(core::measure_ratio_curve_fresh(
        [&](std::uint64_t seed) {
          core::SingleHopConfig cfg;
          cfg.model = models[mi];
          cfg.seed = 300 + 37 * static_cast<std::uint64_t>(mi) + seed;
          return core::Scenario::single_hop(cfg);
        },
        rc, jobs));
  }

  core::Table table({"Ri (Mbps)", "CBR", "Poisson", "Pareto ON-OFF"});
  for (std::size_t i = 0; i < rates.size(); ++i) {
    char r[16], c0[16], c1[16], c2[16];
    std::snprintf(r, sizeof r, "%.1f", rates[i] / 1e6);
    std::snprintf(c0, sizeof c0, "%.4f", curves[0][i].mean_ratio);
    std::snprintf(c1, sizeof c1, "%.4f", curves[1][i].mean_ratio);
    std::snprintf(c2, sizeof c2, "%.4f", curves[2][i].mean_ratio);
    table.row({r, c0, c1, c2});
  }
  table.print(std::cout);
  std::printf("(avail-bw A = 25 Mbps: rows above 25 are below the avail-bw)\n");

  // Evaluate the claims at Ri = 20 Mb/s (below A) and the shape at A.
  std::size_t i20 = 6;  // 5 + 6*2.5 = 20 Mb/s
  double cbr20 = curves[0][i20].mean_ratio;
  double poi20 = curves[1][i20].mean_ratio;
  double par20 = curves[2][i20].mean_ratio;

  const bool match = core::print_check(
      std::cout,
      "with CBR the ratio drops below 1 only after Ri > A; with Poisson "
      "and Pareto ON-OFF, Ro/Ri < 1 well before the avail-bw point, and "
      "Pareto is the most depressed",
      "at Ri=20<A: CBR " + std::to_string(cbr20) + ", Poisson " +
          std::to_string(poi20) + ", Pareto " + std::to_string(par20),
      cbr20 > 0.998 && poi20 < 0.999 && par20 < poi20 + 0.002);

  std::printf("\nimplication: Ro/Ri thresholds are path- and burstiness-"
              "dependent\n(see bench/ablate_threshold for the sweep).\n");
  return match ? 0 : 1;
}
