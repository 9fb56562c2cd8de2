// Ablation — Ro/Ri threshold fragility.
//
// The paper: "One may think that the burstiness can be taken into account
// by using certain thresholds; for instance, to say that Ri > A if
// Ro/Ri < 0.96.  These thresholds, however, depend strongly on the
// measured path and on the cross traffic burstiness."
//
// We sweep the threshold and, for each cross-traffic model, measure the
// classification accuracy of "Ri > A iff Ro/Ri < threshold" over streams
// probed at rates straddling the avail-bw.  The best threshold shifts
// with the traffic model — no single value works everywhere.
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/report.hpp"
#include "core/scenario.hpp"

using namespace abw;

namespace {

struct Sample {
  double ratio;
  bool truly_above;  // Ri > A
};

std::vector<Sample> collect(core::CrossModel model, std::uint64_t seed) {
  core::SingleHopConfig cfg;
  cfg.model = model;
  cfg.seed = seed;
  auto sc = core::Scenario::single_hop(cfg);
  std::vector<Sample> out;
  for (double ri = 15e6; ri <= 35e6 + 1; ri += 2.5e6) {
    for (int s = 0; s < 60; ++s) {
      auto res = sc.transport().send_stream(
          probe::StreamSpec::periodic(ri, 1500, 100));
      if (!res.complete()) continue;
      out.push_back({res.rate_ratio(), ri > sc.nominal_avail_bw()});
    }
  }
  return out;
}

double accuracy(const std::vector<Sample>& samples, double threshold) {
  std::size_t right = 0;
  for (const auto& s : samples)
    if ((s.ratio < threshold) == s.truly_above) ++right;
  return static_cast<double>(right) / static_cast<double>(samples.size());
}

}  // namespace

int main() {
  core::print_header(std::cout, "Ablation: Ro/Ri detection thresholds",
                     "Jain & Dovrolis IMC'04, burstiness pitfall discussion");
  std::printf("workload: single hop Ct=50, A=25 Mbps; 60 streams per rate, "
              "rates 15-35 Mbps;\nclassifier: 'Ri > A iff Ro/Ri < threshold'\n\n");

  auto cbr = collect(core::CrossModel::kCbr, 11);
  auto poisson = collect(core::CrossModel::kPoisson, 12);
  auto pareto = collect(core::CrossModel::kParetoOnOff, 13);

  core::Table table({"threshold", "CBR accuracy", "Poisson accuracy",
                     "Pareto accuracy"});
  double best_cbr = 0, best_cbr_t = 0, best_par = 0, best_par_t = 0;
  for (double t = 0.90; t <= 1.004; t += 0.01) {
    double a1 = accuracy(cbr, t), a2 = accuracy(poisson, t), a3 = accuracy(pareto, t);
    char ts[16];
    std::snprintf(ts, sizeof ts, "%.2f", t);
    table.row({ts, core::pct(a1), core::pct(a2), core::pct(a3)});
    if (a1 > best_cbr) { best_cbr = a1; best_cbr_t = t; }
    if (a3 > best_par) { best_par = a3; best_par_t = t; }
  }
  table.print(std::cout);

  std::printf("\nbest threshold: CBR %.2f (%.1f%%), Pareto ON-OFF %.2f (%.1f%%)\n",
              best_cbr_t, best_cbr * 100, best_par_t, best_par * 100);
  const bool match = core::print_check(
      std::cout,
      "thresholds depend strongly on the path and the cross-traffic "
      "burstiness — a fixed 0.96-style threshold is not robust",
      "the accuracy-maximizing threshold differs across traffic models "
      "and/or bursty accuracy stays well below fluid accuracy",
      best_cbr_t != best_par_t || best_par < best_cbr - 0.05);
  return match ? 0 : 1;
}
