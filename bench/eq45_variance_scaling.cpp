// Definitions-section demonstration — Eqs. (4) and (5): how Var[A_tau]
// decays with the averaging time scale for short-range vs long-range
// dependent traffic.
//
//   IID / short-range (Eq. 4):  Var[A_{k tau}] = Var[A_tau] / k
//   self-similar      (Eq. 5):  Var[A_{k tau}] = Var[A_tau] / k^{2(1-H)}
//
// We compute the variance-time plot of the avail-bw process for Poisson
// cross traffic (short-range) and for the synthetic self-similar OC-3
// trace, fit the decay exponents, and compare against the two laws.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "core/report.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "stats/moments.hpp"
#include "stats/regression.hpp"
#include "trace/availbw_process.hpp"
#include "trace/synthetic_trace.hpp"
#include "traffic/poisson.hpp"

using namespace abw;

namespace {

// Decay exponent beta of Var[A_tau] ~ tau^-beta via log-log regression.
double decay_exponent(const trace::AvailBwProcess& proc,
                      const std::vector<double>& taus_ms,
                      std::vector<double>* variances) {
  std::vector<double> lx, ly;
  for (double tau_ms : taus_ms) {
    double v = stats::variance(proc.series(sim::from_millis(tau_ms)));
    variances->push_back(v);
    lx.push_back(std::log(tau_ms));
    ly.push_back(std::log(v));
  }
  return -stats::linear_fit(lx, ly).slope;
}

}  // namespace

int main() {
  core::print_header(std::cout, "Eqs. 4-5: variance decay of A_tau with the time scale",
                     "Jain & Dovrolis IMC'04, definitions section");

  // Time scales start at 4 ms: below that, per-window packetization noise
  // (a pure 1/tau component) contaminates the rate-process scaling law.
  const std::vector<double> taus_ms = {4, 8, 16, 32, 64, 128};

  // Short-range dependent: Poisson cross traffic on a simulated link.
  sim::Simulator simu;
  sim::LinkConfig lc;
  lc.capacity_bps = 50e6;
  lc.queue_limit_bytes = 64 << 20;
  sim::Path path(simu, {lc});
  sim::CountingSink sink;
  path.set_receiver(&sink);
  trace::LinkTraceRecorder rec(path.link(0));
  traffic::PoissonGenerator gen(simu, path, 0, false, 1, stats::Rng(3), 25e6,
                                traffic::SizeDistribution::fixed(1500));
  gen.start(0, 60 * sim::kSecond);
  simu.run_until(60 * sim::kSecond);
  trace::AvailBwProcess poisson_proc(rec.trace());

  // Long-range dependent: the synthetic self-similar OC-3 trace (H=0.8).
  stats::Rng rng(4);
  trace::SyntheticTraceConfig tc;
  tc.duration = 60 * sim::kSecond;
  trace::PacketTrace lrd_trace = trace::synthesize_selfsimilar_trace(tc, rng);
  trace::AvailBwProcess lrd_proc(lrd_trace);

  std::vector<double> var_poisson, var_lrd;
  double beta_poisson = decay_exponent(poisson_proc, taus_ms, &var_poisson);
  double beta_lrd = decay_exponent(lrd_proc, taus_ms, &var_lrd);

  core::Table table({"tau", "Var (Poisson) Mbps^2", "Var (self-similar) Mbps^2"});
  for (std::size_t i = 0; i < taus_ms.size(); ++i) {
    char t[16], v1[24], v2[24];
    std::snprintf(t, sizeof t, "%.0f ms", taus_ms[i]);
    std::snprintf(v1, sizeof v1, "%.2f", var_poisson[i] / 1e12);
    std::snprintf(v2, sizeof v2, "%.2f", var_lrd[i] / 1e12);
    table.row({t, v1, v2});
  }
  table.print(std::cout);

  double predicted_lrd = 2.0 * (1.0 - tc.hurst);  // Eq. 5 with H = 0.8 => 0.4
  std::printf("\nfitted decay exponents (Var ~ tau^-beta):\n"
              "  Poisson:      beta = %.2f   (Eq. 4 predicts 1.00)\n"
              "  self-similar: beta = %.2f   (Eq. 5 with H=%.2f predicts %.2f)\n",
              beta_poisson, beta_lrd, tc.hurst, predicted_lrd);

  const bool match = core::print_check(
      std::cout,
      "for IID-like traffic the variance decays as 1/k; for self-similar "
      "traffic it decays as k^{-2(1-H)}, i.e. much slower",
      "Poisson exponent near 1, self-similar exponent near 2(1-H) and far "
      "below the Poisson one",
      std::abs(beta_poisson - 1.0) < 0.25 &&
          std::abs(beta_lrd - predicted_lrd) < 0.25 &&
          beta_lrd < beta_poisson - 0.3);
  std::printf("\nthis is why the averaging time scale must be reported with "
              "any avail-bw\nestimate (pitfalls 1-2), and why short-scale "
              "estimation needs many samples.\n");
  return match ? 0 : 1;
}
