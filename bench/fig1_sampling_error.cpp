// Figure 1 — "Relative error of the sample mean m_A for three averaging
// time scales."
//
// Paper setup: an NLANR OC-3 packet trace; repeatedly collect k = 20
// avail-bw samples with Poisson sampling, compute the sample mean, and
// plot the CDF of the relative error epsilon = (m_A - A) / A for
// tau in {1 ms, 10 ms, 100 ms}.
//
// Our substitute for the proprietary trace is the synthetic self-similar
// OC-3 trace (DESIGN.md).  Expected shape: the CDF widens dramatically as
// tau shrinks — at tau = 1 ms, 20 samples leave errors of +-10-20%; at
// 100 ms the CDF is tight around 0.
#include <cstdio>
#include <iostream>

#include "core/report.hpp"
#include "runner/batch.hpp"
#include "runner/cli.hpp"
#include "stats/cdf.hpp"
#include "stats/moments.hpp"
#include "trace/availbw_process.hpp"
#include "trace/synthetic_trace.hpp"

int main(int argc, char** argv) {
  using namespace abw;
  core::print_header(std::cout, "Figure 1: sampling error of the avail-bw sample mean",
                     "Jain & Dovrolis IMC'04, Fig. 1");
  std::size_t jobs = runner::jobs_from_cli(argc, argv);

  stats::Rng rng(1);
  trace::SyntheticTraceConfig tc;
  tc.duration = 30 * sim::kSecond;
  std::printf("workload: synthetic self-similar OC-3 trace (NLANR substitute), "
              "%.0f s, util %.0f%%, H=%.2f\n",
              sim::to_seconds(tc.duration), tc.mean_utilization * 100, tc.hurst);
  trace::PacketTrace tr = trace::synthesize_selfsimilar_trace(tc, rng);
  trace::AvailBwProcess proc(tr);
  double mean_a = proc.mean_avail_bw();
  std::printf("trace mean avail-bw A = %s\n\n", core::mbps(mean_a).c_str());

  constexpr std::size_t kSamples = 20;   // k = 20, as in the paper
  constexpr int kRepeats = 400;          // sample-mean realizations per CDF

  const double taus_ms[] = {1.0, 10.0, 100.0};

  // One task per (tau, repetition): each task draws its k samples with its
  // own Rng derived from a fixed base seed, so the 1200-realization grid is
  // embarrassingly parallel and bit-identical for every thread count.  The
  // trace index (`proc`) is shared read-only across tasks.
  constexpr std::uint64_t kSampleSeed = 20040101;
  const std::size_t grid = 3 * static_cast<std::size_t>(kRepeats);
  auto flat_errors = runner::BatchRunner(jobs).map(grid, [&](std::size_t i) {
    double tau_ms = taus_ms[i / kRepeats];
    stats::Rng task_rng(runner::derive_seed(kSampleSeed, i));
    auto samples =
        proc.poisson_samples(kSamples, sim::from_millis(tau_ms), task_rng);
    return stats::relative_error(stats::mean(samples), mean_a);
  });

  std::vector<stats::EmpiricalCdf> cdfs;
  std::vector<double> spread;
  for (std::size_t ti = 0; ti < 3; ++ti) {
    std::vector<double> errors(flat_errors.begin() + ti * kRepeats,
                               flat_errors.begin() + (ti + 1) * kRepeats);
    spread.push_back(stats::stddev(errors));
    cdfs.emplace_back(std::move(errors));
  }

  // Print the CDFs the way the paper plots them: P[eps <= x] per tau.
  core::Table table({"epsilon", "tau=1ms", "tau=10ms", "tau=100ms"});
  for (double x = -0.20; x <= 0.201; x += 0.04) {
    char xs[16];
    std::snprintf(xs, sizeof xs, "%+.2f", x);
    table.row({xs, core::pct(cdfs[0].at(x)), core::pct(cdfs[1].at(x)),
               core::pct(cdfs[2].at(x))});
  }
  table.print(std::cout);

  std::printf("\nsample-mean error spread (stddev of epsilon): "
              "1ms %.1f%%  10ms %.1f%%  100ms %.1f%%\n",
              spread[0] * 100, spread[1] * 100, spread[2] * 100);

  const bool match = core::print_check(
      std::cout,
      "unless tau is 10ms or more, significant errors should be expected "
      "with 20 samples; at 1ms errors are large",
      "error spread grows monotonically as tau shrinks, and the 1ms CDF is "
      "several times wider than the 100ms CDF",
      spread[0] > spread[1] && spread[1] > spread[2] && spread[0] > 3 * spread[2]);
  return match ? 0 : 1;
}
