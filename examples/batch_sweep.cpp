// Batch experiment runner demo: a response-curve sweep where every rate
// point is an independent replication (fresh Simulator/Scenario/Rng),
// executed across a thread pool.
//
//   ./batch_sweep             # hardware_concurrency() threads
//   ./batch_sweep --jobs 4    # explicit thread count
//   ABW_JOBS=2 ./batch_sweep  # via environment
//
// The BatchRunner aggregates in submission order, so the printed curve is
// bit-identical no matter how many threads run it — this program verifies
// that on the spot by re-running the sweep serially and diffing.
#include <bit>
#include <cstdio>
#include <iostream>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "runner/batch.hpp"
#include "runner/cli.hpp"

int main(int argc, char** argv) {
  using namespace abw;
  std::size_t jobs = runner::jobs_from_cli(argc, argv);
  core::print_header(std::cout, "Parallel batch sweep demo",
                     "replication-level parallelism, deterministic output");
  std::printf("sweeping 8 rate points x 40 streams on %zu thread(s)\n\n", jobs);

  core::RatioCurveConfig rc;
  for (double r = 10e6; r <= 45e6 + 1; r += 5e6) rc.rates_bps.push_back(r);
  rc.streams_per_rate = 40;
  auto make = [](std::uint64_t seed) {
    core::SingleHopConfig cfg;
    cfg.model = core::CrossModel::kPoisson;
    cfg.seed = 500 + seed;
    return core::Scenario::single_hop(cfg);
  };

  double par_s = 0.0, ser_s = 0.0;
  double t0 = runner::monotonic_seconds();
  auto parallel = core::measure_ratio_curve_fresh(make, rc, jobs);
  par_s = runner::monotonic_seconds() - t0;
  t0 = runner::monotonic_seconds();
  auto serial = core::measure_ratio_curve_fresh(make, rc, 1);
  ser_s = runner::monotonic_seconds() - t0;

  core::Table table({"Ri (Mbps)", "mean Ro/Ri", "stddev", "streams"});
  for (const auto& p : parallel) {
    char r[16], m[16], s[16];
    std::snprintf(r, sizeof r, "%.1f", p.rate_bps / 1e6);
    std::snprintf(m, sizeof m, "%.4f", p.mean_ratio);
    std::snprintf(s, sizeof s, "%.4f", p.std_ratio);
    table.row({r, m, s, std::to_string(p.streams)});
  }
  table.print(std::cout);

  bool identical = parallel.size() == serial.size();
  for (std::size_t i = 0; identical && i < parallel.size(); ++i)
    identical = std::bit_cast<std::uint64_t>(parallel[i].mean_ratio) ==
                    std::bit_cast<std::uint64_t>(serial[i].mean_ratio) &&
                std::bit_cast<std::uint64_t>(parallel[i].std_ratio) ==
                    std::bit_cast<std::uint64_t>(serial[i].std_ratio) &&
                parallel[i].streams == serial[i].streams;

  std::printf("\nserial %.2f s, parallel(%zu) %.2f s, speedup %.2fx\n",
              ser_s, jobs, par_s, par_s > 0 ? ser_s / par_s : 0.0);
  std::printf("parallel output %s the serial output\n",
              identical ? "is bit-identical to" : "DIFFERS from");
  return identical ? 0 : 1;
}
