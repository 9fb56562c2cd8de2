// Network-wide mesh estimation demo: resolve every source->sink pair of
// an ISP-like parking-lot topology while directly probing only a
// sublinear subset, inferring the rest through shared bottlenecks
// (est/mesh.hpp over core/mesh_scenario.hpp).
//
//   ./mesh_estimation [sources] [sinks] [hops] [probe_fraction]
//
// The demo prints the greedy-cover probe set, then a per-pair table of
// estimate vs simulated ground truth (paper Eq. 3 per-link minimum)
// marking each pair measured or inferred, and closes with the headline
// numbers: probed fraction, median inferred error, and the probe-cost
// amortization vs measuring all pairs directly.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/mesh_scenario.hpp"
#include "est/mesh.hpp"
#include "runner/batch.hpp"
#include "runner/cli.hpp"

using namespace abw;

int main(int argc, char** argv) {
  core::ParkingLotMeshConfig pc;
  pc.sources = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 6;
  pc.sinks = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 6;
  pc.backbone_hops = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 6;
  const double fraction = argc > 4 ? std::strtod(argv[4], nullptr) : 0.30;
  pc.backbone_capacity_bps = 50e6;
  pc.access_capacity_bps = 200e6;
  pc.util_min = 0.50;
  pc.util_max = 0.60;
  pc.mode = sim::SimMode::kHybrid;
  pc.model = core::CrossModel::kPoisson;
  pc.warmup = sim::kSecond;
  pc.seed = 42;
  core::MeshConfig mc = core::parking_lot_mesh(pc);
  mc.topology.auto_route_all(mc.pairs);
  const std::size_t pairs = mc.pairs.size();

  std::printf("mesh: %zu sources x %zu sinks over a %zu-hop backbone "
              "(%zu pairs, %zu edges)\n",
              pc.sources, pc.sinks, pc.backbone_hops, pairs,
              mc.topology.edge_count());

  // Ground truth: one reference mesh run with every background source
  // active, averaged over a 4 s steady-state window.
  core::MeshScenario reference(mc);
  const sim::SimTime t1 = mc.warmup;
  const sim::SimTime t2 = t1 + 4 * sim::kSecond;
  reference.run_until(t2);
  const std::vector<double> truth = reference.ground_truth_matrix(t1, t2);

  const core::MeshProbeConfig probe;  // iterative trend search per pair
  const est::MeshMeasureFn measure = core::make_mesh_measure_fn(mc, probe);
  est::MeshEstimatorConfig ecfg;
  ecfg.max_probe_fraction = fraction;
  est::MeshEstimator est(est::make_path_specs(mc.topology, mc.pairs), ecfg);
  runner::BatchRunner pool(0);

  double w0 = runner::monotonic_seconds();
  const est::MeshReport report = est.estimate(pool, measure);
  const double mesh_s = runner::monotonic_seconds() - w0;

  std::printf("probe set (greedy route cover, %zu of %zu pairs):",
              report.probed.size(), pairs);
  for (std::size_t p : report.probed) std::printf(" %zu", p);
  std::printf("\n\n%-6s %-9s %12s %12s %8s %6s\n", "pair", "kind",
              "estimate", "truth", "err", "conf");

  std::vector<double> inferred_err;
  for (std::size_t p = 0; p < pairs; ++p) {
    const est::MeshPairEstimate& e = report.pairs[p];
    const double err = (e.valid && truth[p] > 0.0)
                           ? (e.estimate_bps - truth[p]) / truth[p]
                           : std::nan("");
    if (!e.measured && e.valid && truth[p] > 0.0)
      inferred_err.push_back(std::abs(err));
    std::printf("%-6zu %-9s %9.2f Mb %9.2f Mb %+7.1f%% %6.2f\n", p,
                e.measured ? "measured" : "inferred", e.estimate_bps / 1e6,
                truth[p] / 1e6, 100.0 * err, e.confidence);
  }

  // The amortization headline: what measuring every pair directly costs
  // on the same worker pool with the same per-pair budget.
  w0 = runner::monotonic_seconds();
  pool.map(pairs, [&](std::size_t p) {
    return measure(p, runner::derive_seed(ecfg.base_seed, p));
  });
  const double all_s = runner::monotonic_seconds() - w0;

  std::sort(inferred_err.begin(), inferred_err.end());
  const double median = inferred_err.empty()
                            ? 0.0
                            : inferred_err[inferred_err.size() / 2];
  std::printf("\nprobed %zu/%zu pairs (%.1f%%), median inferred error "
              "%.1f%%\nmesh %.2f s vs probe-all %.2f s: %.1fx "
              "amortization\n",
              report.probed.size(), pairs, 100.0 * report.probed_fraction(),
              100.0 * median, mesh_s, all_s, all_s / mesh_s);
  return 0;
}
