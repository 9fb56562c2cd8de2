// Network-wide mesh estimation micro-benchmark: resolving a 256-pair
// path mesh by probing a sublinear subset and inferring the rest through
// shared bottlenecks (est/mesh.hpp over core/mesh_scenario.hpp).
//
// Topology: the ISP-like parking lot — 16 sources x 16 sinks over an
// 8-link backbone with per-link utilization rising 0.50 -> 0.60 along the
// chain, so different pairs bottleneck at different links and routes
// overlap heavily (the regime where shared-bottleneck inference pays).
//
// Writes BENCH_mesh.json (google-benchmark JSON shape so
// bench/check_regression.py gates it unchanged against
// bench/BENCH_mesh.baseline.json via the `mesh_check` / `bench_check`
// targets).  Rows:
//
//   MESH_probe_all
//       items_per_second = pairs resolved per wall second when every pair
//       is directly measured (the baseline a per-path tool pays).
//   MESH_resolve
//       items_per_second = pairs resolved per wall second by the mesh
//       estimator (greedy-cover probe subset + inference).
//   MESH_amortization
//       items_per_second = probe_all_s / mesh_s — the sublinear win
//       itself, gated as a ratio so it survives absolute-throughput
//       drift.  Must be >= 2x (hard-checked here, not just gated).
//   MESH_probe_economy
//       items_per_second = pairs / directly-probed pairs.  Deterministic
//       (greedy selection over a fixed route table).
//   MESH_inferred_accuracy
//       items_per_second = 1 - median relative error of the INFERRED
//       pairs against the simulated ground-truth matrix.  Deterministic
//       (seeded simulation end to end).
//
// Hard acceptance checks (exit 1 on violation): probed fraction <= 30%,
// median inferred error <= 20%, amortization >= 2x.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/mesh_scenario.hpp"
#include "est/mesh.hpp"
#include "runner/batch.hpp"
#include "runner/cli.hpp"

namespace {

using namespace abw;

core::MeshConfig bench_mesh() {
  core::ParkingLotMeshConfig pc;
  pc.backbone_hops = 8;
  pc.sources = 16;
  pc.sinks = 16;  // 256 pairs
  pc.backbone_capacity_bps = 50e6;
  pc.access_capacity_bps = 200e6;
  pc.util_min = 0.50;
  pc.util_max = 0.60;
  pc.mode = sim::SimMode::kHybrid;  // off-route edges stay fluid
  pc.model = core::CrossModel::kPoisson;
  pc.warmup = sim::kSecond;
  pc.seed = 42;
  core::MeshConfig mc = core::parking_lot_mesh(pc);
  mc.topology.auto_route_all(mc.pairs);
  return mc;
}

struct TimedRun {
  double seconds = 0.0;
  std::uint64_t check = 0;  // digest of the result: must match across reps
};

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

template <typename Fn>
TimedRun min_of_reps(Fn&& run, int reps = 3) {
  TimedRun best = run();
  for (int i = 1; i < reps; ++i) {
    TimedRun r = run();
    if (r.check != best.check)
      std::fprintf(stderr, "micro_mesh: WARNING: nondeterministic result "
                           "across repetitions\n");
    if (r.seconds < best.seconds) best = r;
  }
  return best;
}

struct Row {
  const char* name;
  double items_per_second;
  double real_s;
};

}  // namespace

int main() {
  const core::MeshConfig mc = bench_mesh();
  const std::size_t pairs = mc.pairs.size();
  // 6-iteration binary rate search, majority-of-3 fleets, 100 ms streams.
  const core::MeshProbeConfig probe;
  const est::MeshMeasureFn measure = core::make_mesh_measure_fn(mc, probe);
  const est::MeshEstimatorConfig ecfg{.max_probe_fraction = 0.30,
                                      .base_seed = 1};
  est::MeshEstimator est(est::make_path_specs(mc.topology, mc.pairs), ecfg);

  // Ground truth: the reference mesh's per-pair Eq. 3 matrix over a 4 s
  // steady-state window (measurement replicas run under derived seeds; at
  // these loads the window-average utilization is seed-stable to ~1%).
  core::MeshScenario reference(mc);
  const sim::SimTime t1 = mc.warmup;
  const sim::SimTime t2 = t1 + 4 * sim::kSecond;
  reference.run_until(t2);
  const std::vector<double> truth = reference.ground_truth_matrix(t1, t2);

  // Baseline: measure EVERY pair directly, same per-pair budget, same
  // per-pair seeds, fanned across the same BatchRunner.
  runner::BatchRunner pool(0);
  const TimedRun all = min_of_reps([&] {
    TimedRun r;
    const double w0 = runner::monotonic_seconds();
    std::vector<est::MeshMeasurement> m = pool.map(pairs, [&](std::size_t p) {
      return measure(p, runner::derive_seed(ecfg.base_seed, p));
    });
    r.seconds = runner::monotonic_seconds() - w0;
    for (const auto& x : m) {
      r.check = fnv(r.check, x.valid ? 1 : 0);
      r.check = fnv(r.check, std::bit_cast<std::uint64_t>(x.avail_bps));
    }
    return r;
  });

  // The mesh estimator: probe subset + shared-bottleneck inference.
  est::MeshReport report;
  const TimedRun mesh = min_of_reps([&] {
    TimedRun r;
    const double w0 = runner::monotonic_seconds();
    report = est.estimate(pool, measure);
    r.seconds = runner::monotonic_seconds() - w0;
    for (const auto& e : report.pairs)
      r.check = fnv(r.check, std::bit_cast<std::uint64_t>(e.estimate_bps));
    return r;
  });

  const double fraction = report.probed_fraction();
  std::vector<double> errors;
  for (std::size_t p = 0; p < pairs; ++p) {
    if (report.pairs[p].measured) continue;
    if (!report.pairs[p].valid || truth[p] <= 0.0) {
      errors.push_back(1.0);  // an unresolvable pair counts as total error
      continue;
    }
    errors.push_back(std::abs(report.pairs[p].estimate_bps - truth[p]) /
                     truth[p]);
  }
  std::sort(errors.begin(), errors.end());
  const double median_err =
      errors.empty() ? 1.0 : errors[errors.size() / 2];
  const double amortization = all.seconds / mesh.seconds;

  const Row rows[] = {
      {"MESH_probe_all", static_cast<double>(pairs) / all.seconds,
       all.seconds},
      {"MESH_resolve", static_cast<double>(pairs) / mesh.seconds,
       mesh.seconds},
      {"MESH_amortization", amortization, mesh.seconds},
      {"MESH_probe_economy",
       static_cast<double>(pairs) /
           static_cast<double>(report.probed.size()),
       mesh.seconds},
      {"MESH_inferred_accuracy", 1.0 - median_err, mesh.seconds},
  };
  constexpr std::size_t kRows = sizeof(rows) / sizeof(rows[0]);

  std::FILE* f = std::fopen("BENCH_mesh.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_mesh: cannot write BENCH_mesh.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"context\": {\"note\": \"amortization/economy/"
                  "accuracy rows carry ratios in items_per_second; "
                  "probe_all/resolve carry pairs per wall second\"},\n"
                  "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < kRows; ++i) {
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"run_type\": \"iteration\", "
        "\"iterations\": 1, \"real_time\": %.6e, \"cpu_time\": %.6e, "
        "\"time_unit\": \"ns\", \"items_per_second\": %.6f}%s\n",
        rows[i].name, rows[i].real_s * 1e9, rows[i].real_s * 1e9,
        rows[i].items_per_second, i + 1 < kRows ? "," : "");
    std::printf("%-24s %12.3f items/s  (%.4f s)\n", rows[i].name,
                rows[i].items_per_second, rows[i].real_s);
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);

  std::printf("mesh: %zu pairs, %zu probed (%.1f%%), median inferred error "
              "%.1f%%, amortization %.1fx\n",
              pairs, report.probed.size(), 100.0 * fraction,
              100.0 * median_err, amortization);

  int rc = 0;
  if (fraction > 0.30) {
    std::fprintf(stderr, "micro_mesh: FAIL probed fraction %.3f > 0.30\n",
                 fraction);
    rc = 1;
  }
  if (median_err > 0.20) {
    std::fprintf(stderr, "micro_mesh: FAIL median inferred error %.3f > "
                         "0.20\n",
                 median_err);
    rc = 1;
  }
  if (amortization < 2.0) {
    std::fprintf(stderr, "micro_mesh: FAIL amortization %.2fx < 2x\n",
                 amortization);
    rc = 1;
  }
  return rc;
}
