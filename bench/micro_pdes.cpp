// Intra-simulation parallelism micro-benchmarks: domain-count scaling of
// the conservative parallel DES engine (sim/domain.hpp).  The SIMD fluid
// absorb kernel is benchmarked in micro_sim (BENCH_fluid.json).
//
// Writes BENCH_pdes.json (google-benchmark JSON shape so
// bench/check_regression.py gates it unchanged against
// bench/BENCH_pdes.baseline.json via the `pdes_check` / `bench_check`
// targets).  Rows:
//
//   PDES_domains_<N>t
//       items_per_second = simulated seconds per wall second of the
//       partitioned fig4-style scenario run with N worker threads.
//   PDES_parallel_speedup
//       items_per_second = 1-thread_s / best-multi-thread_s.  On a
//       single-core host this is ~1 or below (the committed baseline
//       records the honest number for its machine); on real multi-core
//       hardware it tracks the scaling win.
//   PDES_1k
//       items_per_second = hops per wall second for the pinned 1000-hop
//       16-domain configuration: partition planning, per-domain world
//       construction, and ONE lockstep lookahead window.  Pins the
//       at-scale setup cost so a super-linear regression in planning or
//       domain construction fails the gate before anyone runs a long
//       scenario on a wide topology.
//
// Every row is min-of-reps wall time (same noise remedy as micro_sim's
// fluid comparison); the scenario physics are deterministic across
// repetitions, which the scaling rows double-check by digesting handoff
// counts.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/parallel_scenario.hpp"
#include "runner/bench_report.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace abw;

// ---------------------------------------------------------------------------
// Domain-count scaling

struct ScaleRun {
  double seconds = 0.0;
  double sim_seconds = 0.0;
  std::uint64_t check = 0;  // handoffs: must match across thread counts
};

ScaleRun run_domains(std::size_t threads) {
  constexpr double kSimSeconds = 3.0;

  core::ParallelScenarioConfig cfg;
  cfg.hop_count = 8;
  cfg.capacity_bps = 50e6;
  cfg.cross_rate_bps = 30e6;
  cfg.model = core::CrossModel::kPoisson;
  cfg.propagation_delay = 5 * sim::kMillisecond;
  cfg.traffic_horizon = sim::from_seconds(kSimSeconds + 1.0);
  cfg.warmup = 100 * sim::kMillisecond;
  cfg.seed = 23;
  cfg.cuts = {1, 3, 5};  // 4 domains
  cfg.threads = threads;
  core::ParallelScenario sc(cfg);

  ScaleRun r;
  const sim::SimTime t0 = sc.now();
  const double w0 = runner::monotonic_seconds();
  // A probe stream per simulated second keeps cross-domain handoffs in
  // the measured region (and exercises the stop predicate), like a real
  // monitoring session would.
  for (int k = 0; k < 3; ++k) {
    sc.send_periodic_stream(25e6, 1500, 100, sim::kMillisecond);
    sc.run_until(t0 + sim::from_seconds(kSimSeconds * (k + 1) / 3.0));
  }
  r.seconds = runner::monotonic_seconds() - w0;
  r.sim_seconds = sim::to_seconds(sc.now() - t0);
  r.check = sc.parallel().handoffs();
  return r;
}

// The pinned at-scale configuration: 1000 hops, automatic 16-domain
// partition, hybrid mode (background load stays fluid, so the row times
// the engine — planning, construction, window protocol — not packet
// churn).  Measures plan + build + exactly one lookahead window.
ScaleRun run_1k() {
  core::ParallelScenarioConfig cfg;
  cfg.hop_count = 1000;
  cfg.capacity_bps = 50e6;
  cfg.cross_rate_bps = 30e6;
  cfg.mode = sim::SimMode::kHybrid;
  cfg.model = core::CrossModel::kPoisson;
  cfg.propagation_delay = 5 * sim::kMillisecond;
  cfg.traffic_horizon = sim::kSecond;
  cfg.warmup = 0;
  cfg.seed = 23;
  cfg.domains = 16;
  cfg.threads = 0;

  ScaleRun r;
  const double w0 = runner::monotonic_seconds();
  core::ParallelScenario sc(cfg);
  const sim::SimTime t0 = sc.now();
  sc.run_until(t0 + sc.parallel().lookahead());
  r.seconds = runner::monotonic_seconds() - w0;
  r.sim_seconds = sim::to_seconds(sc.now() - t0);
  // Rep-consistency check: the plan itself (cut positions + lookahead)
  // and the window count must not wobble across repetitions.
  r.check = sc.parallel().windows();
  r.check = r.check * 1009 + sc.parallel().domain_count();
  r.check = r.check * 1009 + static_cast<std::uint64_t>(sc.plan().lookahead);
  for (std::size_t end : sc.plan().domain_end) r.check = r.check * 1009 + end;
  return r;
}

template <typename Fn, typename Run>
Run min_of_reps(Fn&& run, Run first, int kReps = 5) {
  Run best = first;
  for (int i = 1; i < kReps; ++i) {
    Run r = run();
    if (r.check != best.check)
      std::fprintf(stderr, "micro_pdes: WARNING: nondeterministic check "
                           "value across repetitions (%llu vs %llu)\n",
                   static_cast<unsigned long long>(r.check),
                   static_cast<unsigned long long>(best.check));
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
  const std::size_t thread_counts[] = {1, 2, 4};
  ScaleRun scale[3];
  for (int i = 0; i < 3; ++i) {
    const std::size_t n = thread_counts[i];
    scale[i] = min_of_reps([n] { return run_domains(n); }, run_domains(n));
    if (scale[i].check != scale[0].check)
      std::fprintf(stderr, "micro_pdes: WARNING: %zu-thread run diverged "
                           "from serial (handoffs %llu vs %llu)\n",
                   n, static_cast<unsigned long long>(scale[i].check),
                   static_cast<unsigned long long>(scale[0].check));
  }
  double best_multi = scale[1].seconds < scale[2].seconds ? scale[1].seconds
                                                          : scale[2].seconds;

  ScaleRun wide = min_of_reps([] { return run_1k(); }, run_1k(), 3);

  const Row rows[] = {
      {"PDES_domains_1t", scale[0].sim_seconds / scale[0].seconds,
       scale[0].seconds},
      {"PDES_domains_2t", scale[1].sim_seconds / scale[1].seconds,
       scale[1].seconds},
      {"PDES_domains_4t", scale[2].sim_seconds / scale[2].seconds,
       scale[2].seconds},
      {"PDES_parallel_speedup", scale[0].seconds / best_multi, best_multi},
      {"PDES_1k", 1000.0 / wide.seconds, wide.seconds},
  };
  constexpr std::size_t kRows = sizeof(rows) / sizeof(rows[0]);

  std::FILE* f = std::fopen("BENCH_pdes.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_pdes: cannot write BENCH_pdes.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"context\": {\"note\": \"speedup rows carry the "
                  "ratio in items_per_second; domain rows carry simulated "
                  "seconds per wall second\"},\n  \"benchmarks\": [\n");
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
  return 0;
}
