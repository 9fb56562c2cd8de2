// mesh_parking_lot: micro_mesh's 256-pair parking lot resolved by
// MeshEstimator over a BatchRunner, repeated over topology seeds.  The
// only workload for core/mesh_scenario, est/mesh and runner parallelism.
#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <thread>

#include "est/mesh.hpp"
#include "runner/batch.hpp"
#include "timed.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace abw;

namespace {

constexpr double kMaxProbedFrac = 0.30;
constexpr double kMaxInferredErr = 0.20;
// Ground truth: the reference mesh's Eq. 3 matrix over a 4 s window
// after warm-up, as micro_mesh takes it.
constexpr sim::SimTime kTruthWindow = 4 * sim::kSecond;

core::MeshConfig mesh_config(std::uint64_t seed) {
  core::ParkingLotMeshConfig pc;
  pc.backbone_hops = 8;
  pc.sources = 16;
  pc.sinks = 16;  // 256 pairs
  pc.backbone_capacity_bps = 50e6;
  pc.access_capacity_bps = 200e6;
  pc.util_min = 0.50;
  pc.util_max = 0.60;
  pc.mode = sim::SimMode::kHybrid;
  pc.model = core::CrossModel::kPoisson;
  pc.warmup = sim::kSecond;
  pc.seed = seed;
  core::MeshConfig mc = core::parking_lot_mesh(pc);
  mc.topology.auto_route_all(mc.pairs);
  return mc;
}

// Everything one topology seed needs before its first resolution.
struct Topology {
  core::MeshConfig mc;
  std::unique_ptr<est::MeshEstimator> estimator;
  std::vector<double> truth;
  est::MeshMeasureFn measure;
  double build_s = 0.0, select_s = 0.0;
  // Traced set-up only.
  double events = 0.0, peak_events = 0.0;
  double link_packets = 0.0, link_drops = 0.0;
  double absorb_calls = 0.0;
};

Topology set_up(std::uint64_t seed, std::size_t index,
                obs::MetricsRegistry* metrics) {
  Topology t;
  t.mc = mesh_config(runner::derive_seed(seed, index));
  const double s0 = now_s();
  t.estimator = std::make_unique<est::MeshEstimator>(
      est::make_path_specs(t.mc.topology, t.mc.pairs),
      est::MeshEstimatorConfig{.max_probe_fraction = kMaxProbedFrac,
                               .base_seed = runner::derive_seed(seed, 100 + index)});
  t.select_s = now_s() - s0;
  const double b0 = now_s();
  core::MeshScenario reference(t.mc);
  t.build_s = now_s() - b0;
  reference.simulator().set_metrics(metrics);
  const std::uint64_t absorb0 = metrics ? metrics->timer("fluid.absorb").count : 0;
  const sim::SimTime t1 = t.mc.warmup;
  reference.run_until(t1 + kTruthWindow);
  t.truth = reference.ground_truth_matrix(t1, t1 + kTruthWindow);
  t.measure = core::make_mesh_measure_fn(t.mc, core::MeshProbeConfig{});
  if (metrics == nullptr) return t;
  t.absorb_calls =
      static_cast<double>(metrics->timer("fluid.absorb").count - absorb0);
  t.events = static_cast<double>(reference.simulator().events_processed());
  t.peak_events = static_cast<double>(reference.simulator().peak_event_count());
  obs::MetricsRegistry snap;
  reference.snapshot_metrics(snap);
  for (std::size_t e = 0; e < t.mc.topology.edge_count(); ++e) {
    const std::string p = "edge." + std::to_string(e) + ".";
    t.link_packets += static_cast<double>(snap.counter(p + "packets_in").value);
    t.link_drops += static_cast<double>(snap.counter(p + "packets_dropped").value);
  }
  return t;
}

// Median relative error of the inferred pairs against ground truth; an
// unresolvable inferred pair counts as total error (as in micro_mesh).
double inferred_err_p50(const est::MeshReport& r, const std::vector<double>& truth) {
  std::vector<double> errs;
  for (std::size_t p = 0; p < r.pairs.size(); ++p) {
    if (r.pairs[p].measured) continue;
    if (!r.pairs[p].valid || truth[p] <= 0.0) {
      errs.push_back(1.0);
      continue;
    }
    errs.push_back(std::abs(r.pairs[p].estimate_bps - truth[p]) / truth[p]);
  }
  return errs.empty() ? 1.0 : median(errs);
}

struct MeshPass : Pass {
  std::vector<double> infer_ms;
  std::vector<double> err_p50;
  double probed_frac = 0.0;
  double measure_phase_s = 0.0;
  Tally tally;
  std::vector<double> measure_s;  // traced only
};

}  // namespace

Outcome run_mesh_parking_lot(const RunConfig& cfg) {
  Outcome out;
  const std::size_t jobs = std::min<std::size_t>(
      4, std::max(1u, std::thread::hardware_concurrency()));
  obs::MetricsRegistry setup_metrics;
  std::vector<Topology> topos;
  std::vector<double> setups;
  for (std::size_t i = 0; i < static_cast<std::size_t>(kSetupReps); ++i) {
    const double t0 = now_s();
    topos.push_back(set_up(cfg.seed, i, cfg.trace ? &setup_metrics : nullptr));
    setups.push_back(now_s() - t0);
  }

  MeshPass p = run_passes(cfg, out, true, [&](double seconds, bool traced) {
    MeshPass pass;
    MeasureClock clock;
    runner::BatchRunner pool(jobs);
    std::vector<est::MeshMeasureFn> measure;
    for (const Topology& t : topos)
      measure.push_back(traced ? timed_measure_fn(t.measure, clock) : t.measure);
    for (std::size_t round = 0; now_s() < pass.start_s + seconds; ++round) {
      const Topology& t = topos[round % topos.size()];
      const double w0 = now_s();
      est::MeshReport report =
          t.estimator->estimate(pool, measure[round % topos.size()]);
      const double dt = now_s() - w0;
      pass.op(dt * 1e3);
      pass.measure_phase_s += dt;
      if (traced) {
        const double i0 = now_s();
        t.estimator->infer(report.probed, report.measurements);
        pass.infer_ms.push_back((now_s() - i0) * 1e3);
      }
      std::uint64_t h = kFnvBasis;
      for (const est::MeshPairEstimate& e : report.pairs) {
        pass.tally.add(e.valid);
        h = fnv(h, e.valid ? 1 : 0);
        h = fnv(h, std::bit_cast<std::uint64_t>(e.estimate_bps));
      }
      pass.err_p50.push_back(inferred_err_p50(report, t.truth));
      pass.probed_frac = std::max(pass.probed_frac, report.probed_fraction());
      pass.round(static_cast<double>(report.pairs.size()), h);
    }
    pass.finish();
    pass.measure_s = clock.call_s;
    return pass;
  });

  out.tally = p.tally;
  out.check(p.probed_frac <= kMaxProbedFrac,
            "probed fraction " + std::to_string(p.probed_frac) + " > 0.30");
  const double worst_err = p.err_p50.empty()
                               ? 1.0
                               : *std::max_element(p.err_p50.begin(), p.err_p50.end());
  out.check(worst_err <= kMaxInferredErr,
            "median inferred error " + std::to_string(worst_err) + " > 0.20");

  report_end_to_end(out, p, median(setups), "pairs_per_s", "resolve_ms");
  out.note("abs_err_p50", median(p.err_p50), "ratio");
  out.note("probed_frac", p.probed_frac, "ratio");

  if (cfg.trace) {
    // The sim layer is visible only in the reference scenarios of the
    // set-up: measurement replicas live inside make_mesh_measure_fn.
    std::vector<double> build, select;
    double events = 0.0;
    for (const Topology& t : topos) {
      build.push_back(t.build_s);
      select.push_back(t.select_s * 1e3);
      events += t.events;
    }
    const double drain = setup_metrics.timer("sim.drain").total_seconds;
    double task_s_sum = 0.0;
    std::vector<double> measure_ms;
    for (double s : p.measure_s) {
      task_s_sum += s;
      measure_ms.push_back(s * 1e3);
    }
    out.layer("core.mesh_build_s", median(build), "s");
    out.layer("mesh.select_ms", median(select), "ms");
    out.layer("sim.events", topos[0].events, "count");
    out.layer("sim.events_per_s", drain > 0.0 ? events / drain : 0.0, "1/s");
    out.layer("sim.peak_events", topos[0].peak_events, "count");
    out.layer("sim.link_packets", topos[0].link_packets, "count");
    out.layer("sim.link_drops", topos[0].link_drops, "count");
    out.layer("sim.drain_s", drain, "s");
    out.layer("sim.fluid_absorb_s",
              setup_metrics.timer("fluid.absorb").total_seconds, "s");
    out.layer("sim.fluid_absorb_calls", topos[0].absorb_calls, "count");
    out.layer("mesh.measure_ms_p50", median(measure_ms), "ms");
    out.layer("mesh.infer_ms", median(p.infer_ms), "ms");
    out.layer("runner.task_s_sum", task_s_sum, "s");
    out.layer("runner.parallel_eff",
              p.measure_phase_s > 0.0
                  ? task_s_sum / (static_cast<double>(jobs) * p.measure_phase_s)
                  : 0.0,
              "ratio");
    out.layer("runner.jobs", static_cast<double>(jobs), "count");
  }
  return out;
}

}  // namespace perfbench
