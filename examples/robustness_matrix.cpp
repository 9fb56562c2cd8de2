// Robustness matrix: every registry tool crossed with every impairment
// the fault-injection layer provides (sim/fault.hpp), run as a
// fault-tolerant parallel grid.
//
//   ./robustness_matrix                 # hardware_concurrency() threads
//   ./robustness_matrix --jobs 4        # explicit thread count
//   ./robustness_matrix --metrics=FILE  # per-cell metrics snapshots (JSON)
//
// Each cell builds a fresh single-hop scenario (Ct = 50 Mb/s, A = 25
// Mb/s), applies one impairment — Gilbert-Elliott bursty loss, Bernoulli
// loss, reordering + duplication, a mid-measurement 10x capacity flap —
// and runs one tool under hard EstimatorLimits.  The interesting output
// is the right-hand columns: under impairments a hardened tool either
// still estimates, or returns a structured abort (probe-budget /
// deadline / insufficient-data) — never a hang, a crash, or a silent
// garbage number.  Cells run through BatchRunner::map_cells_seeded, so a
// cell that throws is reported as an error record without discarding the
// rest of the grid.
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "est/estimator.hpp"
#include "obs/metrics.hpp"
#include "runner/batch.hpp"
#include "runner/cli.hpp"
#include "sim/fault.hpp"

namespace {

using namespace abw;

struct Impairment {
  const char* name;
  // Applied to the freshly built scenario before the tool runs.
  std::function<void(core::Scenario&)> apply;
};

std::vector<Impairment> impairments() {
  std::vector<Impairment> out;
  out.push_back({"clean", [](core::Scenario&) {}});
  out.push_back({"bernoulli-2%", [](core::Scenario& sc) {
                   // Bernoulli loss lives in LinkConfig; equivalent here:
                   // a Gilbert-Elliott chain pinned to one state.
                   sim::LinkFaults f;
                   f.gilbert.p_good_bad = 1.0;
                   f.gilbert.p_bad_good = 0.0;
                   f.gilbert.loss_bad = 0.02;
                   sc.path().link(0).set_faults(f);
                 }});
  out.push_back({"ge-burst-30%", [](core::Scenario& sc) {
                   // Stationary loss p_gb/(p_gb+p_bg) = 30%, mean burst
                   // 1/p_bg ~ 28 packets: heavy, clustered loss.
                   sim::LinkFaults f;
                   f.gilbert.p_good_bad = 0.015;
                   f.gilbert.p_bad_good = 0.035;
                   sc.path().link(0).set_faults(f);
                 }});
  out.push_back({"reorder+dup", [](core::Scenario& sc) {
                   sim::LinkFaults f;
                   f.reorder_prob = 0.05;
                   f.reorder_extra_max = 2 * sim::kMillisecond;
                   f.duplicate_prob = 0.02;
                   sc.path().link(0).set_faults(f);
                 }});
  out.push_back({"flap-10x", [](core::Scenario& sc) {
                   // Mid-measurement the tight link drops to a tenth of
                   // its capacity for 10 s, then recovers.
                   sim::FaultInjector inj(sc.simulator());
                   sim::Link& l = sc.path().link(0);
                   inj.flap(l, sc.simulator().now() + 5 * sim::kSecond,
                            10 * sim::kSecond, l.capacity_bps() / 10.0);
                 }});
  return out;
}

struct Cell {
  double est_mbps = 0.0;
  bool valid = false;
  std::string note;        // abort reason / detail when invalid
  double truth_mbps = 0.0; // ground truth over the measurement window
  std::string metrics_json;  // per-cell snapshot when --metrics is given
};

Cell run_cell(const core::ToolInfo& tool, const Impairment& imp,
              std::uint64_t seed, bool collect_metrics) {
  core::SingleHopConfig cfg;
  cfg.seed = seed;
  core::Scenario sc = core::Scenario::single_hop(cfg);
  imp.apply(sc);

  core::ToolOptions opt;
  // Registry v2: feed Ct only to the tools whose info says they need it.
  if (tool.requires_tight_capacity) opt.tight_capacity_bps = cfg.capacity_bps;
  opt.max_rate_bps = cfg.capacity_bps;
  // The hard bounds this PR is about: no tool may consume more than 60 s
  // of simulated time or 60k probe packets, whatever the impairment does.
  opt.limits.deadline = 60 * sim::kSecond;
  opt.limits.max_probe_packets = 60000;

  // One registry per cell: each cell is an independent world, so the
  // snapshots stay byte-identical regardless of --jobs.
  obs::MetricsRegistry metrics;
  if (collect_metrics) opt.metrics = &metrics;

  auto est = core::make_estimator(tool.name, opt, sc.rng());
  sim::SimTime t1 = sc.simulator().now();
  est::Estimate e = est->estimate(sc.transport());
  sim::SimTime t2 = sc.simulator().now();

  Cell c;
  c.valid = e.valid;
  c.truth_mbps = sc.ground_truth(t1, t2) / 1e6;
  if (e.valid) {
    c.est_mbps = e.point_bps() / 1e6;
  } else {
    c.note = e.abort != est::AbortReason::kNone
                 ? std::string(est::abort_reason_name(e.abort))
                 : "invalid";
  }
  if (collect_metrics) {
    sc.snapshot_metrics(metrics);
    c.metrics_json = metrics.to_json(/*include_timers=*/false);
  }
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t jobs = runner::jobs_from_cli(argc, argv);
  std::string metrics_path;
  try {
    metrics_path = runner::parse_string_flag(argc, argv, "metrics", "");
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  const bool collect_metrics = !metrics_path.empty();
  core::print_header(std::cout, "Robustness matrix",
                     "tool x impairment grid under hard estimator limits");

  const std::vector<core::ToolInfo>& tools = core::available_tool_info();
  std::vector<Impairment> imps = impairments();
  std::printf("%zu tools x %zu impairments on %zu thread(s)\n\n",
              tools.size(), imps.size(), jobs);

  runner::BatchRunner pool(jobs);
  runner::RetryPolicy retry;
  retry.max_retries = 1;  // a failing cell gets one fresh-seed retry
  auto cells = pool.map_cells_seeded(
      tools.size() * imps.size(), /*base_seed=*/4242,
      [&](std::size_t i, std::uint64_t seed) {
        return run_cell(tools[i / imps.size()], imps[i % imps.size()], seed,
                        collect_metrics);
      },
      retry);

  std::vector<std::string> headers = {"tool"};
  for (const auto& imp : imps) headers.push_back(imp.name);
  core::Table table(headers);
  std::size_t errors = 0, aborts = 0;
  for (std::size_t t = 0; t < tools.size(); ++t) {
    std::vector<std::string> row = {tools[t].name};
    for (std::size_t i = 0; i < imps.size(); ++i) {
      const auto& cell = cells[t * imps.size() + i];
      if (!cell.ok) {
        ++errors;
        row.push_back("ERROR: " + cell.error);
      } else if (!cell.value.valid) {
        ++aborts;
        row.push_back("(" + cell.value.note + ")");
      } else {
        char buf[48];
        std::snprintf(buf, sizeof buf, "%.1f / %.1f", cell.value.est_mbps,
                      cell.value.truth_mbps);
        row.push_back(buf);
      }
    }
    table.row(row);
  }
  table.print(std::cout);

  if (collect_metrics) {
    // One JSON object keyed "tool/impairment", cells in grid order —
    // deterministic for a fixed base seed, independent of --jobs.
    std::ofstream out(metrics_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", metrics_path.c_str());
      return 2;
    }
    out << "{";
    bool first = true;
    for (std::size_t t = 0; t < tools.size(); ++t)
      for (std::size_t i = 0; i < imps.size(); ++i) {
        const auto& cell = cells[t * imps.size() + i];
        if (!cell.ok || cell.value.metrics_json.empty()) continue;
        if (!first) out << ",";
        first = false;
        out << "\n\"" << tools[t].name << "/" << imps[i].name
            << "\":" << cell.value.metrics_json;
      }
    out << "\n}\n";
    std::printf("\nper-cell metrics snapshots -> %s\n", metrics_path.c_str());
  }

  std::printf(
      "\ncells show estimate / ground-truth Mbps over the measurement "
      "window;\n(reason) marks a structured abort, ERROR a cell whose "
      "attempts all threw.\n%zu structured aborts, %zu error cells out of "
      "%zu.\n",
      aborts, errors, cells.size());
  return 0;
}
