// Tool comparison bench — the paper's Section 4 recommendation executed:
// all techniques on identical paths, identical cross traffic, multiple
// seeds, with accuracy AND overhead AND latency reported side by side
// (the latency-accuracy tradeoff of the "faster is better" fallacy).
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "core/registry.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "runner/batch.hpp"
#include "runner/cli.hpp"
#include "stats/moments.hpp"

using namespace abw;

namespace {

constexpr int kSeeds = 5;

// Registry v2: one uniform option set, tools enumerated from the
// ToolInfo table instead of eight hand-built config structs.  bfind is
// skipped here — its multi-second rate ramp dominates the batch and the
// comparison tables never included it.
std::vector<std::unique_ptr<est::Estimator>> make_tools(double ct,
                                                        stats::Rng& rng) {
  core::ToolOptions o;
  o.tight_capacity_bps = ct;
  o.min_rate_bps = 0.04 * ct;
  o.max_rate_bps = 0.98 * ct;
  std::vector<std::unique_ptr<est::Estimator>> tools;
  for (const core::ToolInfo& info : core::available_tool_info()) {
    if (info.name == "bfind") continue;
    tools.push_back(core::make_estimator(info.name, o, rng));
  }
  return tools;
}

// One tool's outcome in one seed's scenario.
struct ToolRun {
  std::string name, cls;
  bool valid = false;
  double err = 0.0, pkts = 0.0, latency = 0.0;
};

// Everything inside one seed is an independent world (fresh Scenario,
// fresh tool instances), so seeds run as parallel BatchRunner tasks;
// per-tool aggregation below walks the results in seed order, keeping the
// output identical for every thread count.
std::vector<ToolRun> run_one_seed(core::CrossModel model, std::size_t seed) {
  core::SingleHopConfig cfg;
  cfg.model = model;
  cfg.seed = 1000 + static_cast<std::uint64_t>(seed);
  auto sc = core::Scenario::single_hop(cfg);
  auto tools = make_tools(cfg.capacity_bps, sc.rng());
  std::vector<ToolRun> runs;
  runs.reserve(tools.size());
  for (auto& tool : tools) {
    ToolRun r;
    r.name = tool->name();
    r.cls = tool->probing_class() == est::ProbingClass::kDirect ? "direct"
                                                                : "iterative";
    auto before = sc.transport().cost();
    est::Estimate e = tool->estimate(sc.transport());
    auto after = sc.transport().cost();
    r.valid = e.valid;
    if (e.valid) {
      double truth = sc.nominal_avail_bw();
      r.err = std::abs(e.point_bps() - truth) / truth;
      r.pkts = static_cast<double>(after.packets - before.packets);
      r.latency = sim::to_seconds(after.last_activity) -
                  sim::to_seconds(before.last_activity);
    }
    runs.push_back(r);
  }
  return runs;
}

void run_model(core::CrossModel model, std::size_t jobs) {
  struct Agg {
    std::string name, cls;
    stats::RunningStats err, pkts, latency;
    int invalid = 0;
  };
  std::vector<Agg> agg;

  auto per_seed = runner::BatchRunner(jobs).map(
      kSeeds, [&](std::size_t seed) { return run_one_seed(model, seed); });

  for (const auto& runs : per_seed) {
    if (agg.empty())
      for (const auto& r : runs) agg.push_back({r.name, r.cls, {}, {}, {}, 0});
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (!runs[i].valid) {
        ++agg[i].invalid;
        continue;
      }
      agg[i].err.add(runs[i].err);
      agg[i].pkts.add(runs[i].pkts);
      agg[i].latency.add(runs[i].latency);
    }
  }

  std::printf("\n--- %s cross traffic (Ct=50 Mbps, A=25 Mbps, %d seeds) ---\n",
              core::to_string(model), kSeeds);
  core::Table table({"tool", "class", "mean |error|", "packets", "latency",
                     "invalid runs"});
  for (auto& a : agg) {
    char lat[32];
    std::snprintf(lat, sizeof lat, "%.2f s", a.latency.mean());
    table.row({a.name, a.cls,
               a.err.count() ? core::pct(a.err.mean()) : std::string("-"),
               std::to_string(static_cast<long long>(a.pkts.mean())), lat,
               std::to_string(a.invalid)});
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  core::print_header(std::cout,
                     "Tool comparison under reproducible conditions",
                     "Jain & Dovrolis IMC'04, Section 4 recommendation");
  std::size_t jobs = runner::jobs_from_cli(argc, argv);
  std::printf("running %d seeds per model on %zu thread(s) (--jobs/ABW_JOBS)\n",
              kSeeds, jobs);
  run_model(core::CrossModel::kCbr, jobs);
  run_model(core::CrossModel::kPoisson, jobs);
  run_model(core::CrossModel::kParetoOnOff, jobs);
  std::printf(
      "\nreading guide: accuracy comparisons are only meaningful at equal\n"
      "overhead and equal averaging time scale (pitfalls 1-3) — the packet\n"
      "and latency columns quantify what each tool paid for its accuracy.\n");
  return 0;
}
