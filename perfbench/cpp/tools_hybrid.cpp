// tools_hybrid: the paper's tool comparison as users run it.  Per round,
// one fresh single-hop hybrid-mode scenario; each of the nine registry
// tools runs one estimate on it through estimate(Transport&).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <vector>

#include "runner/batch.hpp"
#include "timed.hpp"
#include "traffic/generator.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace abw;

namespace {

constexpr double kCapacity = 50e6;
constexpr double kCross = 25e6;
constexpr std::uint32_t kCrossFlow = 1000;  // as Scenario::single_hop's
// An estimate off by half the avail-bw is a broken tool or harness, not
// the paper's accuracy pitfalls.
constexpr double kSaneAbsErr = 0.5;

// The odd rounds' cross traffic: kOnOffSources independent sources of the
// library's ParetoOnOffGenerator model (bursts of 1-10 1500 B packets at
// the line rate, Pareto(1.5) OFF periods), each at an equal share of the
// cross rate, merged into one arrival stream because hybrid mode takes
// one source per link.  A single such source leaves the link idle for
// seconds in about one scenario in a thousand; the direct prober's 20
// streams then all run below the avail-bw and it rightly aborts for lack
// of data.  The merge keeps the heavy-tailed line-rate bursts, but its
// sources are practically never all silent at once.
constexpr std::size_t kOnOffSources = 8;
constexpr std::uint32_t kOnOffPacket = 1500;
constexpr double kOnOffShape = 1.5;
constexpr std::int64_t kOnOffMinBurst = 1, kOnOffMaxBurst = 10;

class ParetoOnOffMerge final : public traffic::Generator {
 public:
  ParetoOnOffMerge(core::Scenario& sc, double mean_rate_bps, double peak_rate_bps)
      : Generator(sc.simulator(), sc.path(), 0, /*one_hop=*/false, kCrossFlow,
                  sc.rng().fork()),
        peak_gap_(sim::transmission_time(kOnOffPacket, peak_rate_bps)),
        sources_(kOnOffSources) {
    // As ParetoOnOffGenerator: E[off] = E[on] * (peak/mean - 1), and the
    // Pareto scale is E[off] * (alpha - 1) / alpha.
    const double mean_on_s =
        (kOnOffMinBurst + kOnOffMaxBurst) / 2.0 * sim::to_seconds(peak_gap_);
    const double source_rate_bps = mean_rate_bps / kOnOffSources;
    const double mean_off_s = mean_on_s * (peak_rate_bps / source_rate_bps - 1.0);
    off_scale_s_ = mean_off_s * (kOnOffShape - 1.0) / kOnOffShape;
  }

 protected:
  // Arrival times count from the start of the active window; every
  // source starts in an OFF period.
  sim::SimTime next_gap(stats::Rng& rng, sim::SimTime) override {
    if (!started_) {
      for (Source& s : sources_) next_burst(rng, s);
      started_ = true;
    }
    Source& s = *std::min_element(
        sources_.begin(), sources_.end(),
        [](const Source& a, const Source& b) { return a.at < b.at; });
    const sim::SimTime gap = s.at - clock_;
    clock_ = s.at;
    if (s.left > 0) {
      --s.left;
      s.at += peak_gap_;
    } else {
      next_burst(rng, s);
    }
    return gap;
  }
  std::uint32_t next_size(stats::Rng&) override { return kOnOffPacket; }
  bool gap_is_time_invariant() const override { return true; }

 private:
  struct Source {
    sim::SimTime at = 0;     // its next arrival
    std::uint32_t left = 0;  // packets of its burst after that one
  };

  void next_burst(stats::Rng& rng, Source& s) {
    s.left = static_cast<std::uint32_t>(
                 rng.uniform_int(kOnOffMinBurst, kOnOffMaxBurst)) - 1;
    s.at += sim::from_seconds(rng.pareto(kOnOffShape, off_scale_s_)) + peak_gap_;
  }

  sim::SimTime peak_gap_;
  double off_scale_s_ = 0.0;
  std::vector<Source> sources_;
  sim::SimTime clock_ = 0;
  bool started_ = false;
};

struct ToolsPass : Pass {
  std::vector<double> abs_err;
  Tally tally;
  std::vector<std::string> errors;   // exceptions: correctness failures
  std::vector<std::string> invalid;  // invalid estimates: counted as failed
  double round0_packets = 0.0;       // deterministic for a seed
  // Traced only.
  SimLayers layers;
  double est_self_s = 0.0;
  std::vector<std::vector<double>> tool_ms, tool_self_s;
};

void run_round(std::uint64_t seed, std::size_t round, bool traced,
               ToolsPass& p) {
  const std::vector<std::string>& tools = core::available_tools();
  const double b0 = now_s();
  core::Scenario sc = tools_scenario(seed, round);
  p.layers.build_s += now_s() - b0;
  if (traced) sc.simulator().set_metrics(&p.layers.metrics);
  TimedTransport timed(sc.transport(), p.layers.clock);
  probe::Transport& t = traced ? static_cast<probe::Transport&>(timed)
                               : sc.transport();
  const std::uint64_t packets0 = t.cost().packets;
  std::uint64_t h = kFnvBasis;
  for (std::size_t i = 0; i < tools.size(); ++i) {
    auto tool = core::make_estimator(
        tools[i], tools_options(traced ? &p.layers.metrics : nullptr), sc.rng());
    const sim::SimTime t1 = t.now();
    const double busy0 = p.layers.clock.busy_s();
    const double w0 = now_s();
    est::Estimate e;
    try {
      e = tool->estimate(t);
    } catch (const std::exception& ex) {
      p.errors.push_back(tools[i] + " threw: " + ex.what());
      p.tally.add(false);
      h = fnv(h, "exception");
      continue;
    }
    const double dt = now_s() - w0;
    p.op(dt * 1e3);
    p.tally.add(e.valid);
    h = fnv(h, e.to_json());
    if (e.valid) {
      const double truth = sc.ground_truth(t1, t.now());
      p.abs_err.push_back(std::abs(e.point_bps() - truth) / truth);
    } else {
      p.invalid.push_back(tools[i] + " in round " + std::to_string(round) +
                          ": " + e.detail);
    }
    if (traced) {
      p.tool_ms[i].push_back(dt * 1e3);
      // bfind drives the simulator through sim_session(), around the
      // decorator: its transport time is invisible, so it stays out of
      // the estimator-logic self time.
      const double self = dt - (p.layers.clock.busy_s() - busy0);
      p.tool_self_s[i].push_back(self);
      if (tools[i] != "bfind") p.est_self_s += self;
    }
  }
  if (round == 0)
    p.round0_packets = static_cast<double>(t.cost().packets - packets0);
  if (traced) p.layers.scenario_done(sc);
  p.round(static_cast<double>(tools.size()), h);
}

}  // namespace

core::Scenario tools_scenario(std::uint64_t seed, std::size_t round) {
  core::SingleHopConfig c;
  c.capacity_bps = kCapacity;
  c.cross_rate_bps = kCross;
  c.mode = sim::SimMode::kHybrid;
  c.model = core::CrossModel::kPoisson;
  c.trimodal_cross_sizes = true;
  c.seed = runner::derive_seed(seed, round);
  if (round % 2 == 0) return core::Scenario::single_hop(c);
  // The same link built without cross traffic; the merged ON-OFF source
  // joins at time 0 and gets the same warm-up.
  const sim::SimTime warmup = c.warmup;
  c.cross_rate_bps = 0.0;
  c.warmup = 0;
  core::Scenario sc = core::Scenario::single_hop(c);
  sc.add_cross_source(std::make_unique<ParetoOnOffMerge>(sc, kCross, kCapacity),
                      0, /*one_hop=*/false, kCrossFlow, c.mode, c.traffic_horizon);
  sc.simulator().run_until(warmup);
  return sc;
}

core::ToolOptions tools_options(obs::MetricsRegistry* metrics) {
  core::ToolOptions o;
  o.tight_capacity_bps = kCapacity;
  o.min_rate_bps = 0.04 * kCapacity;
  // Above Ct, so bfind's rate ramp always reaches a rate that queues.
  o.max_rate_bps = 1.2 * kCapacity;
  o.metrics = metrics;
  return o;
}

Outcome run_tools_hybrid(const RunConfig& cfg) {
  Outcome out;
  const std::vector<std::string>& tools = core::available_tools();
  // Set-up: one warm-up round per repetition, so lazy statics, allocator
  // pools and caches are warm before the pass.
  const double setup = median_setup_s(kSetupReps, [&](int rep) {
    ToolsPass warm;
    run_round(kWarmupSeed, static_cast<std::size_t>(rep), false, warm);
  });

  ToolsPass p = run_passes(cfg, out, true, [&](double seconds, bool traced) {
    ToolsPass pass;
    pass.tool_ms.resize(tools.size());
    pass.tool_self_s.resize(tools.size());
    for (std::size_t round = 0; now_s() < pass.start_s + seconds; ++round)
      run_round(cfg.seed, round, traced, pass);
    pass.finish();
    return pass;
  });

  out.tally = p.tally;
  for (const std::string& e : p.errors) out.check(false, e);
  for (const std::string& e : p.invalid)
    std::printf("invalid estimate: %s\n", e.c_str());
  const double err_p50 = median(p.abs_err);
  out.check(!p.abs_err.empty() && err_p50 <= kSaneAbsErr,
            "abs_err_p50 " + std::to_string(err_p50) + " above the sanity bound");

  report_end_to_end(out, p, setup, "estimates_per_s", "estimate_ms");
  out.note("abs_err_p50", err_p50, "ratio");
  out.note("probe_pkts_per_estimate",
           p.round0_packets / static_cast<double>(tools.size()), "packets");

  if (cfg.trace) {
    p.layers.report(out, p.elapsed_s);
    out.layer("est.self_s", p.est_self_s, "s");
    for (std::size_t i = 0; i < tools.size(); ++i) {
      out.layer("est." + tools[i] + ".ms_p50", median(p.tool_ms[i]), "ms");
      if (tools[i] != "bfind") {
        double self = 0.0;
        for (double s : p.tool_self_s[i]) self += s;
        out.layer("est." + tools[i] + ".self_s", self, "s");
      }
    }
  }
  return out;
}

}  // namespace perfbench
