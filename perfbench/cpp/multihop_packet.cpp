// multihop_packet: the Fig. 4 procedure on its deepest path.  A round
// sweeps the offered rate from 5 to 30 Mb/s; each rate gets a fresh
// 5-hop packet-mode scenario and a train of periodic streams.  Pure
// event-driven simulation: no estimator logic, no fluid path.
#include <bit>
#include <string>

#include "runner/batch.hpp"
#include "stats/moments.hpp"
#include "timed.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace abw;

namespace {

constexpr double kAvailBw = 25e6;
// Per-scenario stream count: enough for a stable mean ratio, few enough
// that a round of 11 rates completes several times per pass.
constexpr std::size_t kStreamsPerRate = 40;
// Ro/Ri cannot exceed 1 beyond sampling noise: the path only delays.
constexpr double kRatioSlack = 0.02;

std::vector<double> sweep_rates() {
  std::vector<double> rates;
  for (double r = 5e6; r <= 30e6 + 1; r += 2.5e6) rates.push_back(r);
  return rates;
}

struct MultihopPass : Pass {
  Tally tally;
  std::vector<std::string> errors;
  SimLayers layers;  // traced only
};

void run_round(std::uint64_t seed, std::size_t round, bool traced,
               MultihopPass& p) {
  const std::vector<double> rates = sweep_rates();
  std::uint64_t h = kFnvBasis;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double b0 = now_s();
    core::Scenario sc = core::Scenario::multi_hop(
        multihop_config(runner::derive_seed(seed, round * rates.size() + i)));
    p.layers.build_s += now_s() - b0;
    if (traced) sc.simulator().set_metrics(&p.layers.metrics);
    TimedTransport timed(sc.transport(), p.layers.clock);
    probe::Transport& t = traced ? static_cast<probe::Transport&>(timed)
                                 : sc.transport();
    core::RatioPoint pt = ratio_point(t, rates[i], kStreamsPerRate, &p);
    // pt.streams counts the streams with a usable Ro/Ri; the rest failed.
    for (std::size_t s = 0; s < kStreamsPerRate; ++s) p.tally.add(s < pt.streams);
    h = fnv(h, std::bit_cast<std::uint64_t>(pt.mean_ratio));
    h = fnv(h, static_cast<std::uint64_t>(pt.streams));
    if (pt.mean_ratio > 1.0 + kRatioSlack)
      p.errors.push_back("Ro/Ri " + std::to_string(pt.mean_ratio) + " > 1 at " +
                         std::to_string(rates[i] / 1e6) + " Mb/s");
    if (rates[i] > kAvailBw && !(pt.mean_ratio < 1.0))
      p.errors.push_back("Ro/Ri " + std::to_string(pt.mean_ratio) +
                         " not below 1 above A at " +
                         std::to_string(rates[i] / 1e6) + " Mb/s");
    if (traced) p.layers.scenario_done(sc);
  }
  p.round(static_cast<double>(rates.size() * kStreamsPerRate), h);
}

}  // namespace

core::MultiHopConfig multihop_config(std::uint64_t seed) {
  core::MultiHopConfig c;
  c.hop_count = 5;
  c.loaded_hops = {0, 1, 2, 3, 4};
  c.mode = sim::SimMode::kPacket;
  c.seed = seed;
  return c;
}

core::RatioPoint ratio_point(probe::Transport& t, double rate_bps,
                             std::size_t streams, Pass* log) {
  const probe::StreamSpec spec = probe::StreamSpec::periodic(rate_bps, 1500, 100);
  stats::RunningStats acc;
  for (std::size_t s = 0; s < streams; ++s) {
    const double w0 = now_s();
    probe::StreamResult res = t.send_stream(spec, kMultihopLeadIn);
    if (log) log->op((now_s() - w0) * 1e3);
    const double ratio = res.rate_ratio();
    if (ratio > 0.0) acc.add(ratio);
  }
  return {rate_bps, acc.mean(), acc.stddev(), acc.count()};
}

Outcome run_multihop_packet(const RunConfig& cfg) {
  Outcome out;
  const double setup = median_setup_s(kSetupReps, [&](int rep) {
    core::Scenario sc = core::Scenario::multi_hop(
        multihop_config(runner::derive_seed(kWarmupSeed, rep)));
    ratio_point(sc.transport(), kAvailBw, 10);
  });

  MultihopPass p = run_passes(cfg, out, true, [&](double seconds, bool traced) {
    MultihopPass pass;
    for (std::size_t round = 0; now_s() < pass.start_s + seconds; ++round)
      run_round(cfg.seed, round, traced, pass);
    pass.finish();
    return pass;
  });

  out.tally = p.tally;
  for (const std::string& e : p.errors) out.check(false, e);

  report_end_to_end(out, p, setup, "streams_per_s", "stream_ms");

  if (cfg.trace) p.layers.report(out, p.elapsed_s);
  return out;
}

}  // namespace perfbench
