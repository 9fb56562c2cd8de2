#include "core/experiment.hpp"

#include <algorithm>
#include <stdexcept>

#include "est/direct.hpp"
#include "probe/stream_spec.hpp"
#include "runner/batch.hpp"
#include "stats/moments.hpp"

namespace abw::core {

std::vector<RatioPoint> measure_ratio_curve(Scenario& sc,
                                            const RatioCurveConfig& cfg) {
  if (cfg.rates_bps.empty())
    throw std::invalid_argument("measure_ratio_curve: no rates");
  std::vector<RatioPoint> curve;
  curve.reserve(cfg.rates_bps.size());
  for (double rate : cfg.rates_bps) {
    probe::StreamSpec spec = probe::StreamSpec::periodic(
        rate, cfg.packet_size, cfg.packets_per_stream);
    stats::RunningStats acc;
    for (std::size_t s = 0; s < cfg.streams_per_rate; ++s) {
      probe::StreamResult res =
          sc.transport().send_stream(spec, cfg.inter_stream_gap);
      double ratio = res.rate_ratio();
      if (ratio > 0.0) acc.add(ratio);
    }
    if (sc.traffic_active_until() != 0 &&
        sc.simulator().now() >= sc.traffic_active_until())
      throw std::logic_error(
          "measure_ratio_curve: cross traffic expired mid-sweep; use "
          "measure_ratio_curve_fresh or raise the traffic horizon");
    curve.push_back({rate, acc.mean(), acc.stddev(), acc.count()});
  }
  return curve;
}

std::vector<RatioPoint> measure_ratio_curve_fresh(
    const std::function<Scenario(std::uint64_t seed)>& make_scenario,
    const RatioCurveConfig& cfg, std::size_t jobs) {
  if (cfg.rates_bps.empty())
    throw std::invalid_argument("measure_ratio_curve_fresh: no rates");
  // Each rate point owns a whole fresh world (Simulator/Scenario/Rng), so
  // the sweep parallelizes at the replication level; collecting results by
  // task index keeps the curve identical to the serial sweep.  Seeds stay
  // 1, 2, ... per rate point, as the serial version always used.
  runner::BatchRunner batch(jobs);
  return batch.map(cfg.rates_bps.size(), [&](std::size_t i) {
    Scenario sc = make_scenario(static_cast<std::uint64_t>(i) + 1);
    RatioCurveConfig one = cfg;
    one.rates_bps = {cfg.rates_bps[i]};
    return measure_ratio_curve(sc, one).front();
  });
}

std::vector<double> collect_direct_samples(Scenario& sc, double tight_capacity_bps,
                                           double input_rate_bps,
                                           sim::SimTime stream_duration,
                                           std::uint32_t packet_size,
                                           std::size_t count,
                                           sim::SimTime inter_stream_gap) {
  est::DirectConfig dc;
  dc.tight_capacity_bps = tight_capacity_bps;
  dc.input_rate_bps = input_rate_bps;
  dc.packet_size = packet_size;
  dc.stream_duration = stream_duration;
  dc.stream_count = 1;  // we drive sampling ourselves
  est::DirectProber prober(dc);

  std::vector<double> samples;
  samples.reserve(count);
  std::size_t attempts = 0;
  while (samples.size() < count && attempts < 3 * count) {
    ++attempts;
    if (auto a = prober.sample(sc.transport())) samples.push_back(*a);
    sc.simulator().run_until(sc.simulator().now() + inter_stream_gap);
  }
  return samples;
}

std::vector<double> collect_pair_samples(Scenario& sc, double tight_capacity_bps,
                                         std::uint32_t packet_size,
                                         std::size_t count,
                                         sim::SimTime mean_pair_gap) {
  probe::StreamSpec spec = probe::StreamSpec::pair_train(
      tight_capacity_bps, packet_size, count, mean_pair_gap, sc.rng());
  probe::StreamResult res = sc.transport().send_stream(spec);
  double gin =
      sim::to_seconds(sim::transmission_time(packet_size, tight_capacity_bps));
  std::vector<double> samples;
  for (std::size_t p = 0; p + 1 < res.packets.size(); p += 2) {
    const auto& a = res.packets[p];
    const auto& b = res.packets[p + 1];
    if (a.lost || b.lost) continue;
    double gout = sim::to_seconds(b.received - a.received);
    double s = tight_capacity_bps * (1.0 - (gout - gin) / gin);
    samples.push_back(std::clamp(s, 0.0, tight_capacity_bps));
  }
  return samples;
}

std::vector<double> ground_truth_series(Scenario& sc, sim::SimTime t0,
                                        sim::SimTime t1, sim::SimTime tau) {
  sim::Path& path = sc.path();
  path.sync_hybrid(t1);  // no-op in packet mode
  std::size_t tight = path.tight_link(t0, t1);
  return path.link(tight).meter().avail_bw_series(t0, t1, tau,
                                                  /*exclude_measurement=*/true);
}

}  // namespace abw::core
