#include "traffic/pareto_onoff.hpp"

#include <stdexcept>

namespace abw::traffic {

ParetoOnOffGenerator::ParetoOnOffGenerator(sim::Simulator& sim, sim::Path& path,
                                           std::size_t entry_hop, bool one_hop,
                                           std::uint32_t flow_id, stats::Rng rng,
                                           const ParetoOnOffConfig& cfg)
    : Generator(sim, path, entry_hop, one_hop, flow_id, std::move(rng)), cfg_(cfg) {
  if (!(cfg.mean_rate_bps > 0.0) || !(cfg.peak_rate_bps > cfg.mean_rate_bps))
    throw std::invalid_argument("ParetoOnOff: need 0 < mean < peak rate");
  if (!(cfg.off_shape > 1.0))
    throw std::invalid_argument("ParetoOnOff: off_shape must be > 1 (finite mean)");
  if (cfg.on_min_packets == 0 || cfg.on_max_packets < cfg.on_min_packets)
    throw std::invalid_argument("ParetoOnOff: bad ON burst bounds");

  peak_gap_ = sim::transmission_time(cfg.packet_size, cfg.peak_rate_bps);

  // Long-run rate = peak * E[on] / (E[on] + E[off])  =>
  //   E[off] = E[on] * (peak/mean - 1).
  double mean_on_packets =
      (static_cast<double>(cfg.on_min_packets) + cfg.on_max_packets) / 2.0;
  double mean_on_seconds = mean_on_packets * sim::to_seconds(peak_gap_);
  double mean_off_seconds =
      mean_on_seconds * (cfg.peak_rate_bps / cfg.mean_rate_bps - 1.0);
  // Pareto mean = alpha * xm / (alpha - 1)  =>  xm = mean*(alpha-1)/alpha.
  off_scale_seconds_ = mean_off_seconds * (cfg.off_shape - 1.0) / cfg.off_shape;
}

sim::SimTime ParetoOnOffGenerator::next_gap(stats::Rng& rng, sim::SimTime) {
  if (remaining_in_burst_ > 0) {
    --remaining_in_burst_;
    return peak_gap_;
  }
  // Draw a new burst; the gap before its first packet is an OFF period.
  remaining_in_burst_ = static_cast<std::uint32_t>(rng.uniform_int(
                            cfg_.on_min_packets, cfg_.on_max_packets)) - 1;
  double off = rng.pareto(cfg_.off_shape, off_scale_seconds_);
  return sim::from_seconds(off) + peak_gap_;
}

std::uint32_t ParetoOnOffGenerator::next_size(stats::Rng&) {
  return cfg_.packet_size;
}

}  // namespace abw::traffic
