#include "traffic/pareto_gaps.hpp"

#include <stdexcept>

namespace abw::traffic {

ParetoGapGenerator::ParetoGapGenerator(sim::Simulator& sim, sim::Path& path,
                                       std::size_t entry_hop, bool one_hop,
                                       std::uint32_t flow_id, stats::Rng rng,
                                       double rate_bps, std::uint32_t packet_size,
                                       double shape)
    : Generator(sim, path, entry_hop, one_hop, flow_id, std::move(rng)),
      shape_(shape),
      packet_size_(packet_size) {
  if (!(rate_bps > 0.0) || packet_size == 0)
    throw std::invalid_argument("ParetoGapGenerator: rate and size must be > 0");
  if (!(shape > 1.0))
    throw std::invalid_argument("ParetoGapGenerator: shape must be > 1");
  double mean_gap = packet_size * 8.0 / rate_bps;
  // Pareto mean = shape * xm / (shape - 1)  =>  xm = mean * (shape-1)/shape.
  scale_seconds_ = mean_gap * (shape - 1.0) / shape;
}

sim::SimTime ParetoGapGenerator::next_gap(stats::Rng& rng, sim::SimTime) {
  return sim::from_seconds(rng.pareto(shape_, scale_seconds_));
}

std::uint32_t ParetoGapGenerator::next_size(stats::Rng&) { return packet_size_; }

}  // namespace abw::traffic
