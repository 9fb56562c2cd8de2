#include "traffic/poisson.hpp"

#include <stdexcept>

namespace abw::traffic {

PoissonGenerator::PoissonGenerator(sim::Simulator& sim, sim::Path& path,
                                   std::size_t entry_hop, bool one_hop,
                                   std::uint32_t flow_id, stats::Rng rng,
                                   double rate_bps, SizeDistribution sizes)
    : Generator(sim, path, entry_hop, one_hop, flow_id, std::move(rng)),
      sizes_(std::move(sizes)) {
  if (!(rate_bps > 0.0))
    throw std::invalid_argument("PoissonGenerator: rate must be > 0");
  mean_gap_seconds_ = sizes_.mean() * 8.0 / rate_bps;
}

sim::SimTime PoissonGenerator::next_gap(stats::Rng& rng, sim::SimTime) {
  return sim::from_seconds(rng.exponential(mean_gap_seconds_));
}

std::uint32_t PoissonGenerator::next_size(stats::Rng& rng) {
  return sizes_.sample(rng);
}

}  // namespace abw::traffic
