// Poisson cross traffic: exponential interarrivals, arbitrary packet-size
// distribution.  The paper's default bursty workload (Figs. 2-4, Table 1).
#pragma once

#include "traffic/generator.hpp"
#include "traffic/packet_size.hpp"

namespace abw::traffic {

/// Emits packets as a Poisson process.  The arrival rate is chosen so the
/// *byte* rate equals `rate_bps` given the size distribution's mean:
/// lambda = rate / (8 * E[L]).
class PoissonGenerator final : public Generator {
 public:
  PoissonGenerator(sim::Simulator& sim, sim::Path& path, std::size_t entry_hop,
                   bool one_hop, std::uint32_t flow_id, stats::Rng rng,
                   double rate_bps, SizeDistribution sizes);

 protected:
  sim::SimTime next_gap(stats::Rng& rng, sim::SimTime now) override;
  std::uint32_t next_size(stats::Rng& rng) override;

 private:
  double mean_gap_seconds_;
  SizeDistribution sizes_;
};

}  // namespace abw::traffic
