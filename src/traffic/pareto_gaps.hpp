// UDP cross traffic with Pareto-distributed interarrivals — the
// unresponsive, heavy-tailed workload of the paper's Fig. 7 ("UDP sources
// with Pareto interarrivals").  Unlike Pareto ON-OFF there are no
// back-to-back bursts; the burstiness comes from the gap distribution's
// heavy tail (infinite variance for shape <= 2).
#pragma once

#include "traffic/generator.hpp"
#include "traffic/packet_size.hpp"

namespace abw::traffic {

/// Emits fixed-size packets with i.i.d. Pareto(shape, xm) interarrivals;
/// xm is derived so the long-run byte rate equals `rate_bps`.
class ParetoGapGenerator final : public Generator {
 public:
  /// `shape` must be > 1 (finite mean gap); the classic heavy-tail regime
  /// is 1 < shape <= 2.
  ParetoGapGenerator(sim::Simulator& sim, sim::Path& path, std::size_t entry_hop,
                     bool one_hop, std::uint32_t flow_id, stats::Rng rng,
                     double rate_bps, std::uint32_t packet_size,
                     double shape = 1.9);

 protected:
  sim::SimTime next_gap(stats::Rng& rng, sim::SimTime now) override;
  std::uint32_t next_size(stats::Rng& rng) override;

 private:
  double shape_;
  double scale_seconds_;  // Pareto xm so that E[gap] = 8L / rate
  std::uint32_t packet_size_;
};

}  // namespace abw::traffic
