// Pareto ON-OFF cross traffic — the paper's heavy-tailed workload
// (Fig. 3, footnote 3: "OFF shape parameter = 1.5, ON duration uniformly
// between 1-10 packets").  Aggregating many such sources yields
// asymptotically self-similar traffic (Taqqu's theorem), which is how the
// synthetic NLANR-substitute trace gets its long-range dependence.
#pragma once

#include "traffic/generator.hpp"
#include "traffic/packet_size.hpp"

namespace abw::traffic {

/// Configuration for one ON-OFF source.
struct ParetoOnOffConfig {
  double mean_rate_bps = 5e6;   ///< long-run average rate
  double peak_rate_bps = 20e6;  ///< rate during ON bursts (> mean)
  std::uint32_t packet_size = 1500;
  double off_shape = 1.5;       ///< Pareto alpha of OFF durations
  std::uint32_t on_min_packets = 1;   ///< ON burst length lower bound
  std::uint32_t on_max_packets = 10;  ///< ON burst length upper bound
};

/// ON: sends a uniform(1..10)-packet burst back-to-back at the peak rate.
/// OFF: silent for a Pareto(alpha=1.5) duration whose scale is chosen so
/// the long-run rate equals mean_rate_bps.
class ParetoOnOffGenerator final : public Generator {
 public:
  ParetoOnOffGenerator(sim::Simulator& sim, sim::Path& path, std::size_t entry_hop,
                       bool one_hop, std::uint32_t flow_id, stats::Rng rng,
                       const ParetoOnOffConfig& cfg);

  /// Scale parameter (minimum OFF duration, seconds) derived from cfg.
  double off_scale_seconds() const { return off_scale_seconds_; }

 protected:
  sim::SimTime next_gap(stats::Rng& rng, sim::SimTime now) override;
  std::uint32_t next_size(stats::Rng& rng) override;

 private:
  ParetoOnOffConfig cfg_;
  sim::SimTime peak_gap_;          // interarrival within a burst
  double off_scale_seconds_;
  std::uint32_t remaining_in_burst_ = 0;
};

}  // namespace abw::traffic
