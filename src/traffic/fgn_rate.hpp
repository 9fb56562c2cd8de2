// Rate-modulated traffic driven by fractional Gaussian noise.
//
// The alternative (and exactly-tunable) route to a self-similar workload:
// a target rate series R_w = mean + rel_std * mean * fGn_w(H) over windows
// of fixed length, realized as Poisson packet arrivals within each window.
// Used by the synthetic NLANR-substitute trace where we must dial in a
// specific Hurst parameter and coefficient of variation.
#pragma once

#include <vector>

#include "traffic/generator.hpp"

namespace abw::traffic {

/// Configuration for FgnRateGenerator.
struct FgnRateConfig {
  double mean_rate_bps = 70e6;  ///< long-run average rate
  double rel_std = 0.25;        ///< stddev of the window rate / mean
  double hurst = 0.8;           ///< Hurst parameter of the rate process
  sim::SimTime window = sim::kMillisecond;  ///< modulation window length
  std::uint32_t packet_size = 1500;
};

/// Emits Poisson arrivals whose intensity is re-drawn every `window` from
/// a precomputed fGn series (clamped at >= 1% of the mean so the rate
/// stays positive).  The fGn series is generated on the first draw.
class FgnRateGenerator final : public Generator {
 public:
  FgnRateGenerator(sim::Simulator& sim, sim::Path& path, std::size_t entry_hop,
                   bool one_hop, std::uint32_t flow_id, stats::Rng rng,
                   const FgnRateConfig& cfg);

 protected:
  sim::SimTime next_gap(stats::Rng& rng, sim::SimTime now) override;
  std::uint32_t next_size(stats::Rng& rng) override;

 private:
  double rate_at(sim::SimTime t);

  FgnRateConfig cfg_;
  std::vector<double> rates_;  // per-window target rates, lazily built
  sim::SimTime series_origin_ = -1;
  sim::SimTime window_end_ = -1;  // end of the cached modulation window
  double window_rate_ = 0.0;      // rate of the cached window
};

}  // namespace abw::traffic
