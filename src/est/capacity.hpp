// End-to-end capacity estimation with packet-pair dispersion (bprobe /
// pathrate lineage).  Crucially, this measures the *narrow* link C_n —
// the minimum capacity — NOT the tight link C_t that direct probing
// needs.  The paper's "estimating the tight link capacity with end-to-end
// capacity estimation tools" pitfall is demonstrated by feeding this
// tool's output into DirectProber/Spruce on a path whose narrow and tight
// links differ (bench/pitfall_narrow_tight).
#pragma once

#include "est/estimator.hpp"

namespace abw::est {

/// Parameters of the packet-pair capacity estimator.
struct CapacityConfig {
  std::uint32_t packet_size = 1500;
  std::size_t pair_count = 100;
  sim::SimTime mean_pair_gap = 20 * sim::kMillisecond;  ///< Poisson spacing
  double launch_rate_bps = 1e9;  ///< back-to-back at the sender
  std::size_t histogram_bins = 60;
};

/// Estimates the narrow-link capacity from the mode of per-pair
/// bandwidth estimates 8L/dispersion.
class CapacityEstimator {
 public:
  CapacityEstimator(const CapacityConfig& cfg, stats::Rng rng);

  /// Runs the measurement; returns the capacity estimate in bits/s, or 0
  /// if no pair survived.
  double estimate_capacity(probe::Transport& transport);

  /// Per-pair raw estimates from the last run.
  const std::vector<double>& last_samples() const { return samples_; }

 private:
  CapacityConfig cfg_;
  stats::Rng rng_;
  std::vector<double> samples_;
};

}  // namespace abw::est
