// Packet-size distributions for cross traffic.
//
// The paper's "packet pairs are as good as packet trains" fallacy hinges on
// cross traffic having *discrete, strongly modal* packet sizes (one 1500 B
// packet vs. two 40 B packets interleaving a probe pair), so size
// distributions are first-class here: fixed, empirical-modal (the classic
// 40/576/1500 Internet mix), and uniform.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "stats/rng.hpp"

namespace abw::traffic {

/// A discrete packet-size distribution: sizes with probabilities.
class SizeDistribution {
 public:
  /// Point mass at `size` bytes.
  static SizeDistribution fixed(std::uint32_t size);

  /// Modal mix: {(size, weight)}; weights are normalized internally.
  static SizeDistribution modal(std::vector<std::pair<std::uint32_t, double>> modes);

  /// The classic Internet trimodal mix: 40 B (40%), 576 B (20%), 1500 B (40%).
  static SizeDistribution internet_mix();

  /// Draws a size: one uniform u, then the first mode whose cumulative
  /// probability reaches u (what std::lower_bound over the cumulative
  /// weights finds).  That mode's index is the count of cumulative
  /// weights below u among all but the last, so the draw compiles to
  /// compares and adds with no branch on u.
  std::uint32_t sample(stats::Rng& rng) const {
    const double u = rng.uniform01();
    std::size_t idx = 0;
    for (std::size_t i = 0; i + 1 < cum_.size(); ++i) idx += cum_[i] < u;
    return sizes_[idx];
  }

  /// Mean size in bytes.
  double mean() const { return mean_; }

 private:
  SizeDistribution(std::vector<std::uint32_t> sizes, std::vector<double> cum,
                   double mean)
      : sizes_(std::move(sizes)), cum_(std::move(cum)), mean_(mean) {}

  std::vector<std::uint32_t> sizes_;
  std::vector<double> cum_;  // cumulative probabilities, back() == 1
  double mean_;
};

}  // namespace abw::traffic
