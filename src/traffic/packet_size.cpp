#include "traffic/packet_size.hpp"

#include <stdexcept>

namespace abw::traffic {

SizeDistribution SizeDistribution::fixed(std::uint32_t size) {
  if (size == 0) throw std::invalid_argument("SizeDistribution: zero size");
  return SizeDistribution({size}, {1.0}, static_cast<double>(size));
}

SizeDistribution SizeDistribution::modal(
    std::vector<std::pair<std::uint32_t, double>> modes) {
  if (modes.empty()) throw std::invalid_argument("SizeDistribution: no modes");
  double total = 0.0;
  for (const auto& [size, w] : modes) {
    if (size == 0 || w <= 0.0)
      throw std::invalid_argument("SizeDistribution: invalid mode");
    total += w;
  }
  std::vector<std::uint32_t> sizes;
  std::vector<double> cum;
  double acc = 0.0, mean = 0.0;
  for (const auto& [size, w] : modes) {
    acc += w / total;
    sizes.push_back(size);
    cum.push_back(acc);
    mean += static_cast<double>(size) * (w / total);
  }
  cum.back() = 1.0;  // guard against floating-point shortfall
  return SizeDistribution(std::move(sizes), std::move(cum), mean);
}

SizeDistribution SizeDistribution::internet_mix() {
  return modal({{40, 0.4}, {576, 0.2}, {1500, 0.4}});
}

}  // namespace abw::traffic
