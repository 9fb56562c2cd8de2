#include "stats/histogram.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace abw::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (!(lo < hi) || bins == 0)
    throw std::invalid_argument("Histogram: need lo < hi and bins > 0");
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto idx = static_cast<std::size_t>((x - lo_) / (hi_ - lo_) *
                                      static_cast<double>(counts_.size()));
  idx = std::min(idx, counts_.size() - 1);
  ++counts_[idx];
}

double Histogram::bin_center(std::size_t i) const {
  double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + (static_cast<double>(i) + 0.5) * w;
}

std::string Histogram::render(std::size_t width) const {
  std::size_t peak = 1;
  for (std::size_t c : counts_) peak = std::max(peak, c);
  std::string out;
  char line[160];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    std::size_t bar = counts_[i] * width / peak;
    std::snprintf(line, sizeof line, "%12.4g | ", bin_center(i));
    out += line;
    out.append(bar, '#');
    std::snprintf(line, sizeof line, "  (%zu)\n", counts_[i]);
    out += line;
  }
  return out;
}

}  // namespace abw::stats
