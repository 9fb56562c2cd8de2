#include "stats/trend.hpp"

#include <algorithm>
#include <cmath>

#include "stats/moments.hpp"

namespace abw::stats {

const char* to_string(Trend t) {
  switch (t) {
    case Trend::kIncreasing: return "increasing";
    case Trend::kNonIncreasing: return "non-increasing";
    case Trend::kAmbiguous: return "ambiguous";
  }
  return "?";
}

std::vector<double> group_medians(const std::vector<double>& owds) {
  std::size_t n = owds.size();
  if (n == 0) return {};
  auto groups = static_cast<std::size_t>(std::floor(std::sqrt(static_cast<double>(n))));
  if (groups < 2) return owds;  // too short to group; use raw values
  std::size_t per = n / groups;
  std::vector<double> medians;
  medians.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    auto begin = owds.begin() + static_cast<std::ptrdiff_t>(g * per);
    auto end = (g + 1 == groups) ? owds.end()
                                 : begin + static_cast<std::ptrdiff_t>(per);
    medians.push_back(median(std::vector<double>(begin, end)));
  }
  return medians;
}

namespace {

// The statistics and the significance floor, computed on group medians the
// caller already built, so combined_trend() builds them (and the MAD) once
// for both tests.

double pct_of_medians(const std::vector<double>& m) {
  if (m.size() < 2) return 0.5;
  std::size_t up = 0;
  for (std::size_t k = 1; k < m.size(); ++k)
    if (m[k] > m[k - 1]) ++up;
  return static_cast<double>(up) / static_cast<double>(m.size() - 1);
}

double pdt_of_medians(const std::vector<double>& m) {
  if (m.size() < 2) return 0.0;
  double denom = 0.0;
  for (std::size_t k = 1; k < m.size(); ++k) denom += std::abs(m[k] - m[k - 1]);
  if (denom == 0.0) return 0.0;  // perfectly flat series: no trend
  return (m.back() - m.front()) / denom;
}

bool significant_medians(const std::vector<double>& m,
                         const std::vector<double>& owds,
                         const TrendConfig& cfg) {
  if (m.size() < 2) return false;
  auto [lo, hi] = std::minmax_element(m.begin(), m.end());
  double range = *hi - *lo;
  if (range <= cfg.min_range_seconds) return false;
  return range > cfg.min_range_mad_factor * median_abs_deviation(owds);
}

Trend classify(double s, double increasing, double non_increasing) {
  if (s > increasing) return Trend::kIncreasing;
  if (s < non_increasing) return Trend::kNonIncreasing;
  return Trend::kAmbiguous;
}

}  // namespace

double pct_statistic(const std::vector<double>& owds) {
  return pct_of_medians(group_medians(owds));
}

double pdt_statistic(const std::vector<double>& owds) {
  return pdt_of_medians(group_medians(owds));
}

double median_abs_deviation(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double m = median(xs);
  std::vector<double> dev;
  dev.reserve(xs.size());
  for (double x : xs) dev.push_back(std::abs(x - m));
  return median(std::move(dev));
}

bool trend_signal_significant(const std::vector<double>& owds,
                              const TrendConfig& cfg) {
  return significant_medians(group_medians(owds), owds, cfg);
}

Trend pct_trend(const std::vector<double>& owds, const TrendConfig& cfg) {
  if (!trend_signal_significant(owds, cfg)) return Trend::kNonIncreasing;
  return classify(pct_statistic(owds), cfg.pct_increasing,
                  cfg.pct_non_increasing);
}

Trend pdt_trend(const std::vector<double>& owds, const TrendConfig& cfg) {
  if (!trend_signal_significant(owds, cfg)) return Trend::kNonIncreasing;
  return classify(pdt_statistic(owds), cfg.pdt_increasing,
                  cfg.pdt_non_increasing);
}

Trend combined_trend(const std::vector<double>& owds, const TrendConfig& cfg) {
  // One set of group medians and at most one MAD serve both tests; an
  // insignificant series is non-increasing under either.
  const std::vector<double> m = group_medians(owds);
  if (!significant_medians(m, owds, cfg)) return Trend::kNonIncreasing;
  Trend a = classify(pct_of_medians(m), cfg.pct_increasing,
                     cfg.pct_non_increasing);
  Trend b = classify(pdt_of_medians(m), cfg.pdt_increasing,
                     cfg.pdt_non_increasing);
  if (a == b) return a;
  // One test is decisive, the other ambiguous: follow the decisive one.
  if (a == Trend::kAmbiguous) return b;
  if (b == Trend::kAmbiguous) return a;
  // The tests contradict each other outright.
  return Trend::kAmbiguous;
}

}  // namespace abw::stats
