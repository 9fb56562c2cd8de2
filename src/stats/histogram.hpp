// Fixed-bin histogram, used by benches to print distribution summaries and
// by tests to sanity-check generator output shapes.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace abw::stats {

/// Equal-width histogram over [lo, hi) with `bins` buckets plus under/over
/// flow counters.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }
  std::size_t total() const { return total_; }
  std::size_t bins() const { return counts_.size(); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  /// Center x-value of bin i.
  double bin_center(std::size_t i) const;

  /// ASCII rendering for bench output: one line per bin with a bar.
  std::string render(std::size_t width = 50) const;

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0, overflow_ = 0, total_ = 0;
};

}  // namespace abw::stats
