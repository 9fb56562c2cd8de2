// Console reporting helpers for the bench binaries: aligned tables,
// Mb/s / percentage formatting, ASCII series plots, and paper-vs-measured
// verdict lines (EXPERIMENTS.md is assembled from these outputs).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace abw::core {

/// Formats bits/s as "NN.N Mbps".
std::string mbps(double bps, int precision = 1);

/// Formats a fraction as "NN.N%".
std::string pct(double fraction, int precision = 1);

/// Fixed-width text table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds a row; must have as many cells as there are headers.
  void row(std::vector<std::string> cells);

  /// Renders with column alignment.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints a banner line naming the experiment.
void print_header(std::ostream& os, const std::string& experiment,
                  const std::string& paper_ref);

/// Prints a paper-claim check: the qualitative statement, what we
/// measured, and MATCH / MISMATCH.  Returns `match`; the verdict binaries
/// exit 1 on MISMATCH.
bool print_check(std::ostream& os, const std::string& claim,
                 const std::string& measured, bool match);

/// Renders a y-vs-x series as a crude ASCII plot (for OWD time series and
/// sample paths in bench output).
std::string ascii_plot(const std::vector<double>& ys, std::size_t height = 12,
                       std::size_t width = 72);

}  // namespace abw::core
