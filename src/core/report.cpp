#include "core/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace abw::core {

std::string mbps(double bps, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f Mbps", precision, bps / 1e6);
  return buf;
}

std::string pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, fraction * 100.0);
  return buf;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: no headers");
}

void Table::row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size())
    throw std::invalid_argument("Table: cell count mismatch");
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size(); ++c)
      widths[c] = std::max(widths[c], r[c].size());

  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << "  " << cells[c];
      for (std::size_t pad = cells[c].size(); pad < widths[c]; ++pad) os << ' ';
    }
    os << '\n';
  };
  emit(headers_);
  std::string rule;
  for (std::size_t c = 0; c < widths.size(); ++c)
    rule += "  " + std::string(widths[c], '-');
  os << rule << '\n';
  for (const auto& r : rows_) emit(r);
}

void print_header(std::ostream& os, const std::string& experiment,
                  const std::string& paper_ref) {
  os << "\n=== " << experiment << "  [" << paper_ref << "] ===\n";
}

bool print_check(std::ostream& os, const std::string& claim,
                 const std::string& measured, bool match) {
  os << "  paper: " << claim << "\n  ours:  " << measured << "\n  => "
     << (match ? "MATCH" : "MISMATCH") << "\n";
  return match;
}

std::string ascii_plot(const std::vector<double>& ys, std::size_t height,
                       std::size_t width) {
  if (ys.empty() || height < 2 || width < 2) return "(no data)\n";
  double lo = *std::min_element(ys.begin(), ys.end());
  double hi = *std::max_element(ys.begin(), ys.end());
  if (hi - lo < 1e-12) hi = lo + 1.0;

  std::vector<std::string> grid(height, std::string(width, ' '));
  for (std::size_t x = 0; x < width; ++x) {
    // Downsample: average the ys bucket mapped to this column.
    std::size_t b0 = x * ys.size() / width;
    std::size_t b1 = std::max(b0 + 1, (x + 1) * ys.size() / width);
    double v = 0.0;
    for (std::size_t i = b0; i < b1 && i < ys.size(); ++i) v += ys[i];
    v /= static_cast<double>(std::min(b1, ys.size()) - b0);
    auto y = static_cast<std::size_t>((v - lo) / (hi - lo) *
                                      static_cast<double>(height - 1));
    y = std::min(y, height - 1);
    grid[height - 1 - y][x] = '*';
  }

  char label[64];
  std::string out;
  std::snprintf(label, sizeof label, "%12.4g +", hi);
  out += label;
  out += grid.front() + "\n";
  for (std::size_t r = 1; r + 1 < height; ++r)
    out += "             |" + grid[r] + "\n";
  std::snprintf(label, sizeof label, "%12.4g +", lo);
  out += label;
  out += grid.back() + "\n";
  return out;
}

}  // namespace abw::core
