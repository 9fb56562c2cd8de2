#include "trace/availbw_process.hpp"

#include <algorithm>
#include <stdexcept>

#include "stats/moments.hpp"
#include "stats/sampling.hpp"

namespace abw::trace {

AvailBwProcess::AvailBwProcess(const PacketTrace& trace)
    : capacity_bps_(trace.capacity_bps()),
      start_(trace.start_time()),
      end_(trace.end_time()) {
  if (trace.size() < 2)
    throw std::invalid_argument("AvailBwProcess: trace too short");
  times_.reserve(trace.size());
  cum_bytes_.reserve(trace.size());
  std::uint64_t acc = 0;
  for (const auto& r : trace.records()) {
    times_.push_back(r.at);
    acc += r.size_bytes;
    cum_bytes_.push_back(acc);
  }
}

std::uint64_t AvailBwProcess::bytes_in(sim::SimTime t1, sim::SimTime t2) const {
  if (t2 <= t1) return 0;
  // Count arrivals with t1 <= at < t2 via prefix sums.
  auto lo = std::lower_bound(times_.begin(), times_.end(), t1) - times_.begin();
  auto hi = std::lower_bound(times_.begin(), times_.end(), t2) - times_.begin();
  if (lo >= hi) return 0;
  std::uint64_t upto_hi = cum_bytes_[static_cast<std::size_t>(hi - 1)];
  std::uint64_t upto_lo = lo == 0 ? 0 : cum_bytes_[static_cast<std::size_t>(lo - 1)];
  return upto_hi - upto_lo;
}

double AvailBwProcess::arrival_rate(sim::SimTime t1, sim::SimTime t2) const {
  if (t2 <= t1) throw std::invalid_argument("arrival_rate: empty window");
  return static_cast<double>(bytes_in(t1, t2)) * 8.0 / sim::to_seconds(t2 - t1);
}

double AvailBwProcess::avail_bw(sim::SimTime t, sim::SimTime tau) const {
  return std::max(0.0, capacity_bps_ - arrival_rate(t, t + tau));
}

std::vector<double> AvailBwProcess::series(sim::SimTime tau) const {
  if (tau <= 0) throw std::invalid_argument("series: tau must be > 0");
  std::vector<double> out;
  for (sim::SimTime t = start_; t + tau <= end_; t += tau)
    out.push_back(avail_bw(t, tau));
  return out;
}

std::vector<double> AvailBwProcess::poisson_samples(std::size_t count,
                                                    sim::SimTime tau,
                                                    stats::Rng& rng) const {
  double horizon = sim::to_seconds(end_ - start_ - tau);
  if (horizon <= 0.0) throw std::invalid_argument("poisson_samples: trace shorter than tau");
  std::vector<double> instants = stats::poisson_sample_times(count, horizon, rng);
  std::vector<double> out;
  out.reserve(instants.size());
  for (double s : instants)
    out.push_back(avail_bw(start_ + sim::from_seconds(s), tau));
  return out;
}

double AvailBwProcess::mean_avail_bw() const {
  return std::max(0.0, capacity_bps_ - arrival_rate(start_, end_));
}

double AvailBwProcess::stddev_at(sim::SimTime tau) const {
  return stats::stddev(series(tau));
}

std::pair<double, double> AvailBwProcess::variation_range(sim::SimTime tau,
                                                          double q) const {
  std::vector<double> s = series(tau);
  return {stats::quantile(s, q), stats::quantile(s, 1.0 - q)};
}

}  // namespace abw::trace
