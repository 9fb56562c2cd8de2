#include "sim/util_meter.hpp"

#include <stdexcept>

namespace abw::sim {

UtilizationMeter::UtilizationMeter(double capacity_bps) : capacity_bps_(capacity_bps) {
  if (!(capacity_bps > 0.0))
    throw std::invalid_argument("UtilizationMeter: capacity must be > 0");
}

void UtilizationMeter::fail_add_busy(bool overlap) const {
  if (overlap)
    throw std::logic_error("UtilizationMeter: overlapping busy interval");
  throw std::invalid_argument("UtilizationMeter: empty interval");
}

namespace {

// First index in [lo, hi) whose span fails `pred`; `pred` holds on a
// prefix of the log.
template <typename Log, typename Pred>
std::size_t partition_point(const Log& log, std::size_t lo, std::size_t hi,
                            Pred pred) {
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (pred(log[mid]))
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

}  // namespace

void UtilizationMeter::SpanLog::open_group() {
  if (size_ == blocks_.size() * kBlockSpans) blocks_.emplace_back(kBlockSpans);
  group_base_.push_back(total_);
}

void UtilizationMeter::SpanLog::reserve(std::size_t n) {
  const std::size_t spans = size_ + n;
  const std::size_t blocks = (spans + kBlockSpans - 1) / kBlockSpans;
  blocks_.reserve(blocks);
  while (blocks_.size() < blocks) blocks_.emplace_back(kBlockSpans);
  group_base_.reserve((spans + kGroupSpans - 1) / kGroupSpans);
}

SimTime UtilizationMeter::SpanLog::prefix(std::size_t i) const {
  if (i == size_) return total_;
  const std::size_t first = i / kGroupSpans * kGroupSpans;
  SimTime sum = group_base_[i / kGroupSpans];
  static_assert(kBlockSpans % kGroupSpans == 0, "a group must not straddle blocks");
  const Span* s = &(*this)[first];
  for (std::size_t k = first; k < i; ++k, ++s) sum += s->end - s->start;
  return sum;
}

SimTime UtilizationMeter::SpanLog::overlap(SimTime t1, SimTime t2) const {
  if (t2 <= t1) return 0;
  // lo = first span ending after t1; hi = first starting at/after t2.
  // Every span before lo starts before t2, so hi >= lo.
  const std::size_t lo =
      partition_point(*this, 0, size_, [t1](const Span& s) { return s.end <= t1; });
  const std::size_t hi =
      partition_point(*this, lo, size_, [t2](const Span& s) { return s.start < t2; });
  if (lo == hi) return 0;
  SimTime total = prefix(hi) - prefix(lo);
  // Trim the partially covered edge spans.
  if ((*this)[lo].start < t1) total -= t1 - (*this)[lo].start;
  if ((*this)[hi - 1].end > t2) total -= (*this)[hi - 1].end - t2;
  return total;
}

void UtilizationMeter::SpanLog::add_window_overlaps(
    SimTime t0, SimTime tau, std::vector<SimTime>& busy) const {
  // Window bounds only move forward, so the binary searches of overlap()
  // collapse to two cursors, and prefix(hi) - prefix(lo) to a running sum
  // of the spans between them.  Same integers as per-window overlap().
  std::size_t lo = 0, hi = 0;
  SimTime between = 0;  // busy total of spans [lo, hi)
  SimTime w1 = t0;
  for (SimTime& b : busy) {
    const SimTime w2 = w1 + tau;
    for (; hi < size_ && (*this)[hi].start < w2; ++hi)
      between += (*this)[hi].end - (*this)[hi].start;
    for (; lo < hi && (*this)[lo].end <= w1; ++lo)
      between -= (*this)[lo].end - (*this)[lo].start;
    if (lo < hi) {
      SimTime total = between;
      if ((*this)[lo].start < w1) total -= w1 - (*this)[lo].start;
      if ((*this)[hi - 1].end > w2) total -= (*this)[hi - 1].end - w2;
      b += total;
    }
    w1 = w2;
  }
}

SimTime UtilizationMeter::busy_time(SimTime t1, SimTime t2) const {
  return cross_.overlap(t1, t2) + meas_.overlap(t1, t2);
}

SimTime UtilizationMeter::measurement_busy_time(SimTime t1, SimTime t2) const {
  return meas_.overlap(t1, t2);
}

double UtilizationMeter::utilization(SimTime t1, SimTime t2) const {
  if (t2 <= t1) throw std::invalid_argument("utilization: empty window");
  return static_cast<double>(busy_time(t1, t2)) / static_cast<double>(t2 - t1);
}

void UtilizationMeter::set_capacity(SimTime t, double bps) {
  if (!(bps > 0.0))
    throw std::invalid_argument("UtilizationMeter: capacity must be > 0");
  if (!caps_.empty() && t < caps_.back().first)
    throw std::logic_error("UtilizationMeter: capacity steps out of order");
  caps_.emplace_back(t, bps);
}

double UtilizationMeter::capacity_at(SimTime t) const {
  double c = capacity_bps_;
  for (const auto& [at, bps] : caps_) {
    if (at > t) break;
    c = bps;
  }
  return c;
}

void UtilizationMeter::amend_last_end(SimTime new_end) {
  if (last_log_ < 0)
    throw std::logic_error("UtilizationMeter: no interval to amend");
  SpanLog& log = last_log_ ? meas_ : cross_;
  if (new_end <= log[log.size() - 1].start)
    throw std::logic_error("UtilizationMeter: amended end before start");
  log.set_back_end(new_end);
  last_end_ = new_end;
}

template <typename F>
void UtilizationMeter::for_each_capacity_segment(SimTime t1, SimTime t2,
                                                 F&& f) const {
  SimTime s = t1;
  double c = capacity_bps_;
  for (const auto& [at, bps] : caps_) {
    if (at <= s) {
      c = bps;  // step already in effect at the segment cursor
      continue;
    }
    if (at >= t2) break;
    f(s, at, c);
    s = at;
    c = bps;
  }
  if (s < t2) f(s, t2, c);
}

double UtilizationMeter::free_bits(SimTime t1, SimTime t2,
                                   bool exclude_measurement) const {
  double bits = 0.0;
  for_each_capacity_segment(t1, t2, [&](SimTime s1, SimTime s2, double c) {
    SimTime busy = exclude_measurement ? cross_.overlap(s1, s2) : busy_time(s1, s2);
    bits += c * to_seconds((s2 - s1) - busy);
  });
  return bits;
}

double UtilizationMeter::avail_bw(SimTime t1, SimTime t2) const {
  if (caps_.empty()) return capacity_bps_ * (1.0 - utilization(t1, t2));
  if (t2 <= t1) throw std::invalid_argument("utilization: empty window");
  return free_bits(t1, t2, /*exclude_measurement=*/false) / to_seconds(t2 - t1);
}

double UtilizationMeter::cross_avail_bw(SimTime t1, SimTime t2) const {
  if (t2 <= t1) throw std::invalid_argument("cross_avail_bw: empty window");
  if (!caps_.empty())
    return free_bits(t1, t2, /*exclude_measurement=*/true) / to_seconds(t2 - t1);
  double u = static_cast<double>(cross_.overlap(t1, t2)) / static_cast<double>(t2 - t1);
  return capacity_bps_ * (1.0 - u);
}

std::vector<double> UtilizationMeter::avail_bw_series(SimTime t0, SimTime t1,
                                                      SimTime tau,
                                                      bool exclude_measurement) const {
  if (tau <= 0) throw std::invalid_argument("avail_bw_series: tau must be > 0");
  std::vector<double> out;
  if (t0 + tau > t1) return out;
  out.reserve(static_cast<std::size_t>((t1 - t0) / tau));

  if (!caps_.empty()) {
    // Capacity-dynamic link (fault injection): per-window queries handle
    // windows straddling a capacity step exactly; the per-log sweeps
    // below assume one constant capacity.  Faulted runs are rare and
    // short — correctness over speed here.
    for (SimTime t = t0; t + tau <= t1; t += tau)
      out.push_back(exclude_measurement ? cross_avail_bw(t, t + tau)
                                        : avail_bw(t, t + tau));
    return out;
  }

  std::vector<SimTime> busy(static_cast<std::size_t>((t1 - t0) / tau), 0);
  cross_.add_window_overlaps(t0, tau, busy);
  if (!exclude_measurement) meas_.add_window_overlaps(t0, tau, busy);
  for (SimTime counted : busy) {
    double u = static_cast<double>(counted) / static_cast<double>(tau);
    out.push_back(capacity_bps_ * (1.0 - u));
  }
  return out;
}

void UtilizationMeter::reserve(std::size_t n) {
  cross_.reserve(n);
  meas_.reserve(n);
}

}  // namespace abw::sim
