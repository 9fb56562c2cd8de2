#include "est/topp.hpp"

#include <limits>
#include <stdexcept>

#include "probe/stream_spec.hpp"
#include "stats/moments.hpp"
#include "stats/regression.hpp"

namespace abw::est {

Topp::Topp(const ToppConfig& cfg, stats::Rng rng) : cfg_(cfg), rng_(std::move(rng)) {
  if (cfg.min_rate_bps <= 0.0 || cfg.max_rate_bps <= cfg.min_rate_bps ||
      cfg.rate_step_bps <= 0.0)
    throw std::invalid_argument("Topp: bad rate sweep");
  if (cfg.packet_size == 0 || cfg.pairs_per_rate == 0)
    throw std::invalid_argument("Topp: bad stream parameters");
}

Estimate Topp::do_estimate(probe::Transport& transport) {
  curve_.clear();
  est_capacity_ = 0.0;

  LimitGuard guard(limits_, transport);
  for (double rate = cfg_.min_rate_bps; rate <= cfg_.max_rate_bps;
       rate += cfg_.rate_step_bps) {
    if (AbortReason r = guard.exceeded(); r != AbortReason::kNone) {
      return abort_estimate(r, name());
    }
    probe::StreamSpec spec = probe::StreamSpec::pair_train(
        rate, cfg_.packet_size, cfg_.pairs_per_rate, cfg_.mean_pair_gap, rng_);
    probe::StreamResult res = transport.send_stream(spec);

    // Average per-pair Ri/Ro: for a pair, Ri = 8L/g_in and Ro = 8L/g_out,
    // so Ri/Ro = g_out / g_in.
    double gin = sim::to_seconds(sim::transmission_time(cfg_.packet_size, rate));
    stats::RunningStats ratio;
    for (std::size_t p = 0; p + 1 < res.packets.size(); p += 2) {
      const auto& a = res.packets[p];
      const auto& b = res.packets[p + 1];
      if (a.lost || b.lost) continue;
      double gout = sim::to_seconds(b.received - a.received);
      ratio.add(gout / gin);
    }
    if (ratio.count() == 0) continue;
    decision(transport, "rate-point", "measured", curve_.size(), rate,
             ratio.mean());
    curve_.push_back({rate, ratio.mean()});
  }

  if (curve_.size() < 6) {
    Estimate e = Estimate::aborted(AbortReason::kInsufficientData,
                                   "topp: sweep produced too little data");
    e.diag("rates_measured", static_cast<double>(curve_.size()));
    return e;
  }

  // Segmented (two-piece) regression, as in Melander et al.: below the
  // turning point Ri/Ro is flat (~1 plus a packet-granularity floor);
  // above it, Ri/Ro = (Rc + Ri)/Ct.  Try every split position, fit both
  // segments, keep the split with the least total squared error, and read
  // the avail-bw off the segment intersection.
  std::vector<double> xs, ys;
  for (const auto& pt : curve_) {
    xs.push_back(pt.offered_rate_bps);
    ys.push_back(pt.mean_ratio);
  }

  double best_sse = std::numeric_limits<double>::infinity();
  stats::LinearFit best_lo, best_hi;
  bool found = false;
  for (std::size_t split = 3; split + 3 <= xs.size(); ++split) {
    std::vector<double> xlo(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(split));
    std::vector<double> ylo(ys.begin(), ys.begin() + static_cast<std::ptrdiff_t>(split));
    std::vector<double> xhi(xs.begin() + static_cast<std::ptrdiff_t>(split), xs.end());
    std::vector<double> yhi(ys.begin() + static_cast<std::ptrdiff_t>(split), ys.end());
    stats::LinearFit lo = stats::linear_fit(xlo, ylo);
    stats::LinearFit hi = stats::linear_fit(xhi, yhi);
    if (hi.slope <= lo.slope) continue;  // no upward bend at this split
    double sse = 0.0;
    for (std::size_t i = 0; i < split; ++i) {
      double e = ys[i] - (lo.slope * xs[i] + lo.intercept);
      sse += e * e;
    }
    for (std::size_t i = split; i < xs.size(); ++i) {
      double e = ys[i] - (hi.slope * xs[i] + hi.intercept);
      sse += e * e;
    }
    if (sse < best_sse) {
      best_sse = sse;
      best_lo = lo;
      best_hi = hi;
      found = true;
    }
  }

  if (found) {
    double a = (best_lo.intercept - best_hi.intercept) /
               (best_hi.slope - best_lo.slope);
    double ct = 1.0 / best_hi.slope;
    if (a >= cfg_.min_rate_bps && a <= cfg_.max_rate_bps && ct > 0.0 &&
        ct <= 10.0 * cfg_.max_rate_bps) {
      est_capacity_ = ct;
      Estimate e = Estimate::point(a);
      e.detail = "segmented regression: Ct=" + std::to_string(ct / 1e6) + "Mbps";
      e.diag("rates_measured", static_cast<double>(curve_.size()));
      e.diag("capacity_est_bps", ct);
      e.diag("fallback", 0.0);
      return e;
    }
  }

  // Fallback: the highest offered rate that still passed undistorted.
  double best = 0.0;
  for (const auto& pt : curve_)
    if (pt.mean_ratio <= cfg_.turning_threshold) best = pt.offered_rate_bps;
  if (best <= 0.0) {
    Estimate e = Estimate::invalid("topp: even the lowest rate was distorted");
    e.diag("rates_measured", static_cast<double>(curve_.size()));
    e.diag("fallback", 1.0);
    return e;
  }
  Estimate e = Estimate::point(best);
  e.detail = "threshold fallback (segmented regression unusable)";
  e.diag("rates_measured", static_cast<double>(curve_.size()));
  e.diag("fallback", 1.0);
  return e;
}

}  // namespace abw::est
