#include "est/schirp.hpp"

#include <stdexcept>

#include "probe/stream_spec.hpp"
#include "stats/moments.hpp"

namespace abw::est {

SChirp::SChirp(const SChirpConfig& cfg)
    : cfg_(cfg), inner_([&] {
        PathChirpConfig inner_cfg = cfg.chirp;
        inner_cfg.busy_threshold_fraction = cfg.busy_threshold_fraction;
        inner_cfg.onset_backoff_packets = cfg.smooth_window - 1;
        return inner_cfg;
      }()) {
  if (cfg.smooth_window == 0 || cfg.smooth_window % 2 == 0)
    throw std::invalid_argument("SChirp: smooth_window must be odd and >= 1");
  if (cfg.busy_threshold_fraction <= 0.0 || cfg.busy_threshold_fraction >= 1.0)
    throw std::invalid_argument("SChirp: busy_threshold_fraction in (0,1)");
}

std::vector<double> SChirp::smooth(const std::vector<double>& xs,
                                   std::size_t window) {
  if (window <= 1 || xs.size() < window) return xs;
  // Trailing (causal) average: a spike at index k is never smeared to
  // indices < k, so excursion ONSETS are not advanced — a centered window
  // would shift the congestion-onset detection earlier and bias the
  // estimate low.  The slight onset delay this causes is conservative.
  std::vector<double> out(xs.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sum += xs[i];
    if (i >= window) sum -= xs[i - window];
    std::size_t have = std::min(i + 1, window);
    out[i] = sum / static_cast<double>(have);
  }
  return out;
}

Estimate SChirp::do_estimate(probe::Transport& transport) {
  const PathChirpConfig& cc = cfg_.chirp;
  probe::StreamSpec spec = probe::StreamSpec::chirp(
      cc.low_rate_bps, cc.spread_factor, cc.packet_size, cc.packets_per_chirp);

  std::vector<double> rates, gaps;
  for (std::size_t k = 1; k < spec.packets.size(); ++k) {
    rates.push_back(spec.instantaneous_rate(k));
    gaps.push_back(
        sim::to_seconds(spec.packets[k].offset - spec.packets[k - 1].offset));
  }

  std::vector<double> per_chirp;
  LimitGuard guard(limits_, transport);
  for (std::size_t c = 0; c < cc.chirps; ++c) {
    if (AbortReason r = guard.exceeded(); r != AbortReason::kNone) {
      return abort_estimate(r, name());
    }
    probe::StreamResult res = transport.send_stream(spec, cc.inter_chirp_gap);
    if (!res.complete()) {
      decision(transport, "chirp", "discarded", c, 0.0);
      continue;
    }
    std::vector<double> owds = smooth(res.owds_seconds(), cfg_.smooth_window);
    double e = inner_.analyze_chirp(owds, rates, gaps);
    decision(transport, "chirp", e > 0.0 ? "usable" : "unusable", c, e);
    if (e > 0.0) per_chirp.push_back(e);
  }
  if (per_chirp.empty()) {
    Estimate e = Estimate::aborted(AbortReason::kInsufficientData,
                                   "schirp: no usable chirps");
    e.diag("chirps_used", 0.0);
    e.diag("smooth_window", static_cast<double>(cfg_.smooth_window));
    return e;
  }
  // Median across chirps: single-chirp excursion analysis is noisy in
  // both directions (spurious early onsets, missed final excursions), and
  // the robust-location spirit of the smoothed variant extends naturally
  // to the cross-chirp aggregate.
  Estimate e = Estimate::point(stats::median(per_chirp));
  e.detail = "chirps=" + std::to_string(per_chirp.size()) +
             " smooth=" + std::to_string(cfg_.smooth_window);
  e.diag("chirps_used", static_cast<double>(per_chirp.size()));
  e.diag("smooth_window", static_cast<double>(cfg_.smooth_window));
  return e;
}

}  // namespace abw::est
