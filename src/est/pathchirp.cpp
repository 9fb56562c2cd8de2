#include "est/pathchirp.hpp"

#include <algorithm>
#include <stdexcept>

#include "probe/stream_spec.hpp"
#include "stats/moments.hpp"

namespace abw::est {

PathChirp::PathChirp(const PathChirpConfig& cfg) : cfg_(cfg) {
  if (cfg.low_rate_bps <= 0.0 || cfg.spread_factor <= 1.0)
    throw std::invalid_argument("PathChirp: bad rate geometry");
  if (cfg.packets_per_chirp < 4 || cfg.chirps == 0)
    throw std::invalid_argument("PathChirp: bad chirp geometry");
}

double PathChirp::analyze_chirp(const std::vector<double>& owds,
                                const std::vector<double>& rates,
                                const std::vector<double>& gaps) const {
  // owds: one per packet (N); rates/gaps: one per gap (N-1), where
  // rates[k] is the instantaneous rate probed by the gap *before* packet
  // k+1, i.e. between packets k and k+1.
  std::size_t n = owds.size();
  if (n < 4 || rates.size() != n - 1 || gaps.size() != n - 1) return 0.0;

  // Queueing-delay signature relative to the chirp's minimum OWD.
  double base = *std::min_element(owds.begin(), owds.end());
  std::vector<double> q(n);
  double qmax = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    q[i] = owds[i] - base;
    qmax = std::max(qmax, q[i]);
  }
  if (qmax <= 0.0) {
    // No queueing anywhere: avail-bw is at least the top probed rate.
    return rates.back();
  }
  double thresh = cfg_.busy_threshold_fraction * qmax;

  // First pass: find the congestion onset — the start of a final
  // excursion that never returns to ~zero (rule b).  When it exists, the
  // avail-bw was crossed at the onset gap's rate; gaps with no queueing
  // then carry no *additional* information (they only bound A from below
  // at a lower rate), so they default to the onset rate rather than the
  // chirp's top rate.  This deviates from the original paper's
  // R_{N-1} default deliberately: with exponentially shrinking gaps the
  // early (long, low-rate) gaps dominate the weighted average, and the
  // original default would pull every estimate toward the top rate (see
  // DESIGN.md).  Without an unterminated excursion the chirp never
  // congested the path and the top rate is the correct default (rule c).
  double base_rate = rates.back();
  {
    std::size_t j = n;
    while (j > 0 && q[j - 1] > thresh) --j;
    if (j < n) {  // q stayed above threshold from packet j to the end
      std::size_t start = j == 0 ? 0 : j - 1;
      // Undo the crossing delay a causal smoothing filter introduces.
      start = start > cfg_.onset_backoff_packets
                  ? start - cfg_.onset_backoff_packets
                  : 0;
      base_rate = rates[std::min(start, rates.size() - 1)];
    }
  }

  std::vector<double> estimate(n - 1, base_rate);

  // Second pass over terminated excursions: rising-phase packets inside a
  // qualifying excursion get their own instantaneous rate (rule a).
  std::size_t i = 0;
  while (i < n) {
    if (q[i] <= thresh) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < n && q[j] > thresh) ++j;
    bool terminated = j < n;
    if (terminated && j - i >= cfg_.min_excursion_len) {
      for (std::size_t k = i; k + 1 < j; ++k) {
        if (q[k + 1] > q[k] && k < estimate.size())
          estimate[k] = std::min(rates[k], base_rate);
      }
    }
    i = j;
  }

  // Interarrival-weighted average.
  double num = 0.0, den = 0.0;
  for (std::size_t k = 0; k < estimate.size(); ++k) {
    num += estimate[k] * gaps[k];
    den += gaps[k];
  }
  return den > 0.0 ? num / den : 0.0;
}

Estimate PathChirp::do_estimate(probe::Transport& transport) {
  chirp_estimates_.clear();

  probe::StreamSpec spec = probe::StreamSpec::chirp(
      cfg_.low_rate_bps, cfg_.spread_factor, cfg_.packet_size,
      cfg_.packets_per_chirp);

  std::vector<double> rates, gaps;
  for (std::size_t k = 1; k < spec.packets.size(); ++k) {
    rates.push_back(spec.instantaneous_rate(k));
    gaps.push_back(
        sim::to_seconds(spec.packets[k].offset - spec.packets[k - 1].offset));
  }

  LimitGuard guard(limits_, transport);
  for (std::size_t c = 0; c < cfg_.chirps; ++c) {
    if (AbortReason r = guard.exceeded(); r != AbortReason::kNone) {
      return abort_estimate(r, name());
    }
    probe::StreamResult res = transport.send_stream(spec, cfg_.inter_chirp_gap);
    if (!res.complete()) {
      decision(transport, "chirp", "discarded", c, 0.0);
      continue;  // chirps with loss are discarded
    }
    double e = analyze_chirp(res.owds_seconds(), rates, gaps);
    decision(transport, "chirp", e > 0.0 ? "usable" : "unusable", c, e);
    if (e > 0.0) chirp_estimates_.push_back(e);
  }

  if (chirp_estimates_.empty()) {
    Estimate e = Estimate::aborted(AbortReason::kInsufficientData,
                                   "pathchirp: no usable chirps");
    e.diag("chirps_used", 0.0);
    e.diag("chirps_sent", static_cast<double>(cfg_.chirps));
    return e;
  }
  Estimate e = Estimate::point(stats::mean(chirp_estimates_));
  e.detail = "chirps=" + std::to_string(chirp_estimates_.size());
  e.diag("chirps_used", static_cast<double>(chirp_estimates_.size()));
  e.diag("chirps_sent", static_cast<double>(cfg_.chirps));
  return e;
}

}  // namespace abw::est
