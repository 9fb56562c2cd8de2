#include "est/pathload.hpp"

#include <algorithm>
#include <stdexcept>

#include "probe/stream_spec.hpp"

namespace abw::est {

Pathload::Pathload(const PathloadConfig& cfg) : cfg_(cfg) {
  if (cfg.min_rate_bps <= 0.0 || cfg.max_rate_bps <= cfg.min_rate_bps)
    throw std::invalid_argument("Pathload: bad rate bracket");
  if (cfg.packets_per_stream < 10 || cfg.streams_per_fleet == 0)
    throw std::invalid_argument("Pathload: bad fleet geometry");
  if (cfg.resolution_bps <= 0.0)
    throw std::invalid_argument("Pathload: bad resolution");
}

FleetVerdict Pathload::probe_fleet(probe::Transport& transport, double rate_bps) {
  std::size_t increasing = 0;
  std::size_t non_increasing = 0;
  std::size_t usable = 0;

  for (std::size_t s = 0; s < cfg_.streams_per_fleet; ++s) {
    if (guard_ != nullptr &&
        (abort_ = guard_->exceeded()) != AbortReason::kNone)
      break;  // estimate() aborts right after; the verdict is discarded
    probe::StreamSpec spec = probe::StreamSpec::periodic(
        rate_bps, cfg_.packet_size, cfg_.packets_per_stream);
    probe::StreamResult res = transport.send_stream(spec, cfg_.inter_stream_gap);
    if (res.lost_count() * 10 > res.packets.size()) {
      // Loss above 10% is itself a congestion signal (the Pathload
      // paper's rule) — essential with shallow buffers, where the OWD
      // saturates at the queue cap and shows no trend while packets drop.
      ++increasing;
      ++usable;
      continue;
    }
    std::vector<double> owds = res.owds_seconds();
    switch (stats::combined_trend(owds, cfg_.trend)) {
      case stats::Trend::kIncreasing: ++increasing; ++usable; break;
      case stats::Trend::kNonIncreasing: ++non_increasing; ++usable; break;
      case stats::Trend::kAmbiguous: ++usable; break;
    }
  }

  if (usable == 0) return FleetVerdict::kGrey;
  double frac_inc = static_cast<double>(increasing) / static_cast<double>(usable);
  double frac_non = static_cast<double>(non_increasing) / static_cast<double>(usable);
  if (frac_inc >= cfg_.fleet_decisive_fraction) return FleetVerdict::kAboveAvailBw;
  if (frac_non >= cfg_.fleet_decisive_fraction) return FleetVerdict::kBelowAvailBw;
  return FleetVerdict::kGrey;
}

namespace {

std::string_view fleet_verdict_name(FleetVerdict v) {
  switch (v) {
    case FleetVerdict::kAboveAvailBw: return "above";
    case FleetVerdict::kBelowAvailBw: return "below";
    case FleetVerdict::kGrey: return "grey";
  }
  return "unknown";
}

}  // namespace

Estimate Pathload::do_estimate(probe::Transport& transport) {
  double lo = cfg_.min_rate_bps;   // highest rate verdicted below avail-bw
  double hi = cfg_.max_rate_bps;   // lowest rate verdicted above avail-bw
  double grey_lo = 0.0, grey_hi = 0.0;  // grey-region bounds (0 = unset)
  bool saw_grey = false;
  fleets_used_ = 0;

  LimitGuard guard(limits_, transport);
  guard_ = &guard;
  abort_ = AbortReason::kNone;

  while (fleets_used_ < cfg_.max_fleets && hi - lo > cfg_.resolution_bps) {
    // Next probing rate: bisect the undecided region.  With a grey region
    // present, bisect the wider flank around it (Pathload probes both
    // flanks to localize the grey-region edges).
    double rate;
    if (!saw_grey) {
      rate = (lo + hi) / 2.0;
    } else {
      double lower_gap = grey_lo - lo;
      double upper_gap = hi - grey_hi;
      if (lower_gap <= cfg_.resolution_bps / 2 && upper_gap <= cfg_.resolution_bps / 2)
        break;  // grey region localized
      rate = lower_gap > upper_gap ? (lo + grey_lo) / 2.0 : (grey_hi + hi) / 2.0;
    }

    ++fleets_used_;
    FleetVerdict verdict = probe_fleet(transport, rate);
    decision(transport, "fleet-verdict", fleet_verdict_name(verdict),
             fleets_used_, rate, hi - lo);
    if (abort_ != AbortReason::kNone) {
      guard_ = nullptr;
      return abort_estimate(abort_, name());
    }
    switch (verdict) {
      case FleetVerdict::kAboveAvailBw:
        hi = rate;
        if (saw_grey) grey_hi = std::min(grey_hi, rate);
        break;
      case FleetVerdict::kBelowAvailBw:
        lo = rate;
        if (saw_grey) grey_lo = std::max(grey_lo, rate);
        break;
      case FleetVerdict::kGrey:
        if (!saw_grey) {
          saw_grey = true;
          grey_lo = grey_hi = rate;
        } else {
          grey_lo = std::min(grey_lo, rate);
          grey_hi = std::max(grey_hi, rate);
        }
        break;
    }
    if (saw_grey) {
      grey_lo = std::clamp(grey_lo, lo, hi);
      grey_hi = std::clamp(grey_hi, lo, hi);
    }
  }

  guard_ = nullptr;

  // Report the variation range: the grey region widened to the final
  // bracket edges when they are tighter than the initial bracket.
  double out_lo = saw_grey ? std::min(grey_lo, lo) : lo;
  double out_hi = saw_grey ? std::max(grey_hi, hi) : hi;
  if (out_lo <= cfg_.min_rate_bps && out_hi >= cfg_.max_rate_bps) {
    Estimate e = Estimate::invalid("pathload: search did not converge");
    e.diag("fleets", static_cast<double>(fleets_used_));
    e.diag("grey", saw_grey ? 1.0 : 0.0);
    return e;
  }
  Estimate e = Estimate::range(out_lo, out_hi);
  e.detail = "fleets=" + std::to_string(fleets_used_) +
             (saw_grey ? " grey-region" : "");
  e.diag("fleets", static_cast<double>(fleets_used_));
  e.diag("streams",
         static_cast<double>(fleets_used_ * cfg_.streams_per_fleet));
  e.diag("grey", saw_grey ? 1.0 : 0.0);
  return e;
}

}  // namespace abw::est
