#include "core/monitor.hpp"

#include <algorithm>
#include <stdexcept>

namespace abw::core {

namespace {

est::PathloadConfig tracker_fleet(const MonitorConfig& cfg) {
  est::PathloadConfig pl = cfg.pathload;
  pl.min_rate_bps = cfg.min_rate_bps;
  pl.max_rate_bps = cfg.max_rate_bps;
  return pl;
}

}  // namespace

AvailBwMonitor::AvailBwMonitor(Scenario& scenario, const MonitorConfig& cfg)
    : scenario_(scenario), cfg_(cfg), pathload_(tracker_fleet(cfg)) {
  if (cfg.min_rate_bps <= 0.0 || cfg.max_rate_bps <= cfg.min_rate_bps)
    throw std::invalid_argument("AvailBwMonitor: bad rate clamp");
  if (cfg.probe_margin <= 0.0 || cfg.probe_margin >= 1.0)
    throw std::invalid_argument("AvailBwMonitor: probe_margin in (0,1)");
  if (cfg.adapt_step <= 0.0 || cfg.adapt_step > 1.0)
    throw std::invalid_argument("AvailBwMonitor: adapt_step in (0,1]");
  if (cfg.period <= 0) throw std::invalid_argument("AvailBwMonitor: bad period");
  estimate_ = cfg.initial_estimate_bps;
}

void AvailBwMonitor::bootstrap() {
  est::Estimate e = pathload_.estimate(scenario_.transport());
  estimate_ = e.valid ? e.point_bps()
                      : 0.5 * (cfg_.min_rate_bps + cfg_.max_rate_bps);
}

void AvailBwMonitor::take_reading() {
  sim::SimTime t0 = scenario_.simulator().now();

  // Probe one fleet just below and one just above the tracked estimate.
  double lo_rate = estimate_ * (1.0 - cfg_.probe_margin);
  double hi_rate = estimate_ * (1.0 + cfg_.probe_margin);
  lo_rate = std::clamp(lo_rate, cfg_.min_rate_bps, cfg_.max_rate_bps);
  hi_rate = std::clamp(hi_rate, cfg_.min_rate_bps, cfg_.max_rate_bps);

  est::FleetVerdict below = pathload_.probe_fleet(scenario_.transport(), lo_rate);
  est::FleetVerdict above = pathload_.probe_fleet(scenario_.transport(), hi_rate);

  double step = cfg_.adapt_step * cfg_.probe_margin * estimate_;
  if (below == est::FleetVerdict::kAboveAvailBw) {
    // Even the low probe congests: the avail-bw fell below our window.
    estimate_ -= 2.0 * step;
  } else if (above == est::FleetVerdict::kBelowAvailBw) {
    // Even the high probe passes clean: the avail-bw rose above it.
    estimate_ += 2.0 * step;
  } else if (below == est::FleetVerdict::kBelowAvailBw &&
             above == est::FleetVerdict::kAboveAvailBw) {
    // Bracketed: nudge toward the midpoint of the window (no-op by
    // construction, but re-center after clamping).
    estimate_ = (lo_rate + hi_rate) / 2.0;
  } else if (below == est::FleetVerdict::kGrey) {
    estimate_ -= step;  // avail-bw is wandering around the low probe
  } else if (above == est::FleetVerdict::kGrey) {
    estimate_ += step;
  }
  estimate_ = std::clamp(estimate_, cfg_.min_rate_bps, cfg_.max_rate_bps);

  sim::SimTime t1 = scenario_.simulator().now();
  MonitorReading r;
  r.at = t1;
  r.estimate_bps = estimate_;
  r.ground_truth_bps = t1 > t0 ? scenario_.path().cross_avail_bw(t0, t1)
                               : scenario_.recent_ground_truth(cfg_.period);
  readings_.push_back(r);
}

std::vector<MonitorReading> AvailBwMonitor::run_until(sim::SimTime until) {
  std::size_t first_new = readings_.size();
  if (estimate_ <= 0.0) bootstrap();
  while (scenario_.simulator().now() + cfg_.period <= until) {
    sim::SimTime next = scenario_.simulator().now() + cfg_.period;
    take_reading();
    // Idle until the next period boundary (a real monitor sleeps).
    if (scenario_.simulator().now() < next) scenario_.simulator().run_until(next);
  }
  return {readings_.begin() + static_cast<std::ptrdiff_t>(first_new),
          readings_.end()};
}

}  // namespace abw::core
