#include "traffic/fgn_rate.hpp"

#include <algorithm>
#include <stdexcept>

#include "stats/fgn.hpp"

namespace abw::traffic {

namespace {
// Length of the precomputed rate series; at the default 1 ms window this
// covers ~131 s before the modulation cycles, far beyond any experiment.
constexpr std::size_t kSeriesLength = 1 << 17;
}  // namespace

FgnRateGenerator::FgnRateGenerator(sim::Simulator& sim, sim::Path& path,
                                   std::size_t entry_hop, bool one_hop,
                                   std::uint32_t flow_id, stats::Rng rng,
                                   const FgnRateConfig& cfg)
    : Generator(sim, path, entry_hop, one_hop, flow_id, std::move(rng)), cfg_(cfg) {
  if (!(cfg.mean_rate_bps > 0.0) || !(cfg.rel_std >= 0.0) || cfg.window <= 0)
    throw std::invalid_argument("FgnRateGenerator: bad config");
  if (!(cfg.hurst > 0.0 && cfg.hurst < 1.0))
    throw std::invalid_argument("FgnRateGenerator: hurst must be in (0,1)");
}

double FgnRateGenerator::rate_at(sim::SimTime t) {
  // Arrival times are queried in nondecreasing order, so the common case
  // is "same modulation window as last time" — answered from the cached
  // rate without the 64-bit division (a division per arrival is the
  // single most expensive instruction in this generator's hot path).
  if (t < window_end_ && series_origin_ >= 0) return window_rate_;
  if (series_origin_ < 0) {
    // Lazily synthesize on first use (needs the generator's own RNG).
    series_origin_ = t;
    std::vector<double> noise = stats::generate_fgn(kSeriesLength, cfg_.hurst, rng());
    rates_.resize(kSeriesLength);
    for (std::size_t i = 0; i < kSeriesLength; ++i) {
      double r = cfg_.mean_rate_bps * (1.0 + cfg_.rel_std * noise[i]);
      // Clamp so the intensity stays strictly positive even deep in the
      // Gaussian tail.
      rates_[i] = std::max(r, 0.01 * cfg_.mean_rate_bps);
    }
  }
  auto idx = static_cast<std::size_t>((t - series_origin_) / cfg_.window);
  window_end_ = series_origin_ + static_cast<sim::SimTime>(idx + 1) * cfg_.window;
  window_rate_ = rates_[idx % kSeriesLength];
  return window_rate_;
}

sim::SimTime FgnRateGenerator::next_gap(stats::Rng& rng, sim::SimTime now) {
  // Exponential gap at the intensity of the current window: a Poisson
  // process modulated by the fGn rate series (doubly stochastic).  Windows
  // are long relative to a packet time, so the realized per-window byte
  // count tracks the target rate closely.
  double r = rate_at(now);
  return sim::from_seconds(rng.exponential(cfg_.packet_size * 8.0 / r));
}

std::uint32_t FgnRateGenerator::next_size(stats::Rng&) { return cfg_.packet_size; }

}  // namespace abw::traffic
