// An aggregate of independent ON-OFF sources.  By Taqqu's theorem the
// superposition of many Pareto ON-OFF sources with OFF shape alpha in
// (1, 2) converges to fractional Gaussian noise with H = (3 - alpha) / 2;
// for alpha = 1.5 that is H = 0.75.  This is the packet-level route to the
// self-similar avail-bw process the paper's trace experiments need.
#pragma once

#include <memory>
#include <vector>

#include "traffic/pareto_onoff.hpp"

namespace abw::traffic {

/// Owns `count` independent ParetoOnOff sources that jointly offer
/// `total_rate_bps` into one hop.
class AggregateOnOff {
 public:
  /// Each source gets total_rate/count mean rate and a forked RNG stream.
  /// `per_source` provides peak rate, packet size, and shape (its
  /// mean_rate_bps field is ignored and overwritten).
  AggregateOnOff(sim::Simulator& sim, sim::Path& path, std::size_t entry_hop,
                 bool one_hop, std::uint32_t first_flow_id, stats::Rng& rng,
                 double total_rate_bps, std::size_t count,
                 ParetoOnOffConfig per_source);

  /// Starts all sources over [t0, t1).
  void start(sim::SimTime t0, sim::SimTime t1);

  std::uint64_t bytes_sent() const;
  std::size_t source_count() const { return sources_.size(); }

 private:
  std::vector<std::unique_ptr<ParetoOnOffGenerator>> sources_;
};

}  // namespace abw::traffic
