// The avail-bw process A_tau(t) of a link, computed from a packet trace —
// the paper's Eqs. (1)-(3) made concrete.
//
// A trace gives the amount of traffic X(t, t+tau) arriving in any window;
// when the link is not overloaded, utilization over the window is
// X/(C*tau) and A_tau(t) = C - X(t,t+tau)/tau (clamped at >= 0 for
// transiently overloaded windows).  From the A_tau(t) series everything
// the paper's statistics pitfalls discuss follows: population variance vs
// tau (Eqs. 4-5), Poisson sampling and the sample-mean error (Eq. 11,
// Fig. 1), and the variation range (Fig. 6).
#pragma once

#include <cstddef>
#include <vector>

#include "sim/time.hpp"
#include "stats/rng.hpp"
#include "trace/packet_trace.hpp"

namespace abw::trace {

/// Avail-bw analysis over a fixed packet trace.
class AvailBwProcess {
 public:
  /// Indexes the trace for O(log n) window queries.
  explicit AvailBwProcess(const PacketTrace& trace);

  /// Bytes arriving in [t1, t2).
  std::uint64_t bytes_in(sim::SimTime t1, sim::SimTime t2) const;

  /// Average arrival rate in [t1, t2), bits/s.
  double arrival_rate(sim::SimTime t1, sim::SimTime t2) const;

  /// A(t, t+tau) = max(0, C - arrival_rate), bits/s.
  double avail_bw(sim::SimTime t, sim::SimTime tau) const;

  /// The full A_tau series over consecutive windows spanning the trace.
  std::vector<double> series(sim::SimTime tau) const;

  /// `count` avail-bw samples at Poisson-distributed instants (PASTA) —
  /// the sampling discipline of the paper's Fig. 1 experiment.
  std::vector<double> poisson_samples(std::size_t count, sim::SimTime tau,
                                      stats::Rng& rng) const;

  /// Long-run mean avail-bw (tau-independent), bits/s.
  double mean_avail_bw() const;

  /// Population standard deviation of A_tau across the whole trace.
  double stddev_at(sim::SimTime tau) const;

  /// Variation range of A_tau: (low, high) quantiles of the series, e.g.
  /// q = 0.05 gives the central 90% band — what iterative probing can
  /// recover (Fig. 6 discussion).
  std::pair<double, double> variation_range(sim::SimTime tau, double q = 0.05) const;

  double capacity_bps() const { return capacity_bps_; }
  sim::SimTime start_time() const { return start_; }
  sim::SimTime end_time() const { return end_; }

 private:
  double capacity_bps_;
  sim::SimTime start_, end_;
  std::vector<sim::SimTime> times_;       // arrival instants
  std::vector<std::uint64_t> cum_bytes_;  // prefix sums of sizes
};

}  // namespace abw::trace
