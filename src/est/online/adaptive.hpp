// Adaptive probe-rate controller: pick the next stream's rate from the
// current belief instead of sweeping a fixed grid.
//
// The fixed sweeps of the offline tools spend most of their probes at
// rates that teach nothing (far below or far above A).  Following the
// measurement-based online estimation literature (Khangura & Akin's
// reinforcement-learning probe controller, PAPERS.md), this controller
// treats rate selection as an explore/exploit decision against a belief
// maintained by an inner KalmanTracker:
//
//  * exploit (most probes): cycle rates that straddle the current
//    estimate — slightly below confirms the knee, moderately above
//    produces the congested strain samples the Kalman line feeds on;
//  * explore (an epsilon fraction, plus whenever the belief is invalid
//    or its confidence collapses): geometric sweep over the configured
//    bracket, which is what re-acquires the signal after a regime change
//    moved A far from the belief.
//
// Budget/deadline admission control is enforced BEFORE sending: a stream
// that would bust the probe budget is never put on the wire.
#pragma once

#include <cstdint>

#include "est/online/kalman.hpp"
#include "est/online/online.hpp"
#include "probe/transport.hpp"
#include "stats/rng.hpp"

namespace abw::est::online {

/// Controller parameters.
struct AdaptiveConfig {
  double min_rate_bps = 2e6;    ///< exploration bracket low edge
  double max_rate_bps = 100e6;  ///< exploration bracket high edge
  std::uint32_t packet_size = 1200;
  std::size_t packets_per_stream = 60;
  /// Fraction of probes spent exploring the bracket regardless of belief.
  double explore_fraction = 0.15;
  /// Exploit rates as multiples of the current estimate (clamped to the
  /// bracket); cycled in order.
  double exploit_factors[3] = {0.85, 1.1, 1.35};
  /// Explore when confidence drops below this (signal lost).
  double min_confidence = 0.05;
  KalmanConfig kalman;  ///< inner belief tracker
  std::uint64_t seed = 0xADAB;
};

/// Active streaming estimator driving a ProbeSession.
class AdaptiveProber final : public OnlineEstimator {
 public:
  explicit AdaptiveProber(const AdaptiveConfig& cfg = {});

  std::string_view name() const override { return "adaptive"; }

  /// The rate the next stream will probe at, chosen from the belief.
  /// Deterministic given the seed and feed history.
  double next_rate_bps();

  /// Sends one stream at next_rate_bps() through `transport` and feeds
  /// the result.  Returns kExhausted (sending nothing) once the next
  /// stream would exceed the probe budget or the deadline has passed.
  FeedResult step(probe::Transport& transport);

  /// The inner Kalman tracker (for introspection/tests).
  const KalmanTracker& tracker() const { return kalman_; }

 protected:
  bool do_update(const OnlineSample& s) override;

 private:
  double explore_rate();

  AdaptiveConfig cfg_;
  KalmanTracker kalman_;
  stats::Rng rng_;
  std::uint32_t exploit_phase_ = 0;
  std::uint32_t sweep_phase_ = 0;
};

}  // namespace abw::est::online
