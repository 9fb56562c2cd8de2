// BART/MR-BART-family Kalman tracker over (rate, strain) samples.
//
// BART's model (Ekelin et al.; "MR-BART: Multi-Rate Available Bandwidth
// Estimation in Real-Time" extends it) is the fluid single-hop relation
// the paper derives as Eq. 8: for a probing stream of input rate Ri above
// the avail-bw A, the inter-packet strain
//
//   eps(Ri) = Ri/Ro - 1 = (Ri - A) / Ct = alpha + beta * Ri
//
// is LINEAR in Ri, with slope beta = 1/Ct and intercept alpha = -A/Ct, so
// the avail-bw is the zero crossing A = -alpha/beta.  The tracker runs a
// two-state Kalman filter on h = (alpha, beta): each congested sample is
// a scalar measurement z = eps with H = [1, Ri]; uncongested samples
// (z ~ 0) update only when the current line wrongly predicts congestion
// at Ri — below the knee the linear model does not hold, and folding such
// samples in unconditionally would bias the slope.
//
// Time variation: between updates the state diffuses by the process noise
// Q, and a two-sided CUSUM (stats/cusum) over the standardized innovation
// sequence detects level shifts — a capacity flap or a cross-traffic
// regime change makes innovations systematically one-sided long before
// the slow Q-diffusion catches up.  On detection the error covariance P
// is inflated, which makes the filter re-converge to the new regime in a
// handful of samples instead of hundreds (the MR-BART reset heuristic).
#pragma once

#include <cstddef>
#include <vector>

#include "est/online/online.hpp"
#include "stats/cusum.hpp"

namespace abw::est::online {

/// Kalman tracker parameters.  Rates are handled internally in Mb/s so
/// alpha and beta have comparable magnitudes; all config rates are bps.
struct KalmanConfig {
  /// Per-update random-walk variance of (alpha, beta) — how fast the
  /// tracker assumes the path can drift between samples.
  double process_noise = 1e-6;
  /// Measurement variance of one strain sample (packet-granularity noise
  /// around the fluid line; paper Fig. 5 shows this jitter).
  double measurement_noise = 4e-4;
  /// Strain at or below this reads as "uncongested" (Ro ~ Ri).
  double strain_floor = 0.02;
  /// Innovations kept for change-point detection.
  std::size_t innovation_window = 32;
  /// CUSUM config over the standardized innovation window.
  stats::CusumConfig cusum{0.5, 6.0};
  /// Multiplier applied to P when a level shift is detected.
  double covariance_inflation = 64.0;
};

/// The BART-family tracker.  Feed active-probing samples (strain + Ri);
/// passive samples (input_rate == 0) are rejected as unusable.
class KalmanTracker final : public OnlineEstimator {
 public:
  explicit KalmanTracker(const KalmanConfig& cfg = {});

  std::string_view name() const override { return "kalman"; }

  /// Change points detected (covariance inflations) so far.
  std::uint64_t change_points() const { return change_points_; }

  /// Current slope, for introspection/tests: strain ~ alpha + beta * r
  /// with r in Mb/s.
  double beta() const { return b_; }

 protected:
  bool do_update(const OnlineSample& s) override;

 private:
  void refresh_belief(sim::SimTime t);

  KalmanConfig cfg_;
  // State h = (alpha, beta) and covariance P (row-major 2x2).
  double a_ = 0.0;
  double b_ = 0.0;
  double p_[4] = {1.0, 0.0, 0.0, 1e-2};
  bool primed_ = false;  ///< saw at least one congested sample
  std::vector<double> innovations_;  ///< standardized, for CUSUM
  std::uint64_t change_points_ = 0;
};

}  // namespace abw::est::online
