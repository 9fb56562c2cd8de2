// Streaming (online) avail-bw estimation — the API the paper's central
// pitfalls demand and one-shot tools cannot provide.
//
// Avail-bw is a time-varying process A_tau(t) (paper Eqs. 1-3); a one-shot
// tool silently averages over whatever happened during its measurement.
// An OnlineEstimator instead consumes measurements *incrementally* — one
// probe::StreamResult or passive delivery sample at a time — and maintains
// a continuously updated belief {estimate, confidence, last_update} that
// can be queried at any simulated time.  Three trackers implement it:
//
//  * KalmanTracker (online/kalman.hpp): BART/MR-BART-family Kalman filter
//    over (rate, strain) samples, with CUSUM change-point detection
//    (stats/cusum) inflating the error covariance so the filter re-locks
//    quickly after capacity flaps;
//  * TcpDeliveryRateTracker (online/tcp_rate.hpp): passive estimator over
//    TCP delivery-rate samples (bw = min(send_rate, ack_rate), app-limited
//    marking — the tcp_rate.c design) from the Reno stack in src/tcp/;
//  * AdaptiveProber (online/adaptive.hpp): an active controller that picks
//    each next stream's rate from the current belief instead of sweeping a
//    fixed grid.
//
// EstimatorLimits act as *per-update admission control*: a sample that
// would push the tracker past its probe-packet budget or deadline is
// rejected and the belief freezes with a structured AbortReason, exactly
// like the offline tools' LimitGuard.  Every accepted/rejected update can
// emit a decision trace event and per-tracker metrics (obs/).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>

#include "est/estimator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "probe/stream_result.hpp"
#include "sim/time.hpp"

namespace abw::est::online {

/// One incremental measurement fed to a tracker.  Active probing fills
/// rate/input_rate/strain from a StreamResult; passive TCP sampling fills
/// rate (the delivery rate) with input_rate == 0.
struct OnlineSample {
  sim::SimTime time = 0;        ///< measurement timestamp (sim clock)
  double rate_bps = 0.0;        ///< measured output/delivery rate
  double input_rate_bps = 0.0;  ///< offered rate Ri (0 = passive sample)
  double strain = 0.0;          ///< Ri/Ro - 1, >= 0 once the link congests
  std::uint64_t packets = 0;    ///< probe packets this sample cost (0 = free)
  bool impaired = false;        ///< loss/dup/reorder in the underlying stream
  bool app_limited = false;     ///< passive: the sender ran out of data
};

/// The tracker's current belief about the avail-bw process.
struct Belief {
  double estimate_bps = std::numeric_limits<double>::quiet_NaN();
  double confidence = 0.0;      ///< [0, 1]; heuristic, tracker-specific
  sim::SimTime last_update = 0; ///< sim time of the last accepted sample
  std::uint64_t updates = 0;    ///< accepted samples so far

  /// True once the tracker has formed an estimate.  NaN (never a zero)
  /// before that — same contract as Estimate::point_bps().
  bool valid() const { return std::isfinite(estimate_bps); }
};

/// What happened to one fed sample.
enum class FeedResult : std::uint8_t {
  kUpdated,   ///< accepted; the belief moved (or was reaffirmed)
  kRejected,  ///< unusable for this tracker (e.g. empty stream); belief kept
  kExhausted, ///< admission control tripped; belief frozen, see abort()
};

/// Base class of all streaming estimators: admission control, belief
/// storage, and observability live here; trackers implement do_update().
class OnlineEstimator {
 public:
  virtual ~OnlineEstimator() = default;

  /// Tracker name, e.g. "kalman" ("online.<name>.*" metric prefix).
  virtual std::string_view name() const = 0;

  /// Feeds one sample.  Admission control runs first: once the cumulative
  /// probe-packet budget or the deadline (measured from the first fed
  /// sample) would be exceeded, the sample is dropped, the belief freezes,
  /// and every later feed returns kExhausted immediately.
  FeedResult feed(const OnlineSample& s);

  /// Convenience: converts a received stream into a sample (to_sample)
  /// and feeds it.
  FeedResult feed(const probe::StreamResult& res);

  /// The continuously updated belief; query at any time.
  const Belief& belief() const { return belief_; }

  /// kNone until admission control trips, then the tripped limit.
  AbortReason abort() const { return abort_; }
  bool exhausted() const { return abort_ != AbortReason::kNone; }

  /// Per-update admission control (0 = unlimited): max_probe_packets caps
  /// the cumulative OnlineSample::packets accepted, deadline caps
  /// sample.time - first_sample.time.
  void set_limits(const EstimatorLimits& limits) { limits_ = limits; }
  const EstimatorLimits& limits() const { return limits_; }

  /// Probe packets consumed by accepted samples so far.
  std::uint64_t packets_consumed() const { return packets_consumed_; }

  /// Attaches observability: per-update decision events to `trace`,
  /// update/reject counters and belief gauges to `metrics`.  Either may
  /// be nullptr (default — one branch of overhead).  Not owned.
  void set_observer(obs::TraceSink* trace, obs::MetricsRegistry* metrics) {
    trace_ = trace;
    metrics_ = metrics;
  }

  /// Derives the measurement sample of one received stream: Ro, Ri,
  /// strain = max(0, Ri/Ro - 1), packet cost, impairment flag.  The
  /// timestamp is the last receive time (falls back to the last send time
  /// for fully lost streams).
  static OnlineSample to_sample(const probe::StreamResult& res);

 protected:
  /// Technique hook: consume an admitted sample and update belief_.
  /// Returns false to report the sample as unusable (kRejected) — the
  /// sample's packet cost still counts against the budget (the probes
  /// were sent either way).
  virtual bool do_update(const OnlineSample& s) = 0;

  /// Emits one per-update decision trace event (no-op without a sink).
  void decision(sim::SimTime t, std::string_view what,
                std::string_view outcome, double value, double aux = 0.0);

  Belief belief_;

 private:
  EstimatorLimits limits_;
  AbortReason abort_ = AbortReason::kNone;
  std::uint64_t packets_consumed_ = 0;
  sim::SimTime first_sample_time_ = 0;
  bool saw_sample_ = false;
  obs::TraceSink* trace_ = nullptr;          // not owned; nullptr = off
  obs::MetricsRegistry* metrics_ = nullptr;  // not owned; nullptr = off
};

}  // namespace abw::est::online
