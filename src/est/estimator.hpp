// The estimator interface and result type shared by all techniques.
//
// The paper's classification (Section 2) splits tools into *direct
// probing* (each stream yields an avail-bw sample via Eq. 9, requires the
// tight-link capacity Ct) and *iterative probing* (each stream only
// answers "is Ri above A?", Eq. 10).  Every class in this directory
// implements one published technique against the common probe::Transport
// substrate, so they can be compared "under reproducible and controllable
// conditions, and with the same configuration parameters" — the paper's
// closing recommendation.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "probe/transport.hpp"

namespace abw::est {

/// How a technique probes, per the paper's taxonomy.
enum class ProbingClass { kDirect, kIterative };

/// Why a measurement was aborted without converging.  A structured
/// companion to Estimate::detail: callers can branch on the reason
/// (retry on kDeadline, reduce the grid on kProbeBudgetExhausted, flag
/// the path on kInsufficientData) without parsing strings.
enum class AbortReason : std::uint8_t {
  kNone = 0,               ///< not aborted (valid, or plain non-convergence)
  kProbeBudgetExhausted,   ///< EstimatorLimits::max_probe_packets hit
  kDeadline,               ///< EstimatorLimits::deadline passed
  kInsufficientData,       ///< too few usable packets/streams to analyze
};

/// Human-readable name of an abort reason ("none", "probe-budget", ...).
std::string_view abort_reason_name(AbortReason r);

/// Hard resource bounds on one measurement.  Published tools are known to
/// run unbounded under pathological conditions (heavy loss, capacity
/// flaps); these limits guarantee termination with a structured abort
/// instead.  0 = unlimited (the default preserves historical behavior).
struct EstimatorLimits {
  std::uint64_t max_probe_packets = 0;  ///< total probe packets sent (0 = no cap)
  sim::SimTime deadline = 0;  ///< max simulated measurement time (0 = no cap)

  bool any() const { return max_probe_packets > 0 || deadline > 0; }
};

/// One structured diagnostic: a named number a tool reports about its own
/// run ("streams_used", "excursion_count", ...).  Kept as an ordered
/// vector, not a map: tools append in a meaningful order (cheap, stable,
/// duplicate-free by construction) and serializers preserve it.
struct Diag {
  std::string key;
  double value = 0.0;
};

/// An avail-bw estimate.  Point estimators set low == high; Pathload-style
/// range estimators report the variation range they converged to (which
/// the paper stresses is NOT a confidence interval for the mean).
struct Estimate {
  bool valid = false;
  double low_bps = 0.0;
  double high_bps = 0.0;
  AbortReason abort = AbortReason::kNone;  ///< set when limits cut the run short
  /// The transport's running probing totals when this estimate returned,
  /// stamped by Estimator::estimate(): they include every earlier stream
  /// on the same transport, and first_send is the transport's first send.
  probe::ProbeCost cost;
  /// Structured per-run diagnostics, populated by every tool — the
  /// primary introspection channel (machine-readable; serialized by
  /// to_json()).  `detail` remains for human eyes and is synthesized
  /// from these pairs when the tool does not set it explicitly.
  std::vector<Diag> diagnostics;
  std::string detail;     ///< tool-specific notes (human-readable)

  /// Appends one diagnostic (keys are expected to be unique per tool).
  void diag(std::string key, double value) {
    diagnostics.push_back({std::move(key), value});
  }

  /// The value of diagnostic `key`, or NaN when absent.
  double diag_value(std::string_view key) const;

  /// JSON object with the estimate's full structured state:
  /// {"valid":...,"low_bps":...,"high_bps":...,"abort":"...",
  ///  "detail":"...","cost":{...},"diagnostics":{...}} — deterministic
  /// for a seeded run (no wall-clock fields).
  std::string to_json() const;

  /// Midpoint, the conventional single-number reading.  NaN when the
  /// estimate is invalid — an invalid measurement must never read as
  /// "0 bits/s available" in aggregated results (it would silently drag
  /// means and mislead plots; NaN propagates and is filterable).
  double point_bps() const {
    return valid ? (low_bps + high_bps) / 2.0
                 : std::numeric_limits<double>::quiet_NaN();
  }

  static Estimate invalid(std::string why) {
    Estimate e;
    e.detail = std::move(why);
    return e;
  }

  /// An invalid estimate carrying a structured abort reason.
  static Estimate aborted(AbortReason reason, std::string why) {
    Estimate e;
    e.abort = reason;
    e.detail = std::move(why);
    return e;
  }

  static Estimate point(double bps) {
    Estimate e;
    e.valid = true;
    e.low_bps = e.high_bps = bps;
    return e;
  }

  static Estimate range(double lo, double hi) {
    Estimate e;
    e.valid = true;
    e.low_bps = lo;
    e.high_bps = hi;
    return e;
  }
};

/// Common interface: run a complete measurement over the given transport.
///
/// Template method: estimate() is the non-virtual public entry point; it
/// wraps the technique's do_estimate() with the cross-cutting concerns —
/// a profiling timer ("est.<name>.seconds"), the Estimate::cost stamp,
/// run/valid/abort counters and per-diagnostic gauges in the attached
/// MetricsRegistry, a final decision trace event, and synthesis of the
/// human-readable `detail` from `diagnostics` when the tool left it
/// empty.  Tools override the protected do_estimate() only.
class Estimator {
 public:
  virtual ~Estimator() = default;

  /// Runs the technique to completion over any measurement substrate —
  /// simulated (probe::ProbeSession) or live (net::UdpTransport) —
  /// advancing the transport's clock as real tools consume wall-clock
  /// time, and returns its estimate.
  Estimate estimate(probe::Transport& transport);

  /// Tool name, e.g. "pathload".
  virtual std::string_view name() const = 0;

  /// Which of the paper's two probing classes the tool belongs to.
  virtual ProbingClass probing_class() const = 0;

  /// Installs resource bounds for subsequent estimate() calls.  Every
  /// technique checks them between streams: when exceeded it returns an
  /// Estimate with valid == false and the corresponding AbortReason
  /// instead of probing on.
  void set_limits(const EstimatorLimits& limits) { limits_ = limits; }
  const EstimatorLimits& limits() const { return limits_; }

  /// Attaches observability: per-tool decision events go to `trace`,
  /// run counters / diagnostics gauges / timing to `metrics`.  Either
  /// may be nullptr (the default — zero overhead beyond a branch).
  /// Neither is owned.
  void set_observer(obs::TraceSink* trace, obs::MetricsRegistry* metrics) {
    trace_ = trace;
    metrics_ = metrics;
  }

 protected:
  /// The technique itself.  Implementations populate
  /// Estimate::diagnostics; `detail` may be left empty (synthesized).
  virtual Estimate do_estimate(probe::Transport& transport) = 0;

  /// Emits one decision trace event (no-op when no sink attached):
  /// `what` names the decision ("fleet-verdict", "excursion", ...),
  /// `outcome` its result, `iter` the iteration index, value/aux the
  /// numbers behind it.  Time stamps from the transport clock.
  void decision(probe::Transport& transport, std::string_view what,
                std::string_view outcome, std::uint64_t iter, double value,
                double aux = 0.0);

  /// Per-measurement limit bookkeeping.  Construct at the top of
  /// estimate() and call exceeded() before each stream; the baseline
  /// subtraction makes the budget per-measurement even though
  /// ProbeCost accumulates across a transport's lifetime.
  class LimitGuard {
   public:
    LimitGuard(const EstimatorLimits& limits, probe::Transport& transport)
        : limits_(limits),
          transport_(transport),
          packets_at_start_(transport.cost().packets),
          start_time_(transport.now()) {}

    /// kNone while within bounds; otherwise the limit that tripped.
    AbortReason exceeded() const {
      if (limits_.max_probe_packets > 0 &&
          transport_.cost().packets - packets_at_start_ >=
              limits_.max_probe_packets)
        return AbortReason::kProbeBudgetExhausted;
      if (limits_.deadline > 0 &&
          transport_.now() - start_time_ >= limits_.deadline)
        return AbortReason::kDeadline;
      return AbortReason::kNone;
    }

   private:
    const EstimatorLimits& limits_;
    probe::Transport& transport_;
    std::uint64_t packets_at_start_;
    sim::SimTime start_time_;
  };

  /// The standard abort result for a tripped guard.
  static Estimate abort_estimate(AbortReason reason, std::string_view tool);

  EstimatorLimits limits_;
  obs::TraceSink* trace_ = nullptr;        // not owned; nullptr = off
  obs::MetricsRegistry* metrics_ = nullptr;  // not owned; nullptr = off
};

}  // namespace abw::est
