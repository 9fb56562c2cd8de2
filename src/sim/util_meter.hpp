// Exact per-link utilization accounting — the ground truth behind every
// experiment.  The paper defines (Eqs. 1-2):
//
//   u_i(t, t+tau) = (1/tau) * integral of the instantaneous utilization
//   A_i(t, t+tau) = C_i * (1 - u_i(t, t+tau))
//
// A link records every transmission as a busy interval; the meter then
// answers "how much of [t1, t2) was the link transmitting?" exactly, so
// ground-truth avail-bw at ANY averaging time scale is available without
// sampling error.  This is what lets the library separate estimator error
// from avail-bw process variability (the paper's first pitfall).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace abw::sim {

/// Records busy (transmitting) intervals of a link and answers utilization
/// and avail-bw queries over arbitrary windows.
///
/// Storage is two append-only span logs, one for cross traffic and one
/// for measurement traffic.  Each log holds 16-byte (start, end) records
/// in fixed 4 KiB blocks that never move, plus one running busy total per
/// 32 records: an append never copies, and a window query is a binary
/// search plus at most 31 additions per edge.
class UtilizationMeter {
 public:
  /// `capacity_bps` is the capacity of the metered link.
  explicit UtilizationMeter(double capacity_bps);

  /// Records that the link was transmitting during [start, end).
  /// Intervals must be non-overlapping and arrive in time order (links
  /// transmit one packet at a time).  An interval that starts where the
  /// most recent one ended, with the same attribution, extends it.
  /// `measurement` marks busy time caused by the measurement's own packets
  /// (probes, the measured TCP flow) so ground truth can be computed
  /// against cross traffic only.
  ///
  /// Defined inline: every busy run of every link records here, in both
  /// simulation modes.
  void add_busy(SimTime start, SimTime end, bool measurement = false) {
    if (end <= start) fail_add_busy(/*overlap=*/false);
    if (start < last_end_) fail_add_busy(/*overlap=*/true);
    SpanLog& log = measurement ? meas_ : cross_;
    if (start == last_end_ && last_log_ == static_cast<signed char>(measurement))
      log.set_back_end(end);  // back-to-back, same attribution: extend
    else
      log.push(start, end);
    last_end_ = end;
    last_log_ = static_cast<signed char>(measurement);
  }

  /// Busy time within [t1, t2), exact (all traffic).
  SimTime busy_time(SimTime t1, SimTime t2) const;

  /// Busy time within [t1, t2) caused by measurement traffic only.
  SimTime measurement_busy_time(SimTime t1, SimTime t2) const;

  /// Avail-bw as cross traffic leaves it: C * (1 - (busy - measurement
  /// busy) / window).  This is the paper's ground truth A(t1, t2) — the
  /// probing load must not count against itself.
  double cross_avail_bw(SimTime t1, SimTime t2) const;

  /// Average utilization in [t1, t2), in [0, 1].
  double utilization(SimTime t1, SimTime t2) const;

  /// Available bandwidth A(t1, t2) = C * (1 - u(t1, t2)), in bits/s.
  double avail_bw(SimTime t1, SimTime t2) const;

  /// The A_tau(t) series: avail-bw over consecutive windows of length tau
  /// covering [t0, t0 + n*tau) where n = floor((t1 - t0) / tau).
  /// `exclude_measurement` computes the cross-traffic-only series.
  /// One forward pass per span log — O(intervals + windows) instead of a
  /// binary search per window — producing bit-identical values to
  /// per-window avail_bw()/cross_avail_bw() calls (the Fig. 1/2 timescale
  /// sweeps make thousands of these).
  std::vector<double> avail_bw_series(SimTime t0, SimTime t1, SimTime tau,
                                      bool exclude_measurement = false) const;

  /// Pre-sizes storage so that the next `n` add_busy() calls allocate
  /// nothing, whatever their attribution (steady-state hot path).
  void reserve(std::size_t n);

  /// Records a capacity change effective at `t` (fault injection: link
  /// dynamics / flaps).  Steps must arrive in time order.  With any step
  /// recorded, avail-bw queries integrate the piecewise-constant C(t)
  /// exactly:  A(t1, t2) = (1/(t2-t1)) * sum_k C_k * idle_time_in_seg_k.
  /// Without steps the original single-capacity arithmetic runs
  /// unchanged (bit-identical to pre-fault builds).
  void set_capacity(SimTime t, double bps);

  /// Capacity in effect at time `t` (construction value before any step).
  double capacity_at(SimTime t) const;

  /// Number of recorded capacity steps (0 = static link).
  std::size_t capacity_step_count() const { return caps_.size(); }

  /// Moves the end of the most recent busy interval to `new_end`
  /// (shrinking or extending it).  Used when a capacity change re-plans
  /// the in-service packet: its busy interval was recorded with the old
  /// completion time and must be corrected in place.  `new_end` must stay
  /// after the interval's start.
  void amend_last_end(SimTime new_end);

  /// Capacity this meter was constructed with (bits/s).
  double capacity_bps() const { return capacity_bps_; }

  /// Number of stored (coalesced) busy intervals.
  std::size_t interval_count() const { return cross_.size() + meas_.size(); }

 private:
  /// The busy intervals of one attribution: sorted, disjoint (start, end)
  /// spans, appended in time order into fixed blocks that never move.
  /// group_base_[g] holds the busy total of the spans before span 32g, so
  /// the total before any span costs at most 31 additions.  A group's
  /// base is written when its first span is, so extending or amending
  /// the last span only touches total_.
  class SpanLog {
   public:
    struct Span {
      SimTime start;
      SimTime end;
    };

    std::size_t size() const { return size_; }
    const Span& operator[](std::size_t i) const {
      return blocks_[i / kBlockSpans][i % kBlockSpans];
    }

    /// Appends [start, end), which starts at or after the last span's end.
    void push(SimTime start, SimTime end) {
      if (size_ % kGroupSpans == 0) open_group();
      blocks_[size_ / kBlockSpans][size_ % kBlockSpans] = {start, end};
      total_ += end - start;
      ++size_;
    }

    /// Moves the end of the last span (there must be one) to `end`.
    void set_back_end(SimTime end) {
      Span& last = blocks_[(size_ - 1) / kBlockSpans][(size_ - 1) % kBlockSpans];
      total_ += end - last.end;
      last.end = end;
    }

    /// Busy time of the spans within [t1, t2).
    SimTime overlap(SimTime t1, SimTime t2) const;

    /// Adds to busy[k] the busy time within window k, [t0 + k*tau,
    /// t0 + (k+1)*tau), in one forward pass.
    void add_window_overlaps(SimTime t0, SimTime tau,
                             std::vector<SimTime>& busy) const;

    /// Allocates so that the next `n` pushes allocate nothing.
    void reserve(std::size_t n);

   private:
    static constexpr std::size_t kBlockSpans = 256;  ///< 4 KiB per block
    static constexpr std::size_t kGroupSpans = 32;   ///< spans per base

    /// Busy total of spans [0, i), i <= size().
    SimTime prefix(std::size_t i) const;

    /// Cold path of push(): starts a group, and a block when full.
    void open_group();

    std::vector<std::vector<Span>> blocks_;  ///< kBlockSpans spans each
    std::vector<SimTime> group_base_;
    std::size_t size_ = 0;
    SimTime total_ = 0;  ///< busy total of all spans, prefix(size_)
  };

  /// Cold path of add_busy(): throws the matching exception.
  [[noreturn]] void fail_add_busy(bool overlap) const;

  /// Invokes f(seg_start, seg_end, capacity_bps) for each constant-
  /// capacity segment of [t1, t2), in time order.
  template <typename F>
  void for_each_capacity_segment(SimTime t1, SimTime t2, F&& f) const;

  /// Free bits (capacity minus counted busy time, integrated over the
  /// piecewise-constant C(t)) in [t1, t2).  `exclude_measurement` counts
  /// only cross-traffic busy time against the capacity.
  double free_bits(SimTime t1, SimTime t2, bool exclude_measurement) const;

  double capacity_bps_;
  SpanLog cross_;  ///< intervals recorded with measurement == false
  SpanLog meas_;   ///< intervals recorded with measurement == true
  /// End and attribution (0 cross, 1 measurement, -1 none yet) of the most
  /// recent interval: the overlap check and the coalescing rule.
  SimTime last_end_ = std::numeric_limits<SimTime>::min();
  signed char last_log_ = -1;
  // Capacity steps (time, bps), time-ordered; empty for static links.
  std::vector<std::pair<SimTime, double>> caps_;
};

}  // namespace abw::sim
