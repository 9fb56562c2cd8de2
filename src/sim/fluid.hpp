// Fluid fast path of a link's FIFO queue (hybrid simulation mode).
//
// A FluidQueue integrates the link's store-and-forward dynamics directly
// from a batch of (arrival time, size) pairs instead of scheduling one
// event per packet: departure_i = max(arrival_i, departure_{i-1}) +
// L_i/C, drop-tail admission against the same byte limit, and busy-period
// accounting into the link's UtilizationMeter.  Because the arrivals come
// from the same generator stream the packet mode would use and the
// arithmetic is the same integer-nanosecond transmission_time(), the
// resulting utilization, drops, and counters are *exactly* what the
// event-driven link would have produced — only ~100x cheaper, since no
// event queue, virtual dispatch, or per-packet closures are involved.
//
// absorb() has two paths.  At every idle point (empty queue, server
// free) one vectorized pass retires each following busy run whole — one
// meter interval and batched counters, no queue traffic — as long as the
// run cannot drop and a later arrival of the same call ends it.  A run
// that could drop, and each call's last run, go through the per-packet
// FIFO: a later call's arrivals may still join the last run, and their
// drop-tail test must count its queued bytes.  A caller may therefore
// split an arrival stream into calls anywhere.
//
// Discrete packets (probes) join the same FIFO through admit(): the link
// absorbs every cross arrival strictly before the packet's arrival, admit()
// applies drop-tail and returns the departure time, and the packet's
// service interval goes into the meter with its measurement attribution.
// The cross traffic behind it simply queues behind it, so it never has to
// be turned back into events.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/packet.hpp"
#include "sim/time.hpp"

namespace abw::sim {

class Link;

/// Exact batch integrator of one link's FIFO queue.  Owned by the Link
/// (enable_fluid()); driven by a traffic::HybridCrossSource.
class FluidQueue {
 public:
  explicit FluidQueue(Link& link);

  FluidQueue(const FluidQueue&) = delete;
  FluidQueue& operator=(const FluidQueue&) = delete;

  /// Starts a fresh fluid epoch at `now`.  The link must be idle (no
  /// transmission in progress, empty queue).
  void reset(SimTime now);

  /// Absorbs `n` arrivals (non-decreasing times, all <= record_until, none
  /// before the previous call's).  Updates link stats (packets/bytes
  /// in/out, drops) and records busy intervals into the meter, truncated
  /// at `record_until` so recording never runs ahead of the advance point
  /// (the meter requires time-ordered, non-overlapping intervals across
  /// the fluid and DES regimes).  A call may end inside a busy run that
  /// the next call's arrivals continue.
  void absorb(const SimTime* times, const std::uint32_t* sizes,
              std::size_t n, SimTime record_until);

  /// Advances bookkeeping to `t`: departures at or before `t` are counted
  /// out, and the busy run of the remaining backlog is recorded up to `t`.
  void advance(SimTime t);

  /// Stamps the cross packets handed to the link's arrival tap with the
  /// owning source's flow id and exit hop.
  void set_identity(std::uint32_t flow_id, std::uint32_t exit_hop) {
    flow_id_ = flow_id;
    exit_hop_ = exit_hop;
  }

  /// Admits a discrete packet of `size_bytes` arriving at `t` behind every
  /// absorbed arrival.  The caller has applied the arrivals and departures
  /// strictly before `t` and none after (the tie rule, sim/hybrid.hpp).
  /// Returns -1 when drop-tail rejects the packet.  Otherwise records its
  /// service interval in the meter, attributed by `measurement`, and
  /// returns its departure time.  Counts neither the arrival nor the drop:
  /// the link does, as in packet mode.
  SimTime admit(SimTime t, std::uint32_t size_bytes, bool measurement);

  /// Bytes currently in the fluid system (including the packet in
  /// service), mirroring Link::backlog_bytes() semantics.
  std::size_t backlog_bytes() const { return backlog_bytes_; }

  /// Time the server becomes free given the absorbed arrivals.
  SimTime free_at() const { return free_at_; }

  /// Packets currently in the fluid system.
  std::size_t in_system() const { return q_.size() - head_; }

  /// Packets retired whole-run by the vectorized pass (lets tests assert
  /// it actually engaged, not just that results agree).
  std::uint64_t bulk_packets() const { return bulk_packets_; }

 private:
  struct InFlight {
    SimTime dep = 0;            ///< departure (service completion) time
    std::uint32_t size = 0;     ///< wire size in bytes
  };

  void pop_departures(SimTime t);  // count out everything with dep <= t
  void emit_busy(SimTime upto);    // record [emitted_until_, min(upto, free_at_))
  SimTime tx_time(std::uint32_t bytes);  // memoized transmission_time()

  // Vectorized pass 1: serialization times of `len` arrivals into vtx_.
  void compute_tx(const std::uint32_t* sizes, std::size_t len);

  // Vectorized pass 2, whole-run retirement over arrivals [i, n) whose
  // serialization times are tx[0, n - i): an unrolled Lindley recurrence
  // over prefix sums retires in bulk every busy run that a later arrival
  // in [i, n) ends, up to the first run that could drop.  Returns the
  // index of the first unretired arrival (< n: the last run never
  // retires); `d_pkts`/`d_bytes` accumulate the retired packet/byte
  // counts (in == out for a retired run).  Caller must be at an idle
  // point: empty queue, times[i] >= free_at_, previous run emitted.
  std::size_t bulk_retire(const SimTime* times, const std::uint32_t* sizes,
                          const SimTime* tx, std::size_t i, std::size_t n,
                          bool tapped, std::uint64_t& d_pkts,
                          std::uint64_t& d_bytes);

  struct TxMemo {
    std::uint32_t bytes = 0;
    SimTime tx = 0;
  };

  Link& link_;
  // In-system packets as a flat FIFO: [head_, q_.size()) are live, the
  // head is in service.  Departures advance head_ instead of shifting;
  // the vector is cleared whenever the queue drains (every idle gap), and
  // a long busy period erases its popped prefix once that prefix is large
  // and at least half the vector, so memory stays bounded by the live
  // backlog.  Flat indexing beats a power-of-two ring here: push/pop are
  // the hottest absorb() operations and need no masking or wrap
  // arithmetic.
  std::vector<InFlight> q_;
  std::size_t head_ = 0;
  SimTime free_at_ = 0;
  SimTime emitted_until_ = 0;  ///< busy recorded into the meter up to here
  std::size_t backlog_bytes_ = 0;
  std::uint32_t flow_id_ = 0;
  std::uint32_t exit_hop_ = kEndToEnd;
  std::array<TxMemo, 4> tx_memo_{};
  std::size_t tx_memo_used_ = 0;
  std::size_t tx_memo_evict_ = 0;
  std::uint64_t bulk_packets_ = 0;
  std::vector<SimTime> vtx_;  // SoA scratch: per-arrival tx times (bulk path)
};

}  // namespace abw::sim
