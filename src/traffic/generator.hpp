// Base class for open-loop cross-traffic generators.
//
// A generator owns an arrival process (interarrival gaps + packet sizes)
// over an active window [t0, t1) and has one way to produce it: fill()
// appends the next arrivals as bulk (time, size) arrays.  Hybrid mode
// pulls those arrays into a fluid queue; start() pulls them itself and
// injects each arrival into one hop of a Path as a packet event.
// One-hop persistence (the Fig. 4 multi-bottleneck workload: traffic
// "enters the link i and exits at link i+1") is expressed by stamping
// each packet's exit_hop with the entry hop.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/packet.hpp"
#include "traffic/arrival_stream.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"

namespace abw::traffic {

/// Open-loop packet generator; subclasses supply the arrival process.
class Generator {
 public:
  /// `entry_hop` is the path hop the packets enter; if `one_hop` they exit
  /// right after that hop, otherwise they travel to the path receiver.
  Generator(sim::Simulator& sim, sim::Path& path, std::size_t entry_hop,
            bool one_hop, std::uint32_t flow_id, stats::Rng rng);
  virtual ~Generator() = default;

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Activates the generator during [t0, t1) in packet mode.  The first
  /// packet arrives at t0 + one interarrival gap (so independent
  /// generators don't phase-align at t0).  An event at t0 pulls arrivals
  /// through fill(), kPullBatch at a time, and schedules the first
  /// injection; each injection schedules the next.  May be called once,
  /// and excludes begin_stream().
  void start(sim::SimTime t0, sim::SimTime t1);

  /// Packets and bytes pulled through fill() so far.  A started generator
  /// pulls up to kPullBatch - 1 arrivals ahead of injecting them, so the
  /// counts are exact once the active window is over.
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

  /// Average offered rate over the active window so far, bits/s (from
  /// bytes_sent(), so exact once the window is over).
  double offered_rate() const;

  // --- pull API -----------------------------------------------------------
  // begin_stream() fixes the active window, and fill() appends the next
  // arrivals.  The RNG draw order is gap_1, size_1, gap_2, size_2, ...,
  // each gap drawn with `now` = the previous arrival time (t0 before the
  // first), and the final gap crossing t1 is drawn but its size is not.

  /// Arms the pull cursor over [t0, t1).  May be called once, and
  /// excludes start().
  void begin_stream(sim::SimTime t0, sim::SimTime t1);

  /// Appends up to `max_arrivals` arrivals to `out` (not cleared).
  /// Returns the number appended; less than `max_arrivals` only when the
  /// active window is exhausted (stream_done() turns true).  The base
  /// loop draws from next_gap()/next_size().  Sources whose arrivals need
  /// no draws (CbrGenerator, TraceGenerator) override fill() instead,
  /// using the protected pull-cursor helpers below.
  virtual std::size_t fill(ArrivalChunk& out, std::size_t max_arrivals);

  /// True once fill() has consumed the whole active window.
  bool stream_done() const { return pull_done_; }

 protected:
  /// Next interarrival gap; called once per packet by the base fill().
  /// `now` is the previous arrival time (rate-modulated processes need
  /// it).  Throws std::logic_error unless overridden.
  virtual sim::SimTime next_gap(stats::Rng& rng, sim::SimTime now);

  /// Size of the next packet in bytes.  Throws std::logic_error unless
  /// overridden.
  virtual std::uint32_t next_size(stats::Rng& rng);

  /// Unused by the library: every generator draws through fill().  Kept
  /// only so subclasses outside it that still override it compile.
  virtual bool gap_is_time_invariant() const { return false; }

  stats::Rng& rng() { return rng_; }

  // --- pull-cursor helpers for fill() overrides --------------------------

  /// True once begin_stream() armed the pull cursor.
  bool pull_armed() const { return pull_active_; }

  /// End of the active window [t0, t1).
  sim::SimTime pull_end() const { return t1_; }

  /// The previous arrival time (gap anchor), t0 before the first arrival.
  sim::SimTime pull_cursor() const { return pull_t_; }

  /// Records one pulled arrival: advances the cursor and the sent
  /// counters exactly as the base fill() loop does.
  void advance_pull(sim::SimTime t, std::uint32_t size_bytes) {
    pull_t_ = t;
    ++packets_sent_;
    bytes_sent_ += size_bytes;
  }

  /// Marks the active window exhausted (stream_done() turns true).
  void finish_pull() { pull_done_ = true; }

 private:
  /// Arrivals a started generator pulls per fill() call.
  static constexpr std::size_t kPullBatch = 16;

  void schedule_next();  // schedule the next pulled arrival, if any
  void inject();         // inject it, then schedule_next()

  sim::Simulator& sim_;
  sim::Path& path_;
  std::size_t entry_hop_;
  bool one_hop_;
  std::uint32_t flow_id_;
  stats::Rng rng_;

  sim::SimTime t0_ = 0, t1_ = 0;
  bool pull_active_ = false;
  bool pull_done_ = false;
  sim::SimTime pull_t_ = 0;  ///< previous arrival time (gap anchor)
  std::uint32_t seq_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;

  ArrivalChunk pending_;           // pulled, not yet injected (start())
  std::size_t pending_head_ = 0;   // next arrival of pending_ to inject
};

}  // namespace abw::traffic
