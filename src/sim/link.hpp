// Store-and-forward link: FIFO drop-tail output queue + transmitter +
// propagation delay.  This is the queueing model every experiment in the
// paper is built on (its Eq. 6: q-growth when Ri > A happens here).
//
// In hybrid mode (sim/hybrid.hpp) a link may instead run its FIFO as a
// FluidQueue fed by one cross-traffic source.  Discrete packets then join
// the fluid FIFO on arrival and cost one delivery event each; the event
// driven transmitter below stays idle.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "obs/trace.hpp"
#include "sim/fault.hpp"
#include "sim/packet.hpp"
#include "sim/ring_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/util_meter.hpp"
#include "stats/rng.hpp"

namespace abw::sim {

class FluidQueue;
class HybridAgent;

/// Active queue management discipline of a link.
enum class QueueDiscipline {
  kDropTail,  ///< drop arrivals once the byte limit is exceeded (default)
  kRed,       ///< Random Early Detection (Floyd & Jacobson 1993)
};

/// RED parameters (in bytes, mirroring the byte-based queue limit).
struct RedConfig {
  std::size_t min_threshold_bytes = 30 * 1500;
  std::size_t max_threshold_bytes = 90 * 1500;
  double max_drop_prob = 0.1;   ///< drop probability at max threshold
  double ewma_weight = 0.002;   ///< averaging weight for the queue estimate
};

/// Configuration of a link.
struct LinkConfig {
  double capacity_bps = 100e6;        ///< transmission rate, bits/s
  SimTime propagation_delay = 0;      ///< per-packet latency after tx
  std::size_t queue_limit_bytes = 1 << 20;  ///< hard byte limit
  /// Random per-packet loss probability (0 = lossless).  Applied on
  /// arrival, before queueing — models transmission errors independent of
  /// congestion (failure injection for estimator robustness tests).
  double random_loss_prob = 0.0;
  std::uint64_t loss_seed = 0x10557;  ///< RNG seed for the loss process
  QueueDiscipline discipline = QueueDiscipline::kDropTail;
  RedConfig red;                      ///< used when discipline == kRed
};

/// Counters a link exposes for tests and experiment reports.
struct LinkStats {
  std::uint64_t packets_in = 0;
  std::uint64_t packets_out = 0;
  std::uint64_t packets_dropped = 0;  ///< queue-overflow (congestion) drops
  std::uint64_t packets_red_dropped = 0;  ///< RED early drops
  std::uint64_t packets_lost = 0;     ///< random (non-congestion) losses,
                                      ///< Bernoulli AND Gilbert–Elliott
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  // Fault-injection accounting (sim/fault.hpp); all zero on clean links.
  std::uint64_t packets_ge_lost = 0;  ///< Gilbert–Elliott share of packets_lost
  std::uint64_t packets_duplicated = 0;  ///< injected duplicates (each also
                                         ///< counted in packets_out when sent)
  std::uint64_t packets_reordered = 0;   ///< departures given extra delay
  std::uint64_t capacity_changes = 0;    ///< set_capacity() calls applied

  bool operator==(const LinkStats&) const = default;
};

/// A unidirectional store-and-forward link.  Packets handed to `handle()`
/// join the FIFO queue (or are dropped when the byte limit is exceeded);
/// the head packet is transmitted at `capacity_bps` and delivered to the
/// downstream handler after the propagation delay.  Every transmission is
/// recorded in the UtilizationMeter, giving exact ground-truth avail-bw.
class Link final : public PacketHandler {
 public:
  Link(Simulator& sim, std::string name, const LinkConfig& cfg);
  ~Link() override;  // out-of-line: FluidQueue is incomplete here

  /// Sets the downstream receiver of transmitted packets.  Must be set
  /// before the first packet arrives; not owned.
  void set_next(PacketHandler* next) { next_ = next; }

  void handle(Packet pkt) override;

  const LinkStats& stats() const { return stats_; }
  const UtilizationMeter& meter() const { return meter_; }
  UtilizationMeter& meter() { return meter_; }
  double capacity_bps() const { return cfg_.capacity_bps; }
  SimTime propagation_delay() const { return cfg_.propagation_delay; }
  const std::string& name() const { return name_; }

  /// Instantaneous queue backlog in bytes (including the packet in
  /// transmission).  On a fluid link, the backlog a packet arriving now
  /// would find (the tie rule of sim/hybrid.hpp).
  std::size_t backlog_bytes() const;

  /// Queueing + transmission delay a packet arriving right now would see
  /// (ignores future arrivals).  Used by the BFind-style per-hop monitor.
  SimTime current_delay() const;

  /// Observes every packet *arriving* at the link (before any drop
  /// decision), with the arrival timestamp.  Used by trace recorders;
  /// at most one tap.
  void set_arrival_tap(std::function<void(const Packet&, SimTime)> tap) {
    tap_ = std::move(tap);
  }

  /// Pre-sizes the output queue for `n` queued packets (steady-state
  /// allocation-free operation; see tests/sim_alloc_test.cpp).
  void reserve_queue(std::size_t n) { queue_.reserve(n); }

  /// Attaches a trace sink (obs/trace.hpp) receiving packet
  /// enqueue/drop/dequeue/deliver, busy-run boundary, fault, and
  /// capacity-change events.  nullptr (the default) disables tracing:
  /// every emission site reduces to one null-pointer branch, and the
  /// simulation's behavior is bit-identical with any sink attached
  /// (emission draws no randomness and never advances time).  Not owned.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }
  obs::TraceSink* trace() const { return trace_; }

  // --- hybrid fluid fast path (see sim/fluid.hpp) ------------------------
  // In hybrid mode the link's FIFO is a FluidQueue: cross traffic is
  // integrated analytically, and handle() admits every discrete packet
  // into the same FIFO after syncing `feeder` to just before the arrival.
  // Packet mode never touches any of this: without enable_fluid() the only
  // added cost in handle() is one always-false branch.

  /// Creates the fluid integrator, fed by `feeder` (the link's one cross
  /// source; nullptr when the caller drives the FluidQueue directly).
  /// Throws if the link uses RED or random loss (their RNG draw order
  /// cannot be reproduced analytically — the hybrid validity envelope),
  /// or if already enabled (one fluid source per link).
  FluidQueue& enable_fluid(HybridAgent* feeder = nullptr);

  // --- fault injection (see sim/fault.hpp) -------------------------------
  // Impairments are mutually exclusive with the hybrid fluid fast path,
  // exactly like RED and random loss: analytic integration cannot
  // reproduce per-packet RNG draws or mid-run capacity steps.  With no
  // faults installed and no capacity change the packet-mode behavior is
  // bit-identical to a build without this layer.

  /// Installs per-packet faults (Gilbert–Elliott bursty loss, bounded
  /// reordering, duplication).  A config with any() == false removes
  /// previously installed faults.  Throws if the link runs fluid.
  void set_faults(const LinkFaults& faults);

  /// The installed fault configuration, or nullptr when none.
  const LinkFaults* faults() const { return faults_ ? &faults_->cfg : nullptr; }

  /// Changes the link capacity effective now.  The in-service packet is
  /// re-planned (its remaining bits continue at the new rate, its busy
  /// interval is amended in the meter), the serialization-time memo is
  /// invalidated, and the step is recorded in the meter's capacity
  /// timeline so ground-truth avail-bw stays exact across the change.
  /// Throws if the link runs fluid.
  void set_capacity(double bps);

  /// Marks the link capacity-dynamic ahead of a scheduled change, so
  /// enable_fluid() is rejected while the change is still pending.
  /// Throws if the link already runs fluid.
  void expect_capacity_dynamics();

 private:
  friend class FluidQueue;
  void start_transmission();                   // pull the next queued packet
  void begin_transmission(const Packet& pkt);  // serialize + arm the event
  void finish_transmission();  // the link's single recurring tx event
  void admit(const Packet& pkt);  // RED / queue-limit admission + enqueue
  bool red_drop(std::uint32_t size_bytes);  // RED admission decision
  void handle_fluid(const Packet& pkt);  // hybrid-mode arrival
  void sync_fluid() const;  // fluid up to date strictly before now
  // Trace emission helpers; call only under `if (trace_)`.  The short
  // form stamps sim_.now() and the DES backlog.
  void emit_packet(obs::EventKind kind, const Packet& pkt,
                   std::string_view cause) {
    emit_packet(kind, pkt, cause, sim_.now(), queued_bytes_);
  }
  void emit_packet(obs::EventKind kind, const Packet& pkt,
                   std::string_view cause, SimTime time,
                   std::size_t queue_bytes);
  void emit_simple(obs::EventKind kind, std::string_view label, double value);

  Simulator& sim_;
  std::string name_;
  LinkConfig cfg_;
  PacketHandler* next_ = nullptr;

  // The transmit loop self-drives through ONE event at a time: the packet
  // being serialized sits in tx_pkt_ and the scheduled completion thunk
  // re-arms itself from the ring queue — no per-packet closure.  The
  // thunk captures tx_epoch_; a capacity change re-plans the in-service
  // packet by bumping the epoch and arming a new completion event, which
  // strands the old one (there is no scheduler cancel).
  RingQueue<Packet> queue_;
  Packet tx_pkt_;
  std::size_t queued_bytes_ = 0;
  bool transmitting_ = false;
  SimTime tx_start_ = 0;        // when the in-service packet (re)started
  double tx_bits_left_ = 0.0;   // bits of it still unserialized at tx_start_
  std::uint64_t tx_epoch_ = 0;  // invalidates stale completion events
  // Last (size -> serialization time) pair; bytes=0 maps to time 0, which
  // matches transmission_time(0), so the empty memo is consistent.
  std::uint32_t memo_tx_bytes_ = 0;
  SimTime memo_tx_time_ = 0;

  LinkStats stats_;
  UtilizationMeter meter_;
  obs::TraceSink* trace_ = nullptr;  // not owned; nullptr = tracing off
  std::function<void(const Packet&, SimTime)> tap_;
  stats::Rng loss_rng_;
  double red_avg_bytes_ = 0.0;  // EWMA queue estimate for RED

  std::unique_ptr<FluidQueue> fluid_;  // hybrid mode only
  HybridAgent* fluid_feeder_ = nullptr;  // not owned

  // Fault injection: allocated only when faults are installed, so the
  // clean hot path pays one null check in handle() and one in
  // finish_transmission().
  std::unique_ptr<FaultState> faults_;
  bool capacity_dynamic_ = false;  // a capacity change applied or pending
};

}  // namespace abw::sim
