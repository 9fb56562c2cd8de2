// A compact TCP Reno implementation on the simulator.
//
// The paper's final pitfall (Fig. 7) compares bulk TCP throughput with the
// avail-bw and shows they differ systematically, depending on the
// receiver's advertised window Wr and on the congestion responsiveness of
// the cross traffic.  Reproducing it needs a real congestion-control loop
// sharing the tight link with the cross traffic, so this module implements
// Reno: slow start, congestion avoidance, fast retransmit/recovery, and
// retransmission timeouts, with the receiver window as the hard cap.
//
// Simplifications (standard in simulation studies and immaterial to the
// experiment): the reverse (ACK) path is a fixed uncongested delay, ACKs
// are per-segment (no delayed ACK), and there is no three-way handshake.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>

#include "sim/node.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace abw::tcp {

/// TCP connection parameters.
struct TcpConfig {
  std::uint32_t mss_bytes = 1460;        ///< payload per segment
  std::uint32_t wire_bytes = 1500;       ///< segment size on the wire
  double initial_cwnd = 2.0;             ///< segments
  std::uint32_t receiver_window = 64;    ///< Wr, segments (hard send cap)
  sim::SimTime reverse_delay = 5 * sim::kMillisecond;  ///< ACK path latency
  sim::SimTime min_rto = 200 * sim::kMillisecond;
  std::uint64_t bytes_to_send = 0;       ///< 0 = unbounded (bulk transfer)
  bool measurement_flow = false;         ///< the flow under measurement: its
                                         ///< load is excluded from the
                                         ///< cross-traffic ground truth

};

class TcpReceiverHub;

/// One delivery-rate sample, generated per ACK that advances delivered
/// data — the tcp_rate.c design: over the interval between a segment's
/// transmission and its acknowledgment, measure both the send rate and
/// the ACK rate of the data delivered in between, and take
///
///   bw = min(send_rate, ack_rate)
///
/// (the ACK rate alone can transiently exceed the bottleneck rate under
/// ACK compression; the send rate caps it).  Samples taken while the
/// sender had no data left to send are marked app-limited: they reflect
/// the application, not the network, and estimators must not let them
/// lower the estimate.
struct DeliveryRateSample {
  sim::SimTime time = 0;           ///< ACK arrival (sim clock)
  std::uint64_t delivered_bytes = 0;  ///< payload delivered over the interval
  double send_rate_bps = 0.0;      ///< delivered / send-side interval
  double ack_rate_bps = 0.0;       ///< delivered / ack-side interval
  double delivery_rate_bps = 0.0;  ///< min(send_rate, ack_rate)
  bool app_limited = false;        ///< sender ran out of data in the window
};

/// One TCP Reno sender endpoint (the receiver half lives in the hub and
/// is a cumulative-ACK generator).
class TcpConnection {
 public:
  /// `hop` is where the connection's segments enter the path (0 for
  /// end-to-end senders); `one_hop` makes the flow one-hop persistent
  /// cross traffic.  The connection registers itself with `hub`.
  TcpConnection(sim::Simulator& sim, sim::Path& path, TcpReceiverHub& hub,
                std::uint32_t flow_id, const TcpConfig& cfg,
                std::size_t hop = 0, bool one_hop = false);
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Begins transmitting at absolute time `t`.
  void start(sim::SimTime t);

  /// Invoked when the whole transfer completes (bytes_to_send > 0 only).
  void set_on_complete(std::function<void()> cb) { on_complete_ = std::move(cb); }

  /// Invoked on every ACK that advances delivered data, with the
  /// delivery-rate sample for the newly acknowledged segment's flight
  /// window (see DeliveryRateSample).  Passive observers (the online
  /// TcpDeliveryRateTracker) hook here; unset = zero extra work beyond
  /// the per-segment snapshot bookkeeping.
  void set_rate_sample_hook(std::function<void(const DeliveryRateSample&)> cb) {
    rate_sample_hook_ = std::move(cb);
  }

  /// Cumulative payload bytes acked so far.
  std::uint64_t acked_bytes() const {
    return static_cast<std::uint64_t>(highest_acked_) * cfg_.mss_bytes;
  }

  /// Goodput since start(), bits/s (payload bytes acked / elapsed).
  double throughput_bps(sim::SimTime now) const;

  bool completed() const { return completed_; }
  std::uint64_t retransmits() const { return retransmits_; }

  /// Receiver-side entry: the hub delivers arriving data segments here.
  void on_data_at_receiver(const sim::Packet& pkt);

 private:
  friend class TcpReceiverHub;

  void on_ack(std::uint32_t cum_ack);
  void try_send();
  void send_segment(std::uint32_t seq);
  void arm_rto();
  void on_rto(std::uint64_t epoch);

  sim::Simulator& sim_;
  sim::Path& path_;
  TcpReceiverHub& hub_;
  std::uint32_t flow_id_;
  TcpConfig cfg_;
  std::size_t hop_;
  bool one_hop_;

  // Sender state (in segments).
  double cwnd_;
  double ssthresh_ = 1e9;
  std::uint32_t next_seq_ = 0;       ///< next new segment to send
  std::uint32_t highest_acked_ = 0;  ///< segments cumulatively acked
  std::uint32_t dupacks_ = 0;
  bool in_recovery_ = false;
  std::uint32_t recovery_point_ = 0;
  std::uint64_t rto_epoch_ = 0;
  sim::SimTime rto_ = 1 * sim::kSecond;
  sim::SimTime srtt_ = 0;

  /// Per-segment transmit record: the send time (for RTT samples) plus
  /// the tcp_rate.c snapshot taken at transmission, from which the
  /// delivery-rate sample is generated when the segment is acked.
  struct TxRecord {
    sim::SimTime sent = 0;            ///< transmission time
    sim::SimTime first_sent = 0;      ///< window start: first send of flight
    std::uint32_t prior_delivered = 0;       ///< delivered count at send
    sim::SimTime prior_delivered_time = 0;   ///< last delivery time at send
    bool app_limited = false;         ///< write queue empty after this send
  };
  std::map<std::uint32_t, TxRecord> send_times_;

  // Delivery-rate bookkeeping (cumulative ACKs double as the delivered
  // counter; delivered_time_ is the arrival of the latest advancing ACK).
  sim::SimTime delivered_time_ = 0;
  sim::SimTime first_sent_of_flight_ = 0;
  std::function<void(const DeliveryRateSample&)> rate_sample_hook_;

  // Receiver state.
  std::uint32_t rcv_next_ = 0;           ///< next expected segment
  std::set<std::uint32_t> rcv_buffered_; ///< out-of-order segments held

  sim::SimTime start_time_ = 0;
  bool started_ = false;
  bool completed_ = false;
  std::uint64_t retransmits_ = 0;
  std::uint32_t total_segments_ = 0;  ///< 0 = unbounded
  std::function<void()> on_complete_;
};

/// Demultiplexes arriving TCP data segments to their connection's
/// receiver half, by flow id.  Register it for PacketType::kTcpData on
/// the path's TypeDemux (or install as receiver directly).
class TcpReceiverHub final : public sim::PacketHandler {
 public:
  void handle(sim::Packet pkt) override;

  /// Delivers a (possibly delayed) cumulative ACK to a sender; silently
  /// dropped if the flow is gone — this indirection keeps scheduled ACK
  /// events safe across connection teardown.
  void deliver_ack(std::uint32_t flow_id, std::uint32_t cum_ack);

  /// Fires a sender's retransmission timer; same teardown-safety rationale.
  void deliver_rto(std::uint32_t flow_id, std::uint64_t epoch);

  /// Called by TcpConnection's ctor/dtor.
  void attach(std::uint32_t flow_id, TcpConnection* conn);
  void detach(std::uint32_t flow_id);

 private:
  std::map<std::uint32_t, TcpConnection*> conns_;
};

}  // namespace abw::tcp
