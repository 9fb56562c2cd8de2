#include "tcp/tcp.hpp"

#include <algorithm>
#include <stdexcept>

namespace abw::tcp {

TcpConnection::TcpConnection(sim::Simulator& sim, sim::Path& path,
                             TcpReceiverHub& hub, std::uint32_t flow_id,
                             const TcpConfig& cfg, std::size_t hop, bool one_hop)
    : sim_(sim),
      path_(path),
      hub_(hub),
      flow_id_(flow_id),
      cfg_(cfg),
      hop_(hop),
      one_hop_(one_hop),
      cwnd_(cfg.initial_cwnd) {
  if (cfg.mss_bytes == 0 || cfg.wire_bytes < cfg.mss_bytes)
    throw std::invalid_argument("TcpConnection: bad segment sizes");
  if (cfg.receiver_window == 0)
    throw std::invalid_argument("TcpConnection: zero receiver window");
  total_segments_ = cfg.bytes_to_send == 0
                        ? 0
                        : static_cast<std::uint32_t>(
                              (cfg.bytes_to_send + cfg.mss_bytes - 1) / cfg.mss_bytes);
  hub_.attach(flow_id_, this);
}

TcpConnection::~TcpConnection() { hub_.detach(flow_id_); }

void TcpConnection::start(sim::SimTime t) {
  if (started_) throw std::logic_error("TcpConnection::start called twice");
  started_ = true;
  sim_.at(t, [this] {
    start_time_ = sim_.now();
    try_send();
    arm_rto();
  });
}

double TcpConnection::throughput_bps(sim::SimTime now) const {
  if (now <= start_time_) return 0.0;
  return static_cast<double>(acked_bytes()) * 8.0 / sim::to_seconds(now - start_time_);
}

void TcpConnection::try_send() {
  if (completed_) return;
  double window = std::min(cwnd_, static_cast<double>(cfg_.receiver_window));
  auto limit = highest_acked_ + static_cast<std::uint32_t>(window);
  while (next_seq_ < limit &&
         (total_segments_ == 0 || next_seq_ < total_segments_)) {
    send_segment(next_seq_);
    ++next_seq_;
  }
}

void TcpConnection::send_segment(std::uint32_t seq) {
  sim::Packet pkt;
  pkt.id = sim_.next_packet_id();
  pkt.type = sim::PacketType::kTcpData;
  pkt.measurement = cfg_.measurement_flow;
  pkt.size_bytes = cfg_.wire_bytes;
  pkt.flow_id = flow_id_;
  pkt.seq = seq;
  pkt.exit_hop = one_hop_ ? static_cast<std::uint32_t>(hop_) : sim::kEndToEnd;
  pkt.send_time = sim_.now();
  // tcp_rate.c snapshot: when nothing is in flight a new sample window
  // opens at this send (both rate denominators restart here).
  if (next_seq_ == highest_acked_) {
    first_sent_of_flight_ = sim_.now();
    delivered_time_ = sim_.now();
  }
  TxRecord rec;
  rec.sent = sim_.now();
  rec.first_sent = first_sent_of_flight_;
  rec.prior_delivered = highest_acked_;
  rec.prior_delivered_time = delivered_time_;
  // App-limited: after this send the write queue is empty (bounded flows
  // only; bulk flows always have data and are window/network-limited).
  rec.app_limited = total_segments_ != 0 && seq + 1 >= total_segments_;
  send_times_[seq] = rec;
  path_.inject(hop_, pkt);
}

void TcpConnection::on_data_at_receiver(const sim::Packet& pkt) {
  // Cumulative-ACK receiver with out-of-order buffering (standard TCP
  // receiver behaviour): in-order data advances rcv_next_, possibly
  // consuming previously buffered segments; a gap buffers the segment and
  // elicits a duplicate ACK.
  if (pkt.seq == rcv_next_) {
    ++rcv_next_;
    while (rcv_buffered_.erase(rcv_next_) != 0) ++rcv_next_;
  } else if (pkt.seq > rcv_next_) {
    rcv_buffered_.insert(pkt.seq);
  }
  std::uint32_t cum = rcv_next_;
  // Deliver through the hub so the event survives connection teardown.
  TcpReceiverHub* hub = &hub_;
  std::uint32_t id = flow_id_;
  sim_.after(cfg_.reverse_delay, [hub, id, cum] { hub->deliver_ack(id, cum); });
}

void TcpConnection::on_ack(std::uint32_t cum_ack) {
  if (completed_) return;
  if (cum_ack > highest_acked_) {
    // New data acknowledged.
    auto it = send_times_.find(cum_ack - 1);
    if (it != send_times_.end()) {
      const TxRecord& rec = it->second;
      sim::SimTime rtt = sim_.now() - rec.sent;
      srtt_ = srtt_ == 0 ? rtt : (7 * srtt_ + rtt) / 8;
      rto_ = std::max(cfg_.min_rto, 2 * srtt_);
      if (rate_sample_hook_) {
        // Delivery-rate sample over the acked segment's flight window:
        // data delivered since its transmission, against both the
        // send-side and ack-side intervals (tcp_rate.c).
        std::uint32_t delivered = cum_ack - rec.prior_delivered;
        sim::SimTime snd_span = rec.sent - rec.first_sent;
        sim::SimTime ack_span = sim_.now() - rec.prior_delivered_time;
        sim::SimTime span = std::max(snd_span, ack_span);
        if (delivered > 0 && span > 0) {
          DeliveryRateSample s;
          s.time = sim_.now();
          s.delivered_bytes =
              static_cast<std::uint64_t>(delivered) * cfg_.mss_bytes;
          double bits = static_cast<double>(s.delivered_bytes) * 8.0;
          s.send_rate_bps =
              snd_span > 0 ? bits / sim::to_seconds(snd_span) : 0.0;
          s.ack_rate_bps = ack_span > 0 ? bits / sim::to_seconds(ack_span) : 0.0;
          s.delivery_rate_bps = bits / sim::to_seconds(span);
          s.app_limited = rec.app_limited;
          rate_sample_hook_(s);
        }
      }
      // Advance the send-side window to the delivered segment's
      // transmission (tcp_rate.c advances first_tx_mstamp on every
      // delivery): the next sample's send interval starts here instead of
      // stretching back to a flight start that a bulk flow never renews.
      first_sent_of_flight_ = rec.sent;
    }
    delivered_time_ = sim_.now();
    send_times_.erase(send_times_.begin(), send_times_.upper_bound(cum_ack - 1));
    highest_acked_ = cum_ack;
    dupacks_ = 0;

    if (in_recovery_) {
      if (highest_acked_ >= recovery_point_) {
        in_recovery_ = false;
        cwnd_ = ssthresh_;  // deflate
      } else {
        // Partial ACK (NewReno-style): retransmit the next hole.
        ++retransmits_;
        send_segment(highest_acked_);
        cwnd_ = ssthresh_;
      }
    } else if (cwnd_ < ssthresh_) {
      cwnd_ += 1.0;  // slow start
    } else {
      cwnd_ += 1.0 / cwnd_;  // congestion avoidance
    }

    arm_rto();

    if (total_segments_ != 0 && highest_acked_ >= total_segments_) {
      completed_ = true;
      ++rto_epoch_;  // cancel pending RTO
      if (on_complete_) on_complete_();
      return;
    }
  } else if (cum_ack == highest_acked_) {
    ++dupacks_;
    if (!in_recovery_ && dupacks_ == 3) {
      // Fast retransmit + fast recovery.
      double flight = static_cast<double>(next_seq_ - highest_acked_);
      ssthresh_ = std::max(flight / 2.0, 2.0);
      in_recovery_ = true;
      recovery_point_ = next_seq_;
      ++retransmits_;
      send_segment(highest_acked_);
      cwnd_ = ssthresh_ + 3.0;
    } else if (in_recovery_) {
      cwnd_ += 1.0;  // window inflation per extra dupack
    }
  }
  try_send();
}

void TcpConnection::arm_rto() {
  std::uint64_t epoch = ++rto_epoch_;
  TcpReceiverHub* hub = &hub_;
  std::uint32_t id = flow_id_;
  sim_.after(rto_, [hub, id, epoch] { hub->deliver_rto(id, epoch); });
}

void TcpConnection::on_rto(std::uint64_t epoch) {
  if (epoch != rto_epoch_ || completed_) return;  // stale or finished
  if (next_seq_ == highest_acked_) {
    // Nothing outstanding; idle connection, just re-arm.
    arm_rto();
    return;
  }
  double flight = static_cast<double>(next_seq_ - highest_acked_);
  ssthresh_ = std::max(flight / 2.0, 2.0);
  cwnd_ = 1.0;
  in_recovery_ = false;
  dupacks_ = 0;
  ++retransmits_;
  // Go-back-N from the hole; segments beyond will be retransmitted as the
  // window reopens.
  next_seq_ = highest_acked_;
  rto_ = std::min<sim::SimTime>(2 * rto_, 60 * sim::kSecond);  // backoff
  try_send();
  arm_rto();
}

void TcpReceiverHub::handle(sim::Packet pkt) {
  auto it = conns_.find(pkt.flow_id);
  if (it == conns_.end()) return;  // late segment of a finished flow
  it->second->on_data_at_receiver(pkt);
}

void TcpReceiverHub::deliver_ack(std::uint32_t flow_id, std::uint32_t cum_ack) {
  auto it = conns_.find(flow_id);
  if (it == conns_.end()) return;
  it->second->on_ack(cum_ack);
}

void TcpReceiverHub::deliver_rto(std::uint32_t flow_id, std::uint64_t epoch) {
  auto it = conns_.find(flow_id);
  if (it == conns_.end()) return;
  it->second->on_rto(epoch);
}

void TcpReceiverHub::attach(std::uint32_t flow_id, TcpConnection* conn) {
  if (!conns_.emplace(flow_id, conn).second)
    throw std::logic_error("TcpReceiverHub: duplicate flow id");
}

void TcpReceiverHub::detach(std::uint32_t flow_id) { conns_.erase(flow_id); }

}  // namespace abw::tcp
