#include "probe/session.hpp"

#include <stdexcept>

namespace abw::probe {

ProbeSession::ProbeSession(sim::Simulator& sim, sim::Path& path)
    : sim_(sim), path_(path), sends_(sim) {
  probe_sink_.set_on_packet([this](const sim::Packet& pkt) {
    on_probe(pkt, sim_.now());
  });
  demux_.register_handler(sim::PacketType::kProbe, &probe_sink_);
  path_.set_receiver(&demux_);
}

void ProbeSession::set_drain_timeout(sim::SimTime t) {
  if (t < 0) throw std::invalid_argument("ProbeSession: negative drain timeout");
  drain_timeout_ = t;
}

StreamResult ProbeSession::send_stream(const StreamSpec& spec,
                                       sim::SimTime lead_in) {
  spec.validate();
  if (lead_in < 0)
    throw std::invalid_argument("ProbeSession: negative lead-in");
  if (active_ != nullptr)
    throw std::logic_error("ProbeSession: a stream is already in flight");
  const sim::SimTime start = sim_.now() + lead_in;

  StreamResult result;
  result.stream_id = next_stream_id_++;
  result.packets.resize(spec.packets.size());

  if (cost_.streams == 0) cost_.first_send = start;
  ++cost_.streams;

  // Each send carries its packet's identity by value, so no pending send
  // refers to this frame or to the caller's spec.
  for (std::size_t i = 0; i < spec.packets.size(); ++i) {
    const ProbePacketSpec& ps = spec.packets[i];
    const auto seq = static_cast<std::uint32_t>(i);
    result.packets[i].seq = seq;
    result.packets[i].size_bytes = ps.size_bytes;
    result.packets[i].sent = start + ps.offset;
    result.packets[i].lost = true;  // cleared on arrival

    cost_.packets++;
    cost_.bytes += ps.size_bytes;

    sends_.push(start + ps.offset, Send{this, result.stream_id, seq, ps.size_bytes});
  }

  active_ = &result;
  received_ = 0;
  recv_.reset();

  if (trace_) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kStreamStart;
    e.time = start;
    e.source = "session";
    e.stream_id = result.stream_id;
    e.count = spec.packets.size();
    e.size_bytes = spec.packets.front().size_bytes;
    trace_->emit(e);
  }

  sim::SimTime deadline = start + spec.packets.back().offset + drain_timeout_;
  std::size_t want = spec.packets.size();
  // Hybrid drain rule: fluid cross traffic schedules no events, so the
  // queue can empty before the deadline; a lossy stream then waits the
  // full drain timeout instead of returning at its last probe.
  if (!sim_.run_until_condition(deadline,
                                [this, want] { return received_ >= want; }) &&
      path_.hybrid())
    sim_.run_until(deadline);

  active_ = nullptr;
  cost_.last_activity = sim_.now();

  if (trace_) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kStreamEnd;
    e.time = sim_.now();
    e.source = "session";
    e.stream_id = result.stream_id;
    e.count = received_;
    e.seq = result.duplicate_count;        // schema: "dup"
    e.size_bytes = result.reordered_count; // schema: "reordered"
    trace_->emit(e);
  }
  return result;
}

void ProbeSession::send_probe(const Send& s) {
  sim::Packet pkt;
  pkt.id = sim_.next_packet_id();
  pkt.type = sim::PacketType::kProbe;
  pkt.measurement = true;  // excluded from cross-traffic ground truth
  pkt.size_bytes = s.size_bytes;
  pkt.stream_id = s.stream_id;
  pkt.seq = s.seq;
  pkt.send_time = sim_.now();
  path_.inject(0, pkt);
}

void ProbeSession::on_probe(const sim::Packet& pkt, sim::SimTime now) {
  if (active_ == nullptr || pkt.stream_id != active_->stream_id) return;  // stale
  ProbeRecord* rec = recv_.accept(*active_, pkt.seq);
  if (rec == nullptr) return;  // out of range, or duplicate (counted)
  // Timestamp against the (possibly unsynchronized, noisy) receiver clock.
  sim::SimTime stamp =
      now + clock_.offset +
      static_cast<sim::SimTime>(clock_.drift_ppm * 1e-6 *
                                static_cast<double>(now));
  if (clock_.jitter_std_seconds > 0.0)
    stamp += sim::from_seconds(clock_rng_.normal() * clock_.jitter_std_seconds);
  if (clock_.quantization > 0)
    stamp -= stamp % clock_.quantization;  // round down to clock ticks
  rec->received = stamp;
  ++received_;
}

}  // namespace abw::probe
