#include "sim/link.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/fluid.hpp"
#include "sim/hybrid.hpp"

namespace abw::sim {

Link::Link(Simulator& sim, std::string name, const LinkConfig& cfg)
    : sim_(sim),
      name_(std::move(name)),
      cfg_(cfg),
      meter_(cfg.capacity_bps),
      loss_rng_(cfg.loss_seed) {
  if (!(cfg.capacity_bps > 0.0))
    throw std::invalid_argument("Link: capacity must be > 0");
  if (cfg.propagation_delay < 0)
    throw std::invalid_argument("Link: negative propagation delay");
  if (cfg.random_loss_prob < 0.0 || cfg.random_loss_prob >= 1.0)
    throw std::invalid_argument("Link: random_loss_prob must be in [0,1)");
}

Link::~Link() = default;

void Link::emit_packet(obs::EventKind kind, const Packet& pkt,
                       std::string_view cause, SimTime time,
                       std::size_t queue_bytes) {
  obs::TraceEvent e;
  e.kind = kind;
  e.time = time;
  e.source = name_;
  e.label = cause;
  e.packet_id = pkt.id;
  e.stream_id = pkt.stream_id;
  e.seq = pkt.seq;
  e.size_bytes = pkt.size_bytes;
  e.queue_bytes = queue_bytes;
  trace_->emit(e);
}

void Link::emit_simple(obs::EventKind kind, std::string_view label,
                       double value) {
  obs::TraceEvent e;
  e.kind = kind;
  e.time = sim_.now();
  e.source = name_;
  e.label = label;
  e.queue_bytes = queued_bytes_;
  e.value = value;
  trace_->emit(e);
}

void Link::handle(Packet pkt) {
  if (fluid_) {
    handle_fluid(pkt);
    return;
  }
  ++stats_.packets_in;
  stats_.bytes_in += pkt.size_bytes;
  if (tap_) tap_(pkt, sim_.now());
  if (cfg_.random_loss_prob > 0.0 && loss_rng_.bernoulli(cfg_.random_loss_prob)) {
    ++stats_.packets_lost;
    if (trace_) emit_packet(obs::EventKind::kDrop, pkt, "rand-loss");
    return;
  }
  if (faults_) {
    // The chain advances inside ge_drop(); compare states around the call
    // so a transition is observable without perturbing the draw order.
    const bool was_bad = faults_->bad;
    const bool ge_dropped = faults_->ge_drop();
    if (trace_ && faults_->bad != was_bad)
      emit_simple(obs::EventKind::kGeTransition,
                  faults_->bad ? "bad" : "good", 0.0);
    if (ge_dropped) {
      ++stats_.packets_lost;
      ++stats_.packets_ge_lost;
      if (trace_) emit_packet(obs::EventKind::kDrop, pkt, "ge-loss");
      return;
    }
    if (faults_->duplicate()) {
      // The copy is a second, independent arrival at the queue: it runs
      // its own RED / queue-limit admission and, when admitted, consumes
      // transmission capacity like any packet (so the ground-truth meter
      // sees it).  Not counted in packets_in/bytes_in — it never arrived.
      ++stats_.packets_duplicated;
      admit(pkt);
    }
  }
  admit(pkt);
}

void Link::sync_fluid() const {
  // The tie rule (sim/hybrid.hpp): only fluid arrivals and departures
  // strictly before now.  Times are integer nanoseconds.
  if (fluid_feeder_) fluid_feeder_->sync(sim_.now() - 1);
}

void Link::handle_fluid(const Packet& pkt) {
  sync_fluid();
  const SimTime now = sim_.now();
  ++stats_.packets_in;
  stats_.bytes_in += pkt.size_bytes;
  if (tap_) tap_(pkt, now);
  const SimTime dep = fluid_->admit(now, pkt.size_bytes, pkt.measurement);
  if (dep < 0) {
    ++stats_.packets_dropped;
    if (trace_)
      emit_packet(obs::EventKind::kDrop, pkt, "queue", now,
                  fluid_->backlog_bytes());
    return;
  }
  if (trace_)
    emit_packet(obs::EventKind::kEnqueue, pkt, {}, now,
                fluid_->backlog_bytes());
  if (next_ == nullptr) throw std::logic_error("Link '" + name_ + "': no next handler");
  // The packet's one event: delivery downstream after propagation.  The
  // departure itself is counted by the FluidQueue; the deliver trace event
  // carries the departure time, as in packet mode.  The fluid backlog at
  // departure is not tracked, so it reports q = 0.
  sim_.at(dep + cfg_.propagation_delay, [this, pkt] {
    if (trace_)
      emit_packet(obs::EventKind::kDeliver, pkt, {},
                  sim_.now() - cfg_.propagation_delay, 0);
    next_->handle(pkt);
  });
}

void Link::admit(const Packet& pkt) {
  if (cfg_.discipline == QueueDiscipline::kRed && red_drop(pkt.size_bytes)) {
    ++stats_.packets_red_dropped;
    if (trace_) emit_packet(obs::EventKind::kDrop, pkt, "red");
    return;
  }
  if (queued_bytes_ + pkt.size_bytes > cfg_.queue_limit_bytes) {
    ++stats_.packets_dropped;
    if (trace_) emit_packet(obs::EventKind::kDrop, pkt, "queue");
    return;
  }
  queued_bytes_ += pkt.size_bytes;
  if (trace_) {
    emit_packet(obs::EventKind::kEnqueue, pkt, {});
    if (!transmitting_) emit_simple(obs::EventKind::kBusyStart, {}, 0.0);
  }
  if (!transmitting_) {
    // Uncongested fast path: an idle link's queue is empty (the transmit
    // loop only clears transmitting_ once it drained the queue), so the
    // packet can skip the ring round-trip entirely.
    begin_transmission(pkt);
  } else {
    queue_.push_back(pkt);
  }
}

void Link::start_transmission() {
  if (queue_.empty()) {
    transmitting_ = false;
    if (trace_) emit_simple(obs::EventKind::kBusyEnd, {}, 0.0);
    return;
  }
  begin_transmission(queue_.front());
  queue_.pop_front();
}

void Link::begin_transmission(const Packet& pkt) {
  transmitting_ = true;
  tx_pkt_ = pkt;
  if (trace_) emit_packet(obs::EventKind::kDequeue, pkt, {});

  // Serialization time memo: experiments transmit runs of equal-size
  // packets, so one compare replaces a double divide on the hot path
  // (same inputs -> same SimTime; timing is unchanged).
  if (pkt.size_bytes != memo_tx_bytes_) {
    memo_tx_bytes_ = pkt.size_bytes;
    memo_tx_time_ = transmission_time(pkt.size_bytes, cfg_.capacity_bps);
  }
  SimTime start = sim_.now();
  SimTime done = start + memo_tx_time_;
  meter_.add_busy(start, done, pkt.measurement);
  tx_start_ = start;
  tx_bits_left_ = 8.0 * static_cast<double>(pkt.size_bytes);

  // The single recurring transmit event: a 16-byte capture, stored inline
  // in the pooled queue.  tx_pkt_ is stable until this fires — handle()
  // never starts a transmission while transmitting_ is set.  The epoch
  // guard ignores a completion event stranded by a capacity re-plan.
  std::uint64_t epoch = ++tx_epoch_;
  sim_.at(done, [this, epoch] {
    if (epoch == tx_epoch_) finish_transmission();
  });
}

void Link::finish_transmission() {
  queued_bytes_ -= tx_pkt_.size_bytes;
  ++stats_.packets_out;
  stats_.bytes_out += tx_pkt_.size_bytes;
  if (trace_) emit_packet(obs::EventKind::kDeliver, tx_pkt_, {});
  if (next_ == nullptr) throw std::logic_error("Link '" + name_ + "': no next handler");
  // Deliver after propagation; capture by value so the packet survives
  // (several deliveries can be in flight at once along the propagation
  // pipe — each closure owns its copy, and the capture fits inline).
  // Fault-injected reordering adds a bounded extra delivery delay here:
  // packets transmitted behind this one can then overtake it in flight.
  PacketHandler* next = next_;
  SimTime delay = cfg_.propagation_delay;
  if (faults_) {
    SimTime extra = faults_->reorder_extra();
    if (extra > 0) {
      ++stats_.packets_reordered;
      delay += extra;
    }
  }
  if (delay == 0) {
    next->handle(tx_pkt_);  // by-value: the callee owns its copy
  } else {
    sim_.after(delay, [next, pkt = tx_pkt_]() mutable { next->handle(pkt); });
  }
  start_transmission();
}

bool Link::red_drop(std::uint32_t size_bytes) {
  // Classic byte-mode RED: EWMA of the instantaneous backlog; linear drop
  // ramp between the thresholds, forced drop above the max threshold.
  const RedConfig& red = cfg_.red;
  red_avg_bytes_ = (1.0 - red.ewma_weight) * red_avg_bytes_ +
                   red.ewma_weight * static_cast<double>(queued_bytes_ + size_bytes);
  if (red_avg_bytes_ <= static_cast<double>(red.min_threshold_bytes)) return false;
  if (red_avg_bytes_ >= static_cast<double>(red.max_threshold_bytes)) return true;
  double frac = (red_avg_bytes_ - static_cast<double>(red.min_threshold_bytes)) /
                static_cast<double>(red.max_threshold_bytes -
                                    red.min_threshold_bytes);
  return loss_rng_.bernoulli(frac * red.max_drop_prob);
}

void Link::set_faults(const LinkFaults& faults) {
  if (fluid_)
    throw std::logic_error("Link '" + name_ +
                           "': hybrid mode does not support fault injection "
                           "(per-packet fault RNG draws cannot be reproduced "
                           "analytically)");
  if (faults.gilbert.p_good_bad < 0.0 || faults.gilbert.p_good_bad > 1.0 ||
      faults.gilbert.p_bad_good < 0.0 || faults.gilbert.p_bad_good > 1.0 ||
      faults.gilbert.loss_good < 0.0 || faults.gilbert.loss_good > 1.0 ||
      faults.gilbert.loss_bad < 0.0 || faults.gilbert.loss_bad > 1.0)
    throw std::invalid_argument("Link '" + name_ +
                                "': Gilbert-Elliott probabilities must be in "
                                "[0,1]");
  if (faults.reorder_prob < 0.0 || faults.reorder_prob > 1.0 ||
      faults.duplicate_prob < 0.0 || faults.duplicate_prob > 1.0)
    throw std::invalid_argument(
        "Link '" + name_ + "': fault probabilities must be in [0,1]");
  if (faults.reorder_prob > 0.0 && faults.reorder_extra_max <= 0)
    throw std::invalid_argument("Link '" + name_ +
                                "': reorder_extra_max must be > 0");
  if (faults.any())
    faults_ = std::make_unique<FaultState>(faults);
  else
    faults_.reset();  // any()==false removes installed faults
}

void Link::expect_capacity_dynamics() {
  if (fluid_)
    throw std::logic_error("Link '" + name_ +
                           "': hybrid mode does not support capacity "
                           "dynamics (the analytic integration assumes a "
                           "constant serialization rate)");
  capacity_dynamic_ = true;
}

void Link::set_capacity(double bps) {
  if (!(bps > 0.0))
    throw std::invalid_argument("Link '" + name_ + "': capacity must be > 0");
  expect_capacity_dynamics();  // rejects fluid links, marks dynamic
  const SimTime now = sim_.now();
  const double old_bps = cfg_.capacity_bps;
  cfg_.capacity_bps = bps;
  // Invalidate the serialization-time memo (bytes=0 maps to time 0, which
  // matches transmission_time(0) at any rate) and record the step in the
  // meter's capacity timeline so ground truth integrates C(t) exactly.
  memo_tx_bytes_ = 0;
  memo_tx_time_ = 0;
  meter_.set_capacity(now, bps);
  ++stats_.capacity_changes;
  if (trace_) emit_simple(obs::EventKind::kCapacityChange, {}, bps);
  if (!transmitting_) return;

  // Re-plan the in-service packet: bits serialized so far stay sent, the
  // remainder continues at the new rate.  The stranded completion event
  // is invalidated by bumping the epoch; the packet's busy interval is
  // amended in place to the new completion time.
  const double sent = to_seconds(now - tx_start_) * old_bps;
  tx_bits_left_ = std::max(tx_bits_left_ - sent, 0.0);
  tx_start_ = now;
  const SimTime new_done =
      now + std::max<SimTime>(from_seconds(tx_bits_left_ / bps), 1);
  meter_.amend_last_end(new_done);
  std::uint64_t epoch = ++tx_epoch_;
  sim_.at(new_done, [this, epoch] {
    if (epoch == tx_epoch_) finish_transmission();
  });
}

FluidQueue& Link::enable_fluid(HybridAgent* feeder) {
  if (cfg_.discipline == QueueDiscipline::kRed)
    throw std::logic_error("Link '" + name_ +
                           "': hybrid mode does not support RED (its RNG "
                           "draw order cannot be reproduced analytically)");
  if (cfg_.random_loss_prob > 0.0)
    throw std::logic_error("Link '" + name_ +
                           "': hybrid mode does not support random loss");
  if (faults_)
    throw std::logic_error("Link '" + name_ +
                           "': hybrid mode does not support fault injection "
                           "(per-packet fault RNG draws cannot be reproduced "
                           "analytically)");
  if (capacity_dynamic_)
    throw std::logic_error("Link '" + name_ +
                           "': hybrid mode does not support capacity "
                           "dynamics (the analytic integration assumes a "
                           "constant serialization rate)");
  if (fluid_)
    throw std::logic_error("Link '" + name_ +
                           "': fluid already enabled (one source per link)");
  fluid_ = std::make_unique<FluidQueue>(*this);
  fluid_feeder_ = feeder;
  return *fluid_;
}

std::size_t Link::backlog_bytes() const {
  if (!fluid_) return queued_bytes_;
  sync_fluid();
  return fluid_->backlog_bytes();
}

SimTime Link::current_delay() const {
  return transmission_time(static_cast<std::uint32_t>(backlog_bytes()), cfg_.capacity_bps) +
         cfg_.propagation_delay;
}

}  // namespace abw::sim
