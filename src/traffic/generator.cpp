#include "traffic/generator.hpp"

#include <stdexcept>
#include <utility>

namespace abw::traffic {

Generator::Generator(sim::Simulator& sim, sim::Path& path, std::size_t entry_hop,
                     bool one_hop, std::uint32_t flow_id, stats::Rng rng)
    : sim_(sim),
      path_(path),
      entry_hop_(entry_hop),
      one_hop_(one_hop),
      flow_id_(flow_id),
      rng_(std::move(rng)) {
  if (entry_hop >= path.hop_count())
    throw std::invalid_argument("Generator: entry_hop out of range");
}

void Generator::start(sim::SimTime t0, sim::SimTime t1) {
  begin_stream(t0, t1);
  pending_.reserve(kPullBatch);
  sim_.at(t0, [this] { schedule_next(); });
}

// Runs at t0 and after each injection: one injection per generator is
// pending at a time, scheduled when the previous one fires.  That fixes
// the order of same-instant events, which the golden digests pin.
void Generator::schedule_next() {
  if (pending_head_ == pending_.size()) {
    pending_.clear();
    pending_head_ = 0;
    if (fill(pending_, kPullBatch) == 0) return;  // active window over
  }
  sim_.at(pending_.times[pending_head_], [this] { inject(); });
}

void Generator::inject() {
  sim::Packet pkt;
  pkt.id = sim_.next_packet_id();
  pkt.type = sim::PacketType::kCross;
  pkt.size_bytes = pending_.sizes[pending_head_++];
  pkt.flow_id = flow_id_;
  pkt.seq = seq_++;
  pkt.exit_hop = one_hop_ ? static_cast<std::uint32_t>(entry_hop_) : sim::kEndToEnd;
  pkt.send_time = sim_.now();
  path_.inject(entry_hop_, pkt);
  schedule_next();
}

void Generator::begin_stream(sim::SimTime t0, sim::SimTime t1) {
  if (pull_active_)
    throw std::logic_error("Generator: start/begin_stream called twice");
  if (t1 <= t0) throw std::invalid_argument("Generator: empty active window");
  pull_active_ = true;
  t0_ = t0;
  t1_ = t1;
  pull_t_ = t0;
}

std::size_t Generator::fill(ArrivalChunk& out, std::size_t max_arrivals) {
  if (!pull_active_) throw std::logic_error("Generator::fill before begin_stream");
  std::size_t n = 0;
  while (n < max_arrivals && !pull_done_) {
    sim::SimTime gap = next_gap(rng_, pull_t_);
    sim::SimTime t = pull_t_ + gap;
    if (t >= t1_) {
      pull_done_ = true;
      break;
    }
    std::uint32_t size = next_size(rng_);
    out.push_back(t, size);
    advance_pull(t, size);
    ++n;
  }
  return n;
}

sim::SimTime Generator::next_gap(stats::Rng&, sim::SimTime) {
  throw std::logic_error("Generator: next_gap not overridden");
}

std::uint32_t Generator::next_size(stats::Rng&) {
  throw std::logic_error("Generator: next_size not overridden");
}

double Generator::offered_rate() const {
  sim::SimTime elapsed = (sim_.now() < t1_ ? sim_.now() : t1_) - t0_;
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(bytes_sent_) * 8.0 / sim::to_seconds(elapsed);
}

}  // namespace abw::traffic
