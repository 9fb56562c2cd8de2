#include "trace/packet_trace.hpp"

#include <stdexcept>

namespace abw::trace {

PacketTrace::PacketTrace(double capacity_bps) : capacity_bps_(capacity_bps) {
  if (capacity_bps <= 0.0)
    throw std::invalid_argument("PacketTrace: capacity must be > 0");
}

void PacketTrace::add(sim::SimTime at, std::uint32_t size_bytes) {
  if (!records_.empty() && at < records_.back().at)
    throw std::invalid_argument("PacketTrace: out-of-order record");
  if (size_bytes == 0) throw std::invalid_argument("PacketTrace: zero-size packet");
  records_.push_back({at, size_bytes});
  total_bytes_ += size_bytes;
}

double PacketTrace::mean_utilization() const {
  sim::SimTime span = end_time() - start_time();
  if (span <= 0) return 0.0;
  double rate = static_cast<double>(total_bytes_) * 8.0 / sim::to_seconds(span);
  return rate / capacity_bps_;
}

LinkTraceRecorder::LinkTraceRecorder(sim::Link& link,
                                     std::optional<sim::PacketType> only)
    : trace_(link.capacity_bps()) {
  link.set_arrival_tap([this, only](const sim::Packet& pkt, sim::SimTime now) {
    // Arrival taps fire in time order because the simulator is
    // single-threaded and links process arrivals immediately.
    if (only.has_value() && pkt.type != *only) return;
    trace_.add(now, pkt.size_bytes);
  });
}

}  // namespace abw::trace
