#include "traffic/cbr.hpp"

#include <stdexcept>

namespace abw::traffic {

CbrGenerator::CbrGenerator(sim::Simulator& sim, sim::Path& path,
                           std::size_t entry_hop, bool one_hop,
                           std::uint32_t flow_id, stats::Rng rng, double rate_bps,
                           std::uint32_t packet_size)
    : Generator(sim, path, entry_hop, one_hop, flow_id, std::move(rng)),
      packet_size_(packet_size) {
  if (!(rate_bps > 0.0) || packet_size == 0)
    throw std::invalid_argument("CbrGenerator: rate and size must be > 0");
  gap_ = sim::transmission_time(packet_size, rate_bps);
}

std::size_t CbrGenerator::fill(ArrivalChunk& out, std::size_t max_arrivals) {
  if (!pull_armed())
    throw std::logic_error("Generator::fill before begin_stream");
  const sim::SimTime t1 = pull_end();
  sim::SimTime t = pull_cursor();
  std::size_t n = 0;
  while (n < max_arrivals) {
    t += gap_;
    if (t >= t1) {
      finish_pull();
      break;
    }
    out.push_back(t, packet_size_);
    advance_pull(t, packet_size_);
    ++n;
  }
  return n;
}

}  // namespace abw::traffic
