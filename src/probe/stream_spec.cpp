#include "probe/stream_spec.hpp"

#include <stdexcept>

namespace abw::probe {

double StreamSpec::nominal_rate_bps() const {
  if (packets.size() < 2) return 0.0;
  std::uint64_t bits = 0;
  for (std::size_t i = 1; i < packets.size(); ++i) bits += packets[i].size_bytes * 8ULL;
  sim::SimTime s = span();
  if (s <= 0) return 0.0;
  return static_cast<double>(bits) / sim::to_seconds(s);
}

sim::SimTime StreamSpec::span() const {
  if (packets.empty()) return 0;
  return packets.back().offset - packets.front().offset;
}

void StreamSpec::validate() const {
  if (packets.empty()) throw std::invalid_argument("StreamSpec: empty stream");
  sim::SimTime prev = 0;
  for (const ProbePacketSpec& p : packets) {
    if (p.offset < prev)
      throw std::invalid_argument(
          p.offset < 0 ? "StreamSpec: negative send offset"
                       : "StreamSpec: send offsets decrease");
    prev = p.offset;
  }
}

StreamSpec StreamSpec::periodic(double rate_bps, std::uint32_t size,
                                std::size_t count) {
  if (rate_bps <= 0.0 || size == 0 || count == 0)
    throw std::invalid_argument("StreamSpec::periodic: bad parameters");
  sim::SimTime gap = sim::transmission_time(size, rate_bps);
  StreamSpec spec;
  spec.packets.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    spec.packets.push_back({static_cast<sim::SimTime>(i) * gap, size});
  return spec;
}

StreamSpec StreamSpec::packet_pair(double rate_bps, std::uint32_t size) {
  return periodic(rate_bps, size, 2);
}

StreamSpec StreamSpec::pair_train(double intra_rate_bps, std::uint32_t size,
                                  std::size_t pairs, sim::SimTime mean_pair_gap,
                                  stats::Rng& rng) {
  if (pairs == 0) throw std::invalid_argument("StreamSpec::pair_train: no pairs");
  if (mean_pair_gap <= 0)
    throw std::invalid_argument("StreamSpec::pair_train: bad pair gap");
  sim::SimTime intra = sim::transmission_time(size, intra_rate_bps);
  StreamSpec spec;
  spec.packets.reserve(2 * pairs);
  sim::SimTime t = 0;
  for (std::size_t p = 0; p < pairs; ++p) {
    spec.packets.push_back({t, size});
    spec.packets.push_back({t + intra, size});
    t += intra +
         sim::from_seconds(rng.exponential(sim::to_seconds(mean_pair_gap)));
  }
  return spec;
}

StreamSpec StreamSpec::chirp(double low_rate_bps, double gamma, std::uint32_t size,
                             std::size_t count) {
  if (low_rate_bps <= 0.0 || gamma <= 1.0 || count < 2)
    throw std::invalid_argument("StreamSpec::chirp: bad parameters");
  StreamSpec spec;
  spec.packets.reserve(count);
  sim::SimTime t = 0;
  double gap_s = static_cast<double>(size) * 8.0 / low_rate_bps;
  for (std::size_t i = 0; i < count; ++i) {
    spec.packets.push_back({t, size});
    t += sim::from_seconds(gap_s);
    gap_s /= gamma;
  }
  return spec;
}

double StreamSpec::instantaneous_rate(std::size_t k) const {
  if (k == 0 || k >= packets.size())
    throw std::out_of_range("StreamSpec::instantaneous_rate: k out of range");
  sim::SimTime gap = packets[k].offset - packets[k - 1].offset;
  if (gap <= 0) throw std::logic_error("StreamSpec: non-positive gap");
  return static_cast<double>(packets[k].size_bytes) * 8.0 / sim::to_seconds(gap);
}

}  // namespace abw::probe
