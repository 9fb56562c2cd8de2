#include "traffic/aggregate.hpp"

#include <stdexcept>

namespace abw::traffic {

AggregateOnOff::AggregateOnOff(sim::Simulator& sim, sim::Path& path,
                               std::size_t entry_hop, bool one_hop,
                               std::uint32_t first_flow_id, stats::Rng& rng,
                               double total_rate_bps, std::size_t count,
                               ParetoOnOffConfig per_source) {
  if (count == 0) throw std::invalid_argument("AggregateOnOff: count == 0");
  per_source.mean_rate_bps = total_rate_bps / static_cast<double>(count);
  if (per_source.peak_rate_bps <= per_source.mean_rate_bps)
    throw std::invalid_argument(
        "AggregateOnOff: per-source peak must exceed per-source mean");
  sources_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    sources_.push_back(std::make_unique<ParetoOnOffGenerator>(
        sim, path, entry_hop, one_hop,
        first_flow_id + static_cast<std::uint32_t>(i), rng.fork(), per_source));
  }
}

void AggregateOnOff::start(sim::SimTime t0, sim::SimTime t1) {
  for (auto& s : sources_) s->start(t0, t1);
}

std::uint64_t AggregateOnOff::bytes_sent() const {
  std::uint64_t n = 0;
  for (const auto& s : sources_) n += s->bytes_sent();
  return n;
}

}  // namespace abw::traffic
