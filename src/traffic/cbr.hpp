// Constant-bit-rate (periodic) cross traffic — the paper's "CBR" workload
// in Fig. 3, the closest packet-level realization of the fluid model.
#pragma once

#include "traffic/generator.hpp"
#include "traffic/packet_size.hpp"

namespace abw::traffic {

/// Emits fixed-size packets with constant interarrival 8*L/rate.
class CbrGenerator final : public Generator {
 public:
  CbrGenerator(sim::Simulator& sim, sim::Path& path, std::size_t entry_hop,
               bool one_hop, std::uint32_t flow_id, stats::Rng rng,
               double rate_bps, std::uint32_t packet_size);

  /// The arrival sequence is an arithmetic progression that touches no
  /// Rng, so fill() writes it directly instead of drawing through
  /// next_gap()/next_size().
  std::size_t fill(ArrivalChunk& out, std::size_t max_arrivals) override;

 private:
  sim::SimTime gap_;
  std::uint32_t packet_size_;
};

}  // namespace abw::traffic
