// BFind (Akella, Seshan & Shaikh, IMC 2003): sender-side-only iterative
// probing.  The real tool floods UDP at a gradually increasing rate while
// running repeated traceroutes; a persistent RTT increase at some hop
// means the probing rate exceeds that hop's avail-bw.
//
// Substitution (see DESIGN.md): instead of ICMP TTL-expired RTTs we
// sample each link's instantaneous queueing delay directly — exactly the
// quantity a traceroute RTT difference exposes, minus ICMP generation
// noise.  The detection logic (persistent per-hop queue growth during a
// rate step) is the tool's.
#pragma once

#include "est/estimator.hpp"
#include "sim/packet.hpp"

namespace abw::est {

/// Parameters of BFind.
struct BfindConfig {
  double initial_rate_bps = 2e6;
  double rate_step_bps = 2e6;
  double max_rate_bps = 200e6;
  std::uint32_t packet_size = 1000;
  sim::SimTime step_duration = 500 * sim::kMillisecond;
  sim::SimTime sample_interval = 10 * sim::kMillisecond;  ///< "traceroute" period
  double growth_threshold_ms = 1.0;  ///< mean queue-delay growth to flag a hop
};

/// The BFind estimator.
class Bfind final : public Estimator {
 public:
  explicit Bfind(const BfindConfig& cfg);

  std::string_view name() const override { return "bfind"; }
  ProbingClass probing_class() const override { return ProbingClass::kIterative; }

  /// Hop flagged as the bottleneck by the last run (kEndToEnd if none).
  std::uint32_t flagged_hop() const { return flagged_hop_; }

 protected:
  Estimate do_estimate(probe::Transport& transport) override;

 private:
  BfindConfig cfg_;
  std::uint32_t flagged_hop_ = sim::kEndToEnd;
};

}  // namespace abw::est
