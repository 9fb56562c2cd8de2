// An end-to-end path: a chain of store-and-forward links with per-hop
// cross-traffic injection points.  This realizes the paper's path model:
// H links, the tight link is the one with minimum avail-bw (Eq. 3), cross
// traffic may be one-hop persistent (enters link i, exits at link i+1,
// exactly as in the multiple-bottleneck experiment of Fig. 4).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/hybrid.hpp"
#include "sim/link.hpp"
#include "sim/node.hpp"
#include "sim/packet.hpp"
#include "sim/simulator.hpp"

namespace abw::sim {

/// A unidirectional multi-hop path.  Owns its links and routers.
/// End-to-end packets (exit_hop == kEndToEnd) traverse every hop and are
/// delivered to the receiver; cross packets with exit_hop == i leave the
/// path after link i into a per-path counting sink.
class Path {
 public:
  /// Builds a path of `configs.size()` hops.  Requires at least one hop.
  Path(Simulator& sim, const std::vector<LinkConfig>& configs);

  /// Sets the end host receiving end-to-end packets.  Not owned.
  void set_receiver(PacketHandler* receiver);

  /// Injects a packet at the entry of hop `hop` (0-based).  End-to-end
  /// senders use hop 0; one-hop cross generators use their link's index.
  void inject(std::size_t hop, Packet pkt);

  std::size_t hop_count() const { return links_.size(); }
  Link& link(std::size_t i) { return *links_.at(i); }
  const Link& link(std::size_t i) const { return *links_.at(i); }

  /// Sink where one-hop cross traffic exits (for conservation checks).
  const CountingSink& cross_sink() const { return cross_sink_; }

  /// Mutable access, e.g. to install a callback that hands one-hop TCP
  /// segments to a TcpReceiverHub.
  CountingSink& cross_sink() { return cross_sink_; }

  /// Ground-truth end-to-end avail-bw over [t1, t2): the minimum over all
  /// links of C_i * (1 - u_i(t1, t2)) — the paper's Eq. 3.  Counts ALL
  /// traffic, including any in-flight measurement load.
  double avail_bw(SimTime t1, SimTime t2) const;

  /// Same, but excluding measurement traffic (probes, the measured TCP
  /// flow): the avail-bw the measurement is trying to estimate.
  double cross_avail_bw(SimTime t1, SimTime t2) const;

  /// Index of the tight link (minimum avail-bw) over [t1, t2).
  std::size_t tight_link(SimTime t1, SimTime t2) const;

  /// Capacity of the narrow link (minimum capacity), bits/s.
  double narrow_capacity() const;

  /// Sum of per-hop propagation + zero-load transmission delay for a
  /// packet of `bytes` — the minimum possible one-way delay.
  SimTime base_owd(std::uint32_t bytes) const;

  // --- hybrid mode (see sim/hybrid.hpp) ----------------------------------

  /// Registers a hybrid cross-traffic source on this path.  Not owned.
  void attach_hybrid(HybridAgent* agent) { hybrid_agents_.push_back(agent); }

  /// True when any hybrid source is attached (the scenario runs in
  /// SimMode::kHybrid).
  bool hybrid() const { return !hybrid_agents_.empty(); }

  /// Brings all fluid accounting up to date through `t` (clamped to the
  /// simulator clock).  Ground-truth queries call this implicitly.
  void sync_hybrid(SimTime t) const;

 private:
  Simulator* sim_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<RouterNode>> routers_;
  CountingSink cross_sink_;
  PacketHandler* receiver_ = nullptr;
  std::vector<HybridAgent*> hybrid_agents_;
};

}  // namespace abw::sim
