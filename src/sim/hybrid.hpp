// Hybrid fluid/packet simulation mode.
//
// Every figure in the paper needs long runs where cross-traffic packets
// outnumber probe packets by 100-1000x.  In hybrid mode a link's cross
// traffic never becomes events: the link's FluidQueue integrates the FIFO
// queue analytically from the same (time, size) arrival stream that packet
// mode injects as events.  A discrete packet (a probe) reaching a fluid
// link joins that FIFO analytically too: the link brings its source up to
// date to just before the arrival, applies drop-tail against the fluid
// backlog, and schedules one delivery event at the packet's departure plus
// propagation delay.  Simulation cost therefore scales with the number of
// discrete packets, not with the cross load or the idle time between
// streams.  Probe timestamps, counters and meters match packet mode bit
// for bit, up to the end of the first lossy stream (ProbeSession's drain
// rule).
//
// Same-instant ties follow the tie rule: a discrete packet arriving at t
// sees only fluid arrivals and departures strictly before t.  Cross
// arrivals at exactly t queue behind it, and departures at exactly t still
// count against the byte limit.  Packet mode orders same-instant events by
// when they were scheduled; the rule is its order for packets whose events
// were scheduled ahead, as a probe stream's sends are.
// Link::current_delay() and Link::backlog_bytes() answer with the same
// rule.
//
// Packet mode is bit-identical to a build without hybrid support.
#pragma once

#include "sim/time.hpp"

namespace abw::sim {

/// How a scenario advances its cross traffic.
enum class SimMode {
  kPacket,  ///< every cross packet is a scheduled event (bit-exact baseline)
  kHybrid,  ///< cross traffic integrated as a fluid; probes join it exactly
};

/// The cross-traffic source feeding one fluid link.  Implemented by
/// traffic::HybridCrossSource; links and paths bring the fluid up to date
/// through this interface without a sim->traffic layer dependency.
class HybridAgent {
 public:
  virtual ~HybridAgent() = default;

  /// Brings the fluid accounting (utilization meter, link stats, backlog)
  /// up to date through time `t` (clamped to now): arrivals and departures
  /// at or before `t` are applied.
  virtual void sync(SimTime t) = 0;
};

}  // namespace abw::sim
