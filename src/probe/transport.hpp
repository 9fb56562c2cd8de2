// Transport: the substrate abstraction under the probe layer.
//
// Every estimation technique needs exactly four things from the world:
// send one probing stream and get the receiver's measurements back, read
// a clock, idle for a while, and account its probing overhead.  Transport
// names that contract, so the same tool code runs over
//
//  * ProbeSession — the simulated sender/receiver pair over a sim::Path
//    (probe/session.hpp): the deterministic CI twin;
//  * net::UdpTransport — timestamped UDP probe packets over real sockets
//    against a live abwd daemon (net/daemon.hpp), where the clock is the
//    host's and the receiver's clock is genuinely unsynchronized.
//
// What ProbeSession guarantees that a live transport cannot: determinism
// (a seeded run replays exactly), a receiver clock synchronized to the
// sender (unless a ReceiverClock model is installed), and zero timestamp
// noise.  Tools must not depend on any of those — see DESIGN.md
// "Transport contract".
#pragma once

#include <cstdint>
#include <string_view>

#include "probe/stream_result.hpp"
#include "probe/stream_spec.hpp"
#include "sim/time.hpp"

namespace abw::probe {

class ProbeSession;

/// Per-transport probing totals — the overhead/intrusiveness side of the
/// paper's latency-vs-accuracy tradeoff.
struct ProbeCost {
  std::uint64_t streams = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  sim::SimTime first_send = 0;
  sim::SimTime last_activity = 0;

  /// Wall-clock measurement latency so far.
  sim::SimTime elapsed() const { return last_activity - first_send; }
};

/// Abstract measurement substrate.  All times are sim::SimTime
/// (nanoseconds): simulated time on ProbeSession, wall-clock nanoseconds
/// since transport construction on live transports.
class Transport {
 public:
  virtual ~Transport() = default;

  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Sends one probing stream starting `lead_in` after now and blocks —
  /// advancing simulated time, or real time — until every packet arrived
  /// or the transport's drain timeout passed; returns the receiver's
  /// measurements.  Lost packets keep lost == true.
  virtual StreamResult send_stream(const StreamSpec& spec,
                                   sim::SimTime lead_in = sim::kMillisecond) = 0;

  /// The transport clock (the measurement's notion of elapsed time; what
  /// EstimatorLimits::deadline is measured against).
  virtual sim::SimTime now() = 0;

  /// Idles for `duration` (inter-stream gaps): advances the simulation,
  /// or sleeps.
  virtual void wait(sim::SimTime duration) = 0;

  /// Probing overhead accumulated over this transport's lifetime.
  virtual const ProbeCost& cost() const = 0;

  /// Transport family, for diagnostics ("sim", "udp").
  virtual std::string_view kind() const = 0;

  /// The session itself when this transport is a simulation, nullptr on
  /// live transports.  The escape hatch for techniques with sim-only
  /// instrumentation (BFind's per-hop queueing probes); every tool must
  /// still terminate sensibly when it returns nullptr.
  virtual ProbeSession* sim_session() { return nullptr; }
};

}  // namespace abw::probe
