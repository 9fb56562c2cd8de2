// Transport: the substrate abstraction under the probe layer.
//
// Every estimation technique needs exactly four things from the world:
// send one probing stream and get the receiver's measurements back, read
// a clock, idle for a while, and account its probing overhead.  Transport
// names that contract, so the same tool code runs over
//
//  * SimTransport — today's simulated ProbeSession, bit-identical to
//    calling the session directly (golden-digest-pinned): the
//    deterministic CI twin;
//  * net::UdpTransport — timestamped UDP probe packets over real sockets
//    against a live abwd daemon (net/daemon.hpp), where the clock is the
//    host's and the receiver's clock is genuinely unsynchronized.
//
// What SimTransport guarantees that a live transport cannot: determinism
// (a seeded run replays exactly), a receiver clock synchronized to the
// sender (unless a ReceiverClock model is installed), and zero timestamp
// noise.  Tools must not depend on any of those — see DESIGN.md
// "Transport contract".
#pragma once

#include <string_view>

#include "probe/session.hpp"
#include "probe/stream_result.hpp"
#include "probe/stream_spec.hpp"
#include "sim/time.hpp"

namespace abw::probe {

/// Abstract measurement substrate.  All times are sim::SimTime
/// (nanoseconds): simulated time on SimTransport, wall-clock nanoseconds
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

  /// The underlying simulated session when this transport is a
  /// simulation, nullptr on live transports.  The escape hatch for
  /// techniques with sim-only instrumentation (BFind's per-hop queueing
  /// probes); every tool must still terminate sensibly when it returns
  /// nullptr.
  virtual ProbeSession* sim_session() { return nullptr; }
};

/// The simulator backend: a thin, stateless adapter over ProbeSession.
/// Every call forwards 1:1 to what estimators historically called
/// directly, so a tool run through SimTransport is bit-identical to one
/// run against the session (tests/transport_test.cpp pins this per tool).
class SimTransport final : public Transport {
 public:
  explicit SimTransport(ProbeSession& session) : session_(session) {}

  // Repeats the base default: default arguments bind to the static type,
  // so a call through SimTransport& would otherwise need both arguments.
  StreamResult send_stream(const StreamSpec& spec,
                           sim::SimTime lead_in = sim::kMillisecond) override {
    return session_.send_stream_now(spec, lead_in);
  }

  sim::SimTime now() override { return session_.simulator().now(); }

  void wait(sim::SimTime duration) override {
    session_.simulator().run_until(session_.simulator().now() + duration);
  }

  const ProbeCost& cost() const override { return session_.cost(); }

  std::string_view kind() const override { return "sim"; }

  ProbeSession* sim_session() override { return &session_; }

 private:
  ProbeSession& session_;
};

}  // namespace abw::probe
