// ProbeSession: sender + receiver of probing streams over a simulated
// path, and the simulated probe::Transport.  This is the substrate every
// estimation technique in est/ runs on in simulation: an estimator asks
// the session to send a stream and gets back the receiver's
// measurements, exactly like a real tool's sender/receiver processes
// cooperating over a network — minus clock skew, which the simulator
// removes by construction (see DESIGN.md substitutions).
#pragma once

#include <cstdint>
#include <optional>

#include "obs/trace.hpp"
#include "probe/receiver_state.hpp"
#include "probe/stream_result.hpp"
#include "probe/stream_spec.hpp"
#include "probe/transport.hpp"
#include "sim/event_line.hpp"
#include "sim/node.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"

namespace abw::probe {

/// Receiver clock model: real tools never have a synchronized receiver.
/// OWDs measured against this clock carry a constant offset plus a slow
/// drift — which is why tools analyze *relative* OWDs and short-stream
/// trends (drift over one stream is negligible).  Defaults are a perfect
/// clock.
struct ReceiverClock {
  sim::SimTime offset = 0;  ///< constant receiver-sender clock offset
  double drift_ppm = 0.0;   ///< receiver clock rate error, parts-per-million
  sim::SimTime quantization = 0;  ///< timestamp granularity (0 = exact);
                                  ///< e.g. 1 us for gettimeofday-era hosts
  double jitter_std_seconds = 0.0;  ///< Gaussian timestamping noise
                                    ///< (interrupt coalescing, softirq)
};

/// Sends probing streams end-to-end over a Path and collects per-packet
/// receive timestamps.  Installs itself as the path receiver via an
/// internal TypeDemux (exposed so other endpoints, e.g. TCP sinks, can
/// share the path).
class ProbeSession final : public Transport {
 public:
  ProbeSession(sim::Simulator& sim, sim::Path& path);

  /// Sends one stream starting `lead_in` after now and runs the
  /// simulation until every packet arrived or has been given
  /// `drain_timeout` after the last send to arrive (covers queueing and
  /// losses).  A stream still missing packets returns at the last event
  /// at or before that deadline in packet mode, and exactly at the
  /// deadline in hybrid mode, where cross traffic schedules no events.
  /// Returns the receiver's measurements.  Throws std::invalid_argument,
  /// with the session unchanged, for a spec StreamSpec::validate()
  /// rejects or a negative lead-in.  Repeats the base default: default
  /// arguments bind to the static type.
  StreamResult send_stream(const StreamSpec& spec,
                           sim::SimTime lead_in = sim::kMillisecond) override;

  /// Simulated time.
  sim::SimTime now() override { return sim_.now(); }

  /// Runs the simulation for `duration`.
  void wait(sim::SimTime duration) override {
    sim_.run_until(sim_.now() + duration);
  }

  /// Measurement overhead accumulated so far.
  const ProbeCost& cost() const override { return cost_; }

  std::string_view kind() const override { return "sim"; }

  ProbeSession* sim_session() override { return this; }

  /// The shared end-host demux (register TCP handlers here if needed).
  sim::TypeDemux& demux() { return demux_; }

  /// Maximum time to wait for in-flight packets after the last send.
  /// Throws std::invalid_argument when negative.
  void set_drain_timeout(sim::SimTime t);

  /// The simulation kernel and path this session probes (estimators that
  /// drive their own workloads, e.g. BFind, need them).
  sim::Simulator& simulator() { return sim_; }
  sim::Path& path() { return path_; }

  /// Installs an unsynchronized receiver clock; all subsequent receive
  /// timestamps (hence OWDs) are measured against it.
  void set_receiver_clock(const ReceiverClock& clock) { clock_ = clock; }

  /// Attaches a trace sink receiving stream-start/stream-end events
  /// (obs/trace.hpp).  nullptr disables; not owned.  Link-level packet
  /// events are wired separately via Link::set_trace (or all at once via
  /// core::Scenario::set_trace).
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }
  obs::TraceSink* trace() const { return trace_; }

 private:
  // One planned send: what the probe packet carries besides its id and
  // send time, which it gets when it leaves.
  struct Send {
    ProbeSession* session = nullptr;
    std::uint32_t stream_id = 0;
    std::uint32_t seq = 0;
    std::uint32_t size_bytes = 0;
    void operator()() const { session->send_probe(*this); }
  };

  void send_probe(const Send& s);
  void on_probe(const sim::Packet& pkt, sim::SimTime now);

  sim::Simulator& sim_;
  sim::Path& path_;
  sim::TypeDemux demux_;
  sim::CountingSink probe_sink_;
  sim::SimTime drain_timeout_ = 2 * sim::kSecond;
  ReceiverClock clock_;
  stats::Rng clock_rng_{0xC10CC10C};  ///< timestamping-jitter stream
  obs::TraceSink* trace_ = nullptr;   ///< not owned; nullptr = tracing off

  // The stream's sends, all pushed when it starts: one queue entry for the
  // whole stream (sim/event_line.hpp).
  sim::EventLine<Send> sends_;
  std::uint32_t next_stream_id_ = 1;
  // In-flight stream state (one stream at a time, like real tools).
  StreamResult* active_ = nullptr;
  std::size_t received_ = 0;
  ReceiverState recv_;  // shared dedup/reorder accounting

  ProbeCost cost_;
};

}  // namespace abw::probe
