// Forwarding decorators that time the calls a workload makes into a
// layer, from outside the program: the traced run wraps the transport an
// estimator or a live client uses, and the mesh measurement callback.
// Both forward every call unchanged, so results are bit-identical to the
// undecorated run (tests/perfbench_test.cpp pins this).
#pragma once

#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "est/mesh.hpp"
#include "probe/transport.hpp"

namespace perfbench {

/// What TimedTransport saw: probe-layer work (streams, packets) and the
/// wall time spent inside send_stream and wait.
struct TransportClock {
  std::uint64_t streams = 0;
  std::uint64_t packets = 0;
  double send_s = 0.0;
  double wait_s = 0.0;
  std::vector<double> send_us;  ///< one sample per stream

  /// Wall time spent below the estimator, in the transport.
  double busy_s() const { return send_s + wait_s; }
};

/// A probe::Transport that forwards all six virtuals to `inner` and
/// records send_stream and wait durations into `clock`.  sim_session()
/// forwards too, so a tool that drives the simulator directly through it
/// (bfind) bypasses the clock.
class TimedTransport final : public abw::probe::Transport {
 public:
  TimedTransport(abw::probe::Transport& inner, TransportClock& clock)
      : inner_(inner), clock_(clock) {}

  abw::probe::StreamResult send_stream(
      const abw::probe::StreamSpec& spec,
      abw::sim::SimTime lead_in = abw::sim::kMillisecond) override {
    const double t0 = now_s();
    abw::probe::StreamResult r = inner_.send_stream(spec, lead_in);
    const double dt = now_s() - t0;
    ++clock_.streams;
    clock_.packets += spec.size();
    clock_.send_s += dt;
    clock_.send_us.push_back(dt * 1e6);
    return r;
  }

  abw::sim::SimTime now() override { return inner_.now(); }

  void wait(abw::sim::SimTime duration) override {
    const double t0 = now_s();
    inner_.wait(duration);
    clock_.wait_s += now_s() - t0;
  }

  const abw::probe::ProbeCost& cost() const override { return inner_.cost(); }

  std::string_view kind() const override { return inner_.kind(); }

  abw::probe::ProbeSession* sim_session() override {
    return inner_.sim_session();
  }

 private:
  abw::probe::Transport& inner_;
  TransportClock& clock_;
};

/// Per-call wall times of a mesh measurement callback.  The callback runs
/// on BatchRunner threads, so samples are appended under a mutex.
struct MeasureClock {
  std::mutex mu;
  std::vector<double> call_s;  // guarded by mu
};

/// Wraps `inner` so every call is forwarded and timed into `clock`, which
/// must outlive the returned function.
inline abw::est::MeshMeasureFn timed_measure_fn(abw::est::MeshMeasureFn inner,
                                                MeasureClock& clock) {
  return [inner = std::move(inner), &clock](std::size_t pair,
                                            std::uint64_t seed) {
    const double t0 = now_s();
    abw::est::MeshMeasurement m = inner(pair, seed);
    const double dt = now_s() - t0;
    std::lock_guard<std::mutex> lock(clock.mu);
    clock.call_s.push_back(dt);
    return m;
  };
}

}  // namespace perfbench
