// The benchmark's four workloads and the pieces of them the tests reuse.
//
// Each run_* function sets up, measures for cfg.seconds (see
// run_passes), checks its own outputs, and fills an Outcome with the
// uniform end-to-end metrics (setup_s, ops_per_s) or, traced, with the
// per-layer metrics it can see.  Throughput counts estimates, probing
// streams, live sessions or resolved mesh pairs; the printed op latency
// times one estimate, one stream, one live stream's overhead beyond its
// schedule, or one whole mesh resolution.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/experiment.hpp"
#include "core/mesh_scenario.hpp"
#include "core/registry.hpp"
#include "core/scenario.hpp"
#include "obs/metrics.hpp"
#include "probe/transport.hpp"
#include "timed.hpp"

namespace perfbench {

Outcome run_tools_hybrid(const RunConfig& cfg);
Outcome run_multihop_packet(const RunConfig& cfg);
Outcome run_live_loopback(const RunConfig& cfg);
Outcome run_mesh_parking_lot(const RunConfig& cfg);

/// tools_hybrid: round `round`'s single-hop scenario (Ct 50 Mb/s, A 25
/// Mb/s, hybrid mode), warmed up.  Even rounds carry trimodal Poisson
/// cross traffic, odd rounds eight merged Pareto ON-OFF sources.
abw::core::Scenario tools_scenario(std::uint64_t seed, std::size_t round);

/// tools_hybrid: the uniform option set every registry tool is built with.
abw::core::ToolOptions tools_options(abw::obs::MetricsRegistry* metrics);

/// multihop_packet: the 5-hop, 5-tight-link packet-mode path of Fig. 4.
abw::core::MultiHopConfig multihop_config(std::uint64_t seed);

/// multihop_packet: one Ro/Ri point — `streams` periodic 100 x 1500 B
/// streams at `rate_bps`, each after a 20 ms lead-in, through
/// Transport::send_stream.  The same procedure as
/// core::measure_ratio_curve.  When `log` is given, each send_stream's
/// wall time is logged as an op.
abw::core::RatioPoint ratio_point(abw::probe::Transport& t, double rate_bps,
                                  std::size_t streams, Pass* log = nullptr);

/// The per-layer state the two simulated single-path workloads collect
/// in a traced pass: the transport clock, the registry the simulator
/// timers record into, scenario build time, and deterministic counts
/// from the pass's first scenario.
struct SimLayers {
  TransportClock clock;
  abw::obs::MetricsRegistry metrics;
  double build_s = 0.0;
  double events = 0.0;  ///< over every scenario of the pass
  bool have_first = false;
  double first_events = 0.0, first_peak_events = 0.0;
  double first_link_packets = 0.0, first_link_drops = 0.0;
  double first_absorb_calls = 0.0;
  std::uint64_t first_streams = 0, first_packets = 0;

  /// Call when the pass is done with `sc`: adds its events and, for the
  /// first scenario, keeps its counts.
  void scenario_done(abw::core::Scenario& sc);

  /// Writes the core, probe and sim per-layer metrics of a traced pass
  /// that lasted `elapsed_s`.
  void report(Outcome& out, double elapsed_s);
};

inline constexpr abw::sim::SimTime kMultihopLeadIn =
    20 * abw::sim::kMillisecond;

}  // namespace perfbench
