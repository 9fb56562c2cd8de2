#include "workloads.hpp"

namespace perfbench {

using namespace abw;

namespace {

// Sums one per-link counter of Scenario::snapshot_metrics over the path.
double link_counter_sum(core::Scenario& sc, obs::MetricsRegistry& snap,
                        const std::string& counter) {
  double sum = 0.0;
  for (std::size_t h = 0; h < sc.path().hop_count(); ++h)
    sum += static_cast<double>(
        snap.counter("link." + sc.path().link(h).name() + "." + counter).value);
  return sum;
}

}  // namespace

void SimLayers::scenario_done(core::Scenario& sc) {
  events += static_cast<double>(sc.simulator().events_processed());
  if (have_first) return;
  have_first = true;
  obs::MetricsRegistry snap;
  sc.snapshot_metrics(snap);
  first_events = static_cast<double>(sc.simulator().events_processed());
  first_peak_events = static_cast<double>(sc.simulator().peak_event_count());
  first_link_packets = link_counter_sum(sc, snap, "packets_in");
  first_link_drops = link_counter_sum(sc, snap, "packets_dropped");
  first_absorb_calls = static_cast<double>(metrics.timer("fluid.absorb").count);
  first_streams = clock.streams;
  first_packets = clock.packets;
}

void SimLayers::report(Outcome& out, double elapsed_s) {
  out.layer("core.scenario_build_s", build_s, "s");
  out.layer("probe.send_stream_s", clock.send_s, "s");
  out.layer("probe.send_stream_us_p50", median(clock.send_us), "us");
  out.layer("probe.streams", static_cast<double>(first_streams), "count");
  out.layer("probe.packets", static_cast<double>(first_packets), "count");
  out.layer("sim.wait_s", clock.wait_s, "s");
  out.layer("sim.events", first_events, "count");
  out.layer("sim.events_per_s", elapsed_s > 0.0 ? events / elapsed_s : 0.0, "1/s");
  out.layer("sim.peak_events", first_peak_events, "count");
  out.layer("sim.link_packets", first_link_packets, "count");
  out.layer("sim.link_drops", first_link_drops, "count");
  out.layer("sim.drain_s", metrics.timer("sim.drain").total_seconds, "s");
  out.layer("sim.fluid_absorb_s", metrics.timer("fluid.absorb").total_seconds, "s");
  out.layer("sim.fluid_absorb_calls", first_absorb_calls, "count");
}

}  // namespace perfbench
