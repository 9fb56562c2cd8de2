// Observability layer tests (label: obs): trace determinism across runs
// and thread counts, metrics-snapshot goldens, the registry-v2
// introspection API, central ToolOptions validation, and the diagnostics
// contract (every tool reports structured key/value diagnostics).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/scenario.hpp"
#include "est/estimator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "probe/stream_spec.hpp"
#include "runner/batch.hpp"

namespace {

using namespace abw;

// ---------------------------------------------------------------------------
// Registry v2 introspection.

TEST(RegistryV2, ToolInfoRoundTripsEveryAvailableTool) {
  std::vector<std::string> names = core::available_tools();
  const std::vector<core::ToolInfo>& infos = core::available_tool_info();
  ASSERT_EQ(names.size(), infos.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    // Wrappers and the structured table agree, in the same stable order.
    EXPECT_EQ(names[i], infos[i].name);
    EXPECT_TRUE(core::is_tool(names[i]));
    const core::ToolInfo& info = core::tool_info(names[i]);
    EXPECT_EQ(info.name, names[i]);
    EXPECT_EQ(info.probing_class, infos[i].probing_class);
    EXPECT_EQ(info.requires_tight_capacity, infos[i].requires_tight_capacity);
    EXPECT_GE(info.default_packet_size, core::kMinProbePacketBytes);
  }
  EXPECT_THROW(core::tool_info("no-such-tool"), std::invalid_argument);
  EXPECT_FALSE(core::is_tool("no-such-tool"));
}

TEST(RegistryV2, RequiresTightCapacityMatchesMakeEstimatorBehavior) {
  stats::Rng rng(7);
  for (const core::ToolInfo& info : core::available_tool_info()) {
    core::ToolOptions no_ct;  // defaults: tight_capacity_bps == 0
    if (info.requires_tight_capacity) {
      EXPECT_THROW(core::make_estimator(info.name, no_ct, rng),
                   std::invalid_argument)
          << info.name << " claims to require Ct but built without it";
    } else {
      EXPECT_NO_THROW(core::make_estimator(info.name, no_ct, rng))
          << info.name << " claims not to require Ct but refused to build";
    }
    core::ToolOptions with_ct;
    with_ct.tight_capacity_bps = 50e6;
    auto tool = core::make_estimator(info.name, with_ct, rng);
    EXPECT_EQ(tool->name(), info.name);
    EXPECT_EQ(tool->probing_class(), info.probing_class);
  }
}

TEST(RegistryV2, MakeEstimatorValidatesOptionsCentrally) {
  stats::Rng rng(7);
  core::ToolOptions o;
  o.tight_capacity_bps = 50e6;

  core::ToolOptions inverted = o;
  inverted.min_rate_bps = 10e6;
  inverted.max_rate_bps = 10e6;  // min == max is as invalid as min > max
  core::ToolOptions neg_min = o;
  neg_min.min_rate_bps = -1.0;
  core::ToolOptions neg_max = o;
  neg_max.max_rate_bps = -5e6;
  core::ToolOptions neg_ct = o;
  neg_ct.tight_capacity_bps = -50e6;
  core::ToolOptions tiny_pkt = o;
  tiny_pkt.packet_size = core::kMinProbePacketBytes - 1;

  // Central validation: the same bad options fail for every tool.
  for (const core::ToolInfo& info : core::available_tool_info()) {
    EXPECT_THROW(core::make_estimator(info.name, inverted, rng),
                 std::invalid_argument) << info.name;
    EXPECT_THROW(core::make_estimator(info.name, neg_min, rng),
                 std::invalid_argument) << info.name;
    EXPECT_THROW(core::make_estimator(info.name, neg_max, rng),
                 std::invalid_argument) << info.name;
    EXPECT_THROW(core::make_estimator(info.name, neg_ct, rng),
                 std::invalid_argument) << info.name;
    EXPECT_THROW(core::make_estimator(info.name, tiny_pkt, rng),
                 std::invalid_argument) << info.name;
  }

  // The boundary itself is legal, as is "use the tool's default" (0).
  core::ToolOptions min_pkt = o;
  min_pkt.packet_size = core::kMinProbePacketBytes;
  EXPECT_NO_THROW(core::make_estimator("spruce", min_pkt, rng));
  EXPECT_NO_THROW(core::make_estimator("spruce", o, rng));
}

// ---------------------------------------------------------------------------
// Diagnostics contract.

TEST(Diagnostics, EstimateDiagHelpersAndJson) {
  est::Estimate e = est::Estimate::point(25e6);
  e.diag("streams", 12);
  e.diag("grey_fraction", 0.25);
  EXPECT_EQ(e.diag_value("streams"), 12.0);
  EXPECT_EQ(e.diag_value("grey_fraction"), 0.25);
  EXPECT_TRUE(std::isnan(e.diag_value("absent")));

  std::string json = e.to_json();
  EXPECT_NE(json.find("\"valid\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"streams\":12"), std::string::npos) << json;
  EXPECT_NE(json.find("\"grey_fraction\":0.25"), std::string::npos) << json;
}

TEST(Diagnostics, EveryToolPopulatesDiagnostics) {
  for (const core::ToolInfo& info : core::available_tool_info()) {
    core::SingleHopConfig cfg;
    cfg.seed = 11;
    core::Scenario sc = core::Scenario::single_hop(cfg);

    core::ToolOptions o;
    if (info.requires_tight_capacity) o.tight_capacity_bps = cfg.capacity_bps;
    o.min_rate_bps = 5e6;
    o.max_rate_bps = 0.98 * cfg.capacity_bps;
    o.repetitions = info.name == "bfind" ? 0 : 6;  // keep the run short
    o.limits.deadline = 60 * sim::kSecond;
    o.limits.max_probe_packets = 60000;
    obs::MetricsRegistry metrics;
    o.metrics = &metrics;

    auto tool = core::make_estimator(info.name, o, sc.rng());
    est::Estimate e = tool->estimate(sc.transport());
    EXPECT_FALSE(e.diagnostics.empty())
        << info.name << " returned no diagnostics (valid=" << e.valid << ")";
    // The template-method wrapper synthesizes `detail` from diagnostics
    // when the tool leaves it empty, so detail is never blank either.
    EXPECT_FALSE(e.detail.empty()) << info.name;
    // Wrapper-side metrics: one run recorded under the tool's name.
    EXPECT_EQ(metrics.counter("est." + std::string(tool->name()) + ".runs")
                  .value,
              1u)
        << info.name;
  }
}

// ---------------------------------------------------------------------------
// Trace + metrics determinism.

struct CellOutput {
  std::string trace;
  std::string metrics;
};

// One fig1-style cell: seeded single-hop Poisson scenario, one spruce
// run, everything observed.  Each cell owns its sinks, so cells are
// trivially parallelizable without ordering effects.
CellOutput run_observed_cell(std::uint64_t seed) {
  core::SingleHopConfig cfg;
  cfg.seed = seed;
  core::Scenario sc = core::Scenario::single_hop(cfg);

  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  sc.set_trace(&sink);

  obs::MetricsRegistry metrics;
  sc.simulator().set_metrics(&metrics);

  core::ToolOptions o;
  o.tight_capacity_bps = cfg.capacity_bps;
  o.repetitions = 20;
  o.trace = &sink;
  o.metrics = &metrics;
  auto tool = core::make_estimator("spruce", o, sc.rng());
  (void)tool->estimate(sc.transport());

  sc.snapshot_metrics(metrics);
  CellOutput cell;
  cell.trace = out.str();
  cell.metrics = metrics.to_json(/*include_timers=*/false);
  return cell;
}

TEST(TraceDeterminism, ByteIdenticalAcrossRunsAndThreadCounts) {
  constexpr std::size_t kCells = 5;
  auto run_grid = [](std::size_t jobs) {
    runner::BatchRunner pool(jobs);
    auto cells = pool.map(kCells, [](std::size_t i) {
      return run_observed_cell(100 + i);
    });
    std::string all_traces, all_metrics;
    for (const CellOutput& c : cells) {
      all_traces += c.trace;
      all_metrics += c.metrics;
      all_metrics += '\n';
    }
    return std::make_pair(all_traces, all_metrics);
  };

  auto serial = run_grid(1);
  ASSERT_FALSE(serial.first.empty());
  ASSERT_FALSE(serial.second.empty());
  // Same seeds, same bytes: repeated serial run...
  EXPECT_EQ(run_grid(1), serial);
  // ...and any thread count (cells own their sinks; results concatenate
  // in index order).
  EXPECT_EQ(run_grid(2), serial);
  EXPECT_EQ(run_grid(5), serial);
}

TEST(TraceDeterminism, AttachedSinkDoesNotPerturbTheSimulation) {
  // The estimate must be bit-identical with and without a sink attached:
  // emission draws no randomness and never advances time.
  auto run = [](bool observed) {
    core::SingleHopConfig cfg;
    cfg.seed = 23;
    core::Scenario sc = core::Scenario::single_hop(cfg);
    std::ostringstream out;
    obs::JsonlTraceSink sink(out);
    if (observed) sc.set_trace(&sink);
    core::ToolOptions o;
    o.tight_capacity_bps = cfg.capacity_bps;
    o.repetitions = 20;
    auto tool = core::make_estimator("spruce", o, sc.rng());
    est::Estimate e = tool->estimate(sc.transport());
    return std::make_pair(e.low_bps, sc.simulator().events_processed());
  };
  EXPECT_EQ(run(false), run(true));
}

// The probe-packet events of a link trace: enqueue, drop and deliver with
// their stream id and seq (cross packets carry stream id 0).
class ProbeEventSink final : public obs::TraceSink {
 public:
  struct Event {
    obs::EventKind kind;
    sim::SimTime time;
    std::uint32_t stream_id;
    std::uint32_t seq;
    auto operator<=>(const Event&) const = default;
  };

  void emit(const obs::TraceEvent& e) override {
    if (e.stream_id == 0) return;
    if (e.kind == obs::EventKind::kEnqueue || e.kind == obs::EventKind::kDrop ||
        e.kind == obs::EventKind::kDeliver)
      events.push_back({e.kind, e.time, e.stream_id, e.seq});
  }

  std::vector<Event> events;
};

struct TracedProbeRun {
  std::vector<ProbeEventSink::Event> events;
  std::vector<sim::SimTime> received;
  std::uint64_t sim_events = 0;
};

// Streams ramping past the avail-bw into a 12 KB queue, at fixed start
// times so a lossy stream's end cannot shift the next one.
TracedProbeRun run_traced_probes(sim::SimMode mode, bool traced) {
  core::SingleHopConfig cfg;
  cfg.mode = mode;
  cfg.queue_limit_bytes = 12 * 1024;
  cfg.traffic_horizon = 20 * sim::kSecond;
  cfg.seed = 17;
  ProbeEventSink sink;  // outlives the scenario that points at it
  core::Scenario sc = core::Scenario::single_hop(cfg);
  sc.transport().set_drain_timeout(100 * sim::kMillisecond);
  if (traced) sc.set_trace(&sink);
  TracedProbeRun run;
  for (int k = 0; k < 8; ++k) {
    probe::StreamSpec spec =
        probe::StreamSpec::periodic(10e6 + 6e6 * k, k % 2 ? 1500 : 700, 60);
    const sim::SimTime start = cfg.warmup + k * 300 * sim::kMillisecond;
    probe::StreamResult r =
        sc.transport().send_stream(spec, start - sc.transport().now());
    for (const probe::ProbeRecord& p : r.packets)
      run.received.push_back(p.lost ? -1 : p.received);
  }
  run.events = sink.events;
  std::sort(run.events.begin(), run.events.end());
  run.sim_events = sc.simulator().events_processed();
  return run;
}

// A traced fluid link still reports every probe's enqueue, drop and
// deliver, with packet-mode timestamps; attaching the sink changes nothing.
TEST(TraceDeterminism, HybridProbeEventsMatchPacketMode) {
  const TracedProbeRun pkt = run_traced_probes(sim::SimMode::kPacket, true);
  const TracedProbeRun hyb = run_traced_probes(sim::SimMode::kHybrid, true);
  auto count = [&](obs::EventKind k) {
    return std::count_if(hyb.events.begin(), hyb.events.end(),
                         [k](const auto& e) { return e.kind == k; });
  };
  EXPECT_GT(count(obs::EventKind::kDrop), 0);
  EXPECT_GT(count(obs::EventKind::kDeliver), 0);
  EXPECT_EQ(hyb.events, pkt.events);
  EXPECT_EQ(hyb.received, pkt.received);

  const TracedProbeRun plain = run_traced_probes(sim::SimMode::kHybrid, false);
  EXPECT_EQ(plain.received, hyb.received);
  EXPECT_EQ(plain.sim_events, hyb.sim_events);
}

TEST(TraceDeterminism, JsonlSchemaSanity) {
  CellOutput cell = run_observed_cell(42);
  std::istringstream lines(cell.trace);
  std::string line;
  std::size_t n = 0;
  bool saw_stream_start = false, saw_deliver = false, saw_decision = false;
  while (std::getline(lines, line)) {
    ++n;
    // Every line is one object with the common prefix in fixed order.
    ASSERT_EQ(line.rfind("{\"t\":", 0), 0u) << line;
    ASSERT_EQ(line.back(), '}') << line;
    ASSERT_NE(line.find("\"ev\":\""), std::string::npos) << line;
    ASSERT_NE(line.find("\"src\":\""), std::string::npos) << line;
    if (line.find("\"ev\":\"stream-start\"") != std::string::npos) {
      saw_stream_start = true;
      EXPECT_NE(line.find("\"count\":"), std::string::npos) << line;
    }
    if (line.find("\"ev\":\"deliver\"") != std::string::npos) {
      saw_deliver = true;
      EXPECT_NE(line.find("\"pkt\":"), std::string::npos) << line;
      EXPECT_NE(line.find("\"q\":"), std::string::npos) << line;
    }
    if (line.find("\"ev\":\"decision\"") != std::string::npos) {
      saw_decision = true;
      EXPECT_NE(line.find("\"what\":"), std::string::npos) << line;
      EXPECT_NE(line.find("\"outcome\":"), std::string::npos) << line;
    }
  }
  EXPECT_GT(n, 100u);
  EXPECT_TRUE(saw_stream_start);
  EXPECT_TRUE(saw_deliver);
  EXPECT_TRUE(saw_decision);
}

TEST(MetricsSnapshot, MatchesLinkStatsAndSessionCost) {
  core::SingleHopConfig cfg;
  cfg.seed = 3;
  core::Scenario sc = core::Scenario::single_hop(cfg);
  core::ToolOptions o;
  o.tight_capacity_bps = cfg.capacity_bps;
  o.repetitions = 20;
  auto tool = core::make_estimator("spruce", o, sc.rng());
  (void)tool->estimate(sc.transport());

  obs::MetricsRegistry m;
  sc.snapshot_metrics(m);
  const sim::LinkStats& s = sc.path().link(0).stats();
  EXPECT_EQ(m.counter("link.link0.packets_in").value, s.packets_in);
  EXPECT_EQ(m.counter("link.link0.packets_out").value, s.packets_out);
  EXPECT_EQ(m.counter("link.link0.bytes_out").value, s.bytes_out);
  EXPECT_EQ(m.gauge("link.link0.capacity_bps").value, cfg.capacity_bps);
  EXPECT_EQ(m.counter("session.streams").value, sc.transport().cost().streams);
  EXPECT_EQ(m.counter("session.packets").value, sc.transport().cost().packets);
  EXPECT_EQ(m.counter("sim.events").value,
            sc.simulator().events_processed());
}

TEST(MetricsSnapshot, GoldenShapeForOneFig1Cell) {
  // Frozen prefix of the deterministic snapshot for seed 42 — guards the
  // metric *names* and JSON shape against silent schema drift.  Values
  // are checked for self-consistency above, not frozen here.
  CellOutput cell = run_observed_cell(42);
  EXPECT_EQ(cell.metrics.rfind("{\"counters\":{\"est.spruce.", 0), 0u)
      << cell.metrics.substr(0, 80);
  EXPECT_NE(cell.metrics.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(cell.metrics.find("\"histograms\":{"), std::string::npos);
  EXPECT_EQ(cell.metrics.find("\"timers\""), std::string::npos)
      << "timers must be excluded from the deterministic snapshot";
  EXPECT_NE(cell.metrics.find("\"link.link0.packets_out\":"),
            std::string::npos);
  EXPECT_NE(cell.metrics.find("\"session.streams\":"), std::string::npos);
}

TEST(MetricsSnapshot, TimersAppearOnlyWhenRequested) {
  obs::MetricsRegistry m;
  m.counter("a").add(3);
  m.timer("wall").record(0.5);
  std::string deterministic = m.to_json(false);
  std::string full = m.to_json(true);
  EXPECT_EQ(deterministic.find("timers"), std::string::npos);
  EXPECT_NE(full.find("\"timers\":{\"wall\":"), std::string::npos) << full;
}

// ------------------------------------------ non-finite value round-trip ---
//
// snprintf("%.17g") renders NaN/Inf as the bare tokens `nan` / `inf`,
// which are NOT valid JSON — a single poisoned diagnostic used to corrupt
// the whole metrics snapshot or trace line.  Non-finite doubles must
// serialize as `null`.

TEST(NonFiniteJson, MetricsGaugeSerializesNaNAndInfAsNull) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  obs::MetricsRegistry m;
  m.gauge("poisoned.nan").set(kNaN);
  m.gauge("poisoned.pinf").set(kInf);
  m.gauge("poisoned.ninf").set(-kInf);
  m.gauge("healthy").set(2.5);
  std::string json = m.to_json(false);
  EXPECT_NE(json.find("\"poisoned.nan\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"poisoned.pinf\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"poisoned.ninf\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"healthy\":2.5"), std::string::npos) << json;
  EXPECT_EQ(json.find("nan\":n"), json.find("nan\":null")) << json;
  for (const char* bare : {":nan", ":inf", ":-inf"})
    EXPECT_EQ(json.find(bare), std::string::npos) << json;
}

TEST(NonFiniteJson, HistogramWithNonFiniteBoundsStaysValidJson) {
  const double kInf = std::numeric_limits<double>::infinity();
  obs::MetricsRegistry m;
  // A histogram whose shape was (mis)configured from a poisoned value.
  m.histogram("h", 0.0, kInf, 4).add(1.0);
  std::string json = m.to_json(false);
  EXPECT_EQ(json.find(":inf"), std::string::npos) << json;
  EXPECT_NE(json.find("\"hi\":null"), std::string::npos) << json;
}

TEST(NonFiniteJson, TraceEventValuesSerializeAsNull) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  obs::TraceEvent ev;
  ev.kind = obs::EventKind::kDecision;
  ev.time = 42;
  ev.source = "tool";
  ev.label = "estimate";
  ev.text = "diverged";
  ev.value = kNaN;
  ev.value2 = -kInf;
  sink.emit(ev);
  ev.value = 12.5;
  ev.value2 = kInf;
  sink.emit(ev);
  std::string lines = out.str();
  EXPECT_NE(lines.find("\"value\":null"), std::string::npos) << lines;
  EXPECT_NE(lines.find("\"aux\":null"), std::string::npos) << lines;
  EXPECT_NE(lines.find("\"value\":12.5"), std::string::npos) << lines;
  for (const char* bare : {":nan", ":inf", ":-inf"})
    EXPECT_EQ(lines.find(bare), std::string::npos) << lines;
}

}  // namespace
