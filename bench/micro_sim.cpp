// Micro-benchmarks of the simulation kernel (google-benchmark): event
// scheduling throughput, link forwarding, utilization-meter recording and
// queries, and a full probing round trip.  These bound how large the
// paper-scale experiments (500-stream curves, multi-minute TCP runs) can
// get.
//
// The two headline benchmarks (BM_SchedulerChurn, BM_LinkForwarding)
// measure *steady state*: a warm event pool with a constant pending-event
// population, the regime a long-running experiment lives in.  Cold-start
// behavior (fresh simulator, growing pool) is covered separately by
// BM_SchedulerColdStart.  Closures carry a Packet by value because that
// is what the real hot path schedules (a [handler*, Packet] delivery
// capture); tiny captures would hide the cost of callback storage.
//
// Running the binary with no arguments writes machine-readable results to
// BENCH_core.json in the current directory (see main() below);
// bench/check_regression.py compares such a run against the committed
// bench/BENCH_core.baseline.json.  The same source compiles against the
// seed (pre-PR) kernel — the `if constexpr (requires ...)` guards skip
// introspection the seed does not have — which is how the committed
// baseline's `seed` numbers were produced.
// In addition to the google-benchmark suite, main() runs the fig1/fig3
// hybrid-vs-packet comparison workloads and the FluidQueue absorb kernel,
// and writes BENCH_fluid.json (same JSON shape), gated by
// bench/BENCH_fluid.baseline.json through the same check_regression.py.
// Rows:
//
//   FLUID_fig1_ground_truth / FLUID_fig3_response_curve
//       items_per_second = packet_s / hybrid_s (wall-clock speedup).
//   FLUID_absorb
//       items_per_second = fluid arrivals retired per wall second.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "probe/stream_spec.hpp"
#include "runner/cli.hpp"
#include "sim/fluid.hpp"
#include "sim/hybrid.hpp"
#include "sim/link.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic_trace.hpp"
#include "traffic/poisson.hpp"
#include "traffic/trace_replay.hpp"

namespace {

using namespace abw;

// Records the pending-event high-water mark when the kernel exposes it
// (template so the discarded branch is never instantiated: this source
// also compiles against the seed kernel to produce baselines).
template <typename Sim>
void record_peak_events(Sim& simu, benchmark::State& state) {
  if constexpr (requires { simu.peak_event_count(); })
    state.counters["peak_events"] =
        static_cast<double>(simu.peak_event_count());
}

// Steady-state event churn ("hold model"): a fixed population of pending
// events where every pop schedules a replacement at a pseudo-random
// future offset.  Throughput here is the ceiling on total simulated
// events per wall-clock second.
void BM_SchedulerChurn(benchmark::State& state) {
  sim::Simulator simu;
  constexpr int kPending = 1000;  // events in flight at all times
  // Gap in [1, 1024] ns via a mask (a modulo's integer divide would be
  // benchmark overhead on the critical path); ~2 events per sim-ns.
  constexpr std::uint64_t kGapMask = 1023;

  struct Churner {
    sim::Simulator* simu;
    sim::Packet pkt;  // realistic capture: the hot path schedules Packets
    void operator()() {
      pkt.id = pkt.id * 6364136223846793005ULL + 1442695040888963407ULL;
      sim::SimTime gap =
          1 + static_cast<sim::SimTime>((pkt.id >> 33) & kGapMask);
      simu->after(gap, *this);
    }
  };
  static_assert(sizeof(Churner) == sizeof(sim::Packet) + 8,
                "capture should match the [handler*, Packet] delivery closure");

  for (int i = 0; i < kPending; ++i) {
    sim::Packet pkt;
    pkt.id = 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1);
    pkt.size_bytes = 1500;
    simu.at(1 + i, Churner{&simu, pkt});
  }
  const std::uint64_t start_events = simu.events_processed();
  sim::SimTime t = simu.now();
  for (auto _ : state) {
    t += 5000;  // ~10k events per iteration at the steady-state rate
    simu.run_until(t);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(simu.events_processed() - start_events));
  record_peak_events(simu, state);
}
BENCHMARK(BM_SchedulerChurn);

// Cold start: construct a simulator, schedule a 10k-event backlog, drain
// it.  Dominated by pool/heap growth and first-touch memory, not by the
// steady-state path.
void BM_SchedulerColdStart(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simu;
    int fired = 0;
    for (int i = 0; i < 10000; ++i)
      simu.at(i, [&fired] { ++fired; });
    simu.run_until_idle();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SchedulerColdStart);

// Sustained store-and-forward across a two-hop path (fast access link
// into a tighter bottleneck, both with propagation delay), paced at the
// bottleneck service rate: every packet exercises queueing, two
// serializations, two propagation deliveries, and the utilization meter.
void BM_LinkForwarding(benchmark::State& state) {
  constexpr int kPackets = 5000;
  struct Injector {
    sim::Simulator* simu;
    sim::Path* path;
    int remaining;
    void operator()() {
      sim::Packet pkt;
      pkt.size_bytes = 1500;
      path->inject(0, pkt);
      if (--remaining > 0) simu->after(24000, *this);  // bottleneck pace
    }
  };
  for (auto _ : state) {
    sim::Simulator simu;
    sim::LinkConfig fast, tight;
    fast.capacity_bps = 1e9;
    fast.propagation_delay = 100;
    tight.capacity_bps = 5e8;  // 1500B service = 24 us
    tight.propagation_delay = 100;
    sim::Path path(simu, {fast, tight});
    sim::CountingSink sink;
    path.set_receiver(&sink);
    simu.at(0, Injector{&simu, &path, kPackets});
    simu.run_until_idle();
    benchmark::DoNotOptimize(sink.packets());
    record_peak_events(simu, state);
  }
  state.SetItemsProcessed(state.iterations() * kPackets);
}
BENCHMARK(BM_LinkForwarding);

void BM_MeterWindowQuery(benchmark::State& state) {
  sim::UtilizationMeter meter(100e6);
  sim::SimTime t = 0;
  for (int i = 0; i < 100000; ++i) {
    meter.add_busy(t, t + 120, i % 3 == 0);
    t += 250;
  }
  sim::SimTime horizon = t;
  std::size_t q = 0;
  for (auto _ : state) {
    sim::SimTime t1 = (q * 7919) % (horizon / 2);
    benchmark::DoNotOptimize(meter.cross_avail_bw(t1, t1 + horizon / 3));
    ++q;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeterWindowQuery);

// Full avail_bw_series sweep over a long busy history — the ground-truth
// curve extraction used by every figure experiment.
void BM_MeterSeriesSweep(benchmark::State& state) {
  sim::UtilizationMeter meter(100e6);
  sim::SimTime t = 0;
  for (int i = 0; i < 100000; ++i) {
    meter.add_busy(t, t + 120, i % 3 == 0);
    t += 250;
  }
  std::size_t produced = 0;
  for (auto _ : state) {
    auto series = meter.avail_bw_series(0, t, 10000, true);
    produced += series.size();
    benchmark::DoNotOptimize(series.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(produced));
}
BENCHMARK(BM_MeterSeriesSweep);

// The recording path: each iteration fills a fresh meter with 100k busy
// runs, as a scenario's link does — mixed attribution, and back-to-back
// runs that coalesce.  The pattern is drawn once, outside the timed loop.
void BM_MeterRecord(benchmark::State& state) {
  struct Run {
    sim::SimTime start, end;
    bool measurement;
  };
  constexpr int kRuns = 100000;
  stats::Rng rng(7);
  std::vector<Run> runs;
  runs.reserve(kRuns);
  sim::SimTime t = 0;
  for (int i = 0; i < kRuns; ++i) {
    if (!rng.bernoulli(0.3)) t += 1 + static_cast<sim::SimTime>(rng.uniform(0.0, 200.0));
    sim::SimTime len = 1 + static_cast<sim::SimTime>(rng.uniform(0.0, 240.0));
    runs.push_back({t, t + len, rng.bernoulli(0.2)});
    t += len;
  }
  for (auto _ : state) {
    sim::UtilizationMeter meter(100e6);
    for (const Run& r : runs) meter.add_busy(r.start, r.end, r.measurement);
    benchmark::DoNotOptimize(meter.interval_count());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kRuns);
}
BENCHMARK(BM_MeterRecord);

void BM_PoissonTrafficSecond(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simu;
    sim::LinkConfig cfg;
    cfg.capacity_bps = 100e6;
    sim::Path path(simu, {cfg});
    sim::CountingSink sink;
    path.set_receiver(&sink);
    traffic::PoissonGenerator gen(simu, path, 0, false, 1, stats::Rng(1), 50e6,
                                  traffic::SizeDistribution::fixed(1500));
    gen.start(0, sim::kSecond);
    simu.run_until(sim::kSecond);
    benchmark::DoNotOptimize(sink.packets());
  }
}
BENCHMARK(BM_PoissonTrafficSecond);

// The cross-traffic draw path alone, without the packet events that
// BM_PoissonTrafficSecond adds: fill() of a trimodal Poisson source into
// a reused 4,096-arrival chunk.  Items are arrivals.
void BM_CrossArrivalDraw(benchmark::State& state) {
  constexpr std::size_t kChunk = 4096;
  sim::Simulator simu;
  sim::Path path(simu, {sim::LinkConfig{}});
  traffic::PoissonGenerator gen(simu, path, 0, false, 1, stats::Rng(1), 25e6,
                                traffic::SizeDistribution::internet_mix());
  gen.begin_stream(0, 1000000 * sim::kSecond);  // ~4e9 arrivals
  traffic::ArrivalChunk chunk;
  chunk.reserve(kChunk);
  std::int64_t arrivals = 0;
  for (auto _ : state) {
    chunk.clear();
    arrivals += static_cast<std::int64_t>(gen.fill(chunk, kChunk));
    benchmark::DoNotOptimize(chunk.times.data());
    benchmark::DoNotOptimize(chunk.sizes.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(arrivals);
}
BENCHMARK(BM_CrossArrivalDraw);

void BM_ProbeStreamRoundTrip(benchmark::State& state) {
  core::SingleHopConfig cfg;
  auto sc = core::Scenario::single_hop(cfg);
  auto spec = probe::StreamSpec::periodic(40e6, 1500, 100);
  for (auto _ : state) {
    auto res = sc.transport().send_stream(spec);
    benchmark::DoNotOptimize(res.output_rate_bps());
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_ProbeStreamRoundTrip);

// ------------------------------------------------ hybrid fluid bench -----

// One hybrid-vs-packet comparison: wall seconds and the measured ground
// truth for each mode.
struct FluidRun {
  double seconds = 0.0;
  double abw = 0.0;
};

// Fig. 1 workload: replay the synthetic NLANR-substitute trace through an
// OC-3 tight link and record its ground-truth avail-bw series A_tau(t) —
// the population every sampling experiment draws from, produced exactly
// as the paper does it: a fixed recorded workload, not a live random
// process.  The trace is synthesized ONCE (outside both timed runs; the
// fGn synthesis cost is identical in either mode) and replayed through a
// traffic::TraceGenerator, so the timed region is pure simulation: one
// event per packet in packet mode, chunked fluid absorption in hybrid
// mode.  No probes — this isolates the cross-traffic fast path.
FluidRun run_fig1_workload(sim::SimMode mode,
                           std::vector<traffic::ReplayRecord> recs) {
  // By-value records: the caller's copy of the ~700k-record trace is made
  // at argument binding, OUTSIDE the timed region (it is the same cost in
  // either mode and not what this bench measures).
  constexpr sim::SimTime kEnd = 120 * sim::kSecond;
  FluidRun r;
  double t0 = runner::monotonic_seconds();
  sim::LinkConfig link;
  link.capacity_bps = 155.52e6;  // OC-3, as in the paper's trace
  link.propagation_delay = sim::kMillisecond;
  auto sc = core::Scenario::custom({link}, /*seed=*/1);
  sc.add_cross_source(
      std::make_unique<traffic::TraceGenerator>(sc.simulator(), sc.path(), 0,
                                                /*one_hop=*/false,
                                                /*flow_id=*/1000,
                                                std::move(recs)),
      0, /*one_hop=*/false, /*flow_id=*/1000, mode, kEnd + sim::kSecond);
  sc.simulator().run_until(kEnd);
  auto series = core::ground_truth_series(sc, sim::kSecond, kEnd,
                                          100 * sim::kMillisecond);
  benchmark::DoNotOptimize(series.data());
  r.abw = sc.ground_truth(sim::kSecond, kEnd);
  r.seconds = runner::monotonic_seconds() - t0;
  return r;
}

std::vector<traffic::ReplayRecord> make_fig1_trace() {
  trace::SyntheticTraceConfig tc;
  tc.duration = 121 * sim::kSecond;
  stats::Rng rng(42);
  return trace::synthesize_selfsimilar_trace(tc, rng).records();
}

// Fig. 3 workload: an Ro/Ri response curve against a high-pps CBR
// aggregate (small packets, the paper's fluid-like burstiness baseline),
// probed with pathload-like epoch pacing: one 100-packet stream, then ~3 s
// of idle while the tool computes and queues drain (the paper stresses
// that tools spend most wall-clock time between streams).  In hybrid
// mode no cross packet becomes an event, neither during a stream (probes
// join the fluid FIFO analytically) nor in the idle epochs, which
// dominate simulated time.
FluidRun run_fig3_workload(sim::SimMode mode) {
  FluidRun r;
  double t0 = runner::monotonic_seconds();
  core::SingleHopConfig cfg;
  cfg.mode = mode;
  cfg.model = core::CrossModel::kCbr;
  cfg.cross_packet_size = 250;  // 25 Mb/s -> 12500 pps
  cfg.traffic_horizon = 110 * sim::kSecond;
  auto sc = core::Scenario::single_hop(cfg);
  core::RatioCurveConfig rc;
  rc.rates_bps = {10e6, 15e6, 20e6, 25e6, 30e6, 35e6, 40e6, 45e6};
  rc.streams_per_rate = 4;
  rc.packets_per_stream = 100;
  rc.inter_stream_gap = 3 * sim::kSecond;
  auto curve = core::measure_ratio_curve(sc, rc);
  benchmark::DoNotOptimize(curve.data());
  r.abw = sc.ground_truth(2 * sim::kSecond, sc.simulator().now());
  r.seconds = runner::monotonic_seconds() - t0;
  return r;
}

// Min-of-N wall time: each workload x mode runs `reps` times and the
// fastest run is reported, the standard remedy for the +-30% scheduler
// noise of a small shared VM.  Both variants of a comparison get the
// identical treatment, so the reported speedup is a noise-floor ratio,
// not a lucky draw.  The result member `key` (avail-bw, retired bytes) is
// deterministic across repetitions (asserted).
template <typename Key, typename Fn>
auto min_of_reps(Key key, Fn&& run, int reps = 3) {
  auto best = run();
  for (int i = 1; i < reps; ++i) {
    auto r = run();
    if (r.*key != best.*key)
      std::fprintf(stderr, "micro_sim: WARNING: nondeterministic result "
                           "across repetitions (%.1f vs %.1f)\n",
                   static_cast<double>(r.*key), static_cast<double>(best.*key));
    if (r.seconds < best.seconds) best = r;
  }
  return best;
}

// -------------------------------------------------------- fluid absorb ---

struct AbsorbRun {
  double seconds = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t check = 0;  // bytes_out: must match across repetitions
};

// One long Poisson arrival schedule at high load (long busy runs, so the
// run-retirement path owns most of the work) with the trimodal internet
// size mix, absorbed in pump-sized chunks.  The mixed sizes matter: they
// are what real generator workloads feed absorb.
AbsorbRun run_absorb() {
  constexpr std::size_t kChunk = 1024;
  constexpr int kChunks = 400;

  sim::Simulator simu;
  sim::LinkConfig lc;
  lc.capacity_bps = 50e6;
  lc.propagation_delay = sim::kMillisecond;
  lc.queue_limit_bytes = 2 << 20;
  sim::Path path(simu, {lc});
  sim::CountingSink sink;
  path.set_receiver(&sink);
  sim::FluidQueue& fq = path.link(0).enable_fluid();
  fq.reset(0);

  std::mt19937 rng(99);
  std::exponential_distribution<double> gap(1.0);
  const std::uint32_t size_mix[4] = {40, 576, 1500, 1004};
  const double mean_size = (40 + 576 + 1500 + 1004) / 4.0;
  const double mean_gap_s = mean_size * 8.0 / (50e6 * 0.9);  // 90% load

  // The whole schedule is drawn up front so the timed region is absorb
  // alone, not the generator's RNG draws.
  std::vector<sim::SimTime> times(kChunks * kChunk);
  std::vector<std::uint32_t> sizes(kChunks * kChunk);
  sim::SimTime t = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    t += sim::from_seconds(gap(rng) * mean_gap_s);
    times[i] = t;
    sizes[i] = size_mix[rng() % 4];
  }

  AbsorbRun r;
  const double t0 = runner::monotonic_seconds();
  for (int c = 0; c < kChunks; ++c) {
    const sim::SimTime* ct = times.data() + c * kChunk;
    const std::uint32_t* cs = sizes.data() + c * kChunk;
    fq.absorb(ct, cs, kChunk, ct[kChunk - 1]);
    r.packets += kChunk;
  }
  fq.advance(t + sim::kSecond);
  r.seconds = runner::monotonic_seconds() - t0;
  r.check = path.link(0).stats().bytes_out;
  return r;
}

// Runs both workloads in both modes plus the absorb kernel and writes
// BENCH_fluid.json (google-benchmark JSON shape; items_per_second
// carries the gated value so check_regression.py reads it unchanged).
void run_fluid_comparison() {
  struct Row {
    const char* name;
    FluidRun packet, hybrid;
  };
  const auto trace = make_fig1_trace();
  constexpr auto kAbw = &FluidRun::abw;
  Row rows[] = {
      {"FLUID_fig1_ground_truth",
       min_of_reps(kAbw, [&] { return run_fig1_workload(sim::SimMode::kPacket, trace); }),
       min_of_reps(kAbw, [&] { return run_fig1_workload(sim::SimMode::kHybrid, trace); })},
      {"FLUID_fig3_response_curve",
       min_of_reps(kAbw, [] { return run_fig3_workload(sim::SimMode::kPacket); }),
       min_of_reps(kAbw, [] { return run_fig3_workload(sim::SimMode::kHybrid); })},
  };
  const AbsorbRun absorb = min_of_reps(&AbsorbRun::check, run_absorb, 5);

  std::FILE* f = std::fopen("BENCH_fluid.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_sim: cannot write BENCH_fluid.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"context\": {\"note\": "
                  "\"FLUID_fig*: items_per_second = packet_s / hybrid_s "
                  "(wall-clock speedup), abw_rel_err = |hybrid - packet| / "
                  "packet; FLUID_absorb: arrivals retired per second\"},\n"
                  "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < 2; ++i) {
    const Row& row = rows[i];
    double speedup = row.packet.seconds / row.hybrid.seconds;
    double rel_err = std::fabs(row.hybrid.abw - row.packet.abw) /
                     row.packet.abw;
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"run_type\": \"iteration\", "
        "\"iterations\": 1, \"real_time\": %.6e, \"cpu_time\": %.6e, "
        "\"time_unit\": \"ns\", \"items_per_second\": %.4f, "
        "\"packet_s\": %.6f, \"hybrid_s\": %.6f, "
        "\"abw_packet_bps\": %.1f, \"abw_hybrid_bps\": %.1f, "
        "\"abw_rel_err\": %.6f},\n",
        row.name, row.hybrid.seconds * 1e9, row.hybrid.seconds * 1e9,
        speedup, row.packet.seconds, row.hybrid.seconds, row.packet.abw,
        row.hybrid.abw, rel_err);
    std::printf("%-28s packet %8.3f s  hybrid %8.3f s  speedup %6.2fx  "
                "abw err %.4f%%\n",
                row.name, row.packet.seconds, row.hybrid.seconds, speedup,
                rel_err * 100.0);
    if (speedup < 5.0)
      std::fprintf(stderr, "micro_sim: WARNING: %s speedup %.2fx below the "
                           "5x target\n", row.name, speedup);
    if (rel_err > 0.05)
      std::fprintf(stderr, "micro_sim: WARNING: %s avail-bw diverges %.2f%% "
                           "from packet mode\n", row.name, rel_err * 100.0);
  }
  const double absorb_rate = absorb.packets / absorb.seconds;
  std::fprintf(
      f,
      "    {\"name\": \"FLUID_absorb\", \"run_type\": \"iteration\", "
      "\"iterations\": 1, \"real_time\": %.6e, \"cpu_time\": %.6e, "
      "\"time_unit\": \"ns\", \"items_per_second\": %.6f}\n",
      absorb.seconds * 1e9, absorb.seconds * 1e9, absorb_rate);
  std::printf("%-28s %14.3f items/s  (%.4f s)\n", "FLUID_absorb",
              absorb_rate, absorb.seconds);
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

// Custom main: unless the caller already passed --benchmark_out, default
// to writing JSON results to BENCH_core.json in the current directory so
// `./micro_sim && python3 ../bench/check_regression.py ...` needs no
// flag plumbing.  All standard google-benchmark flags still work.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  std::string out_flag = "--benchmark_out=BENCH_core.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int nargs = static_cast<int>(args.size());
  benchmark::Initialize(&nargs, args.data());
  if (benchmark::ReportUnrecognizedArguments(nargs, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_fluid_comparison();
  return 0;
}
