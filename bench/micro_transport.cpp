// Transport-layer micro-benchmarks: what one probing stream costs on
// each probe::Transport backend, and how fast the abwd daemon turns
// around whole measurement sessions.
//
// Writes BENCH_transport.json (google-benchmark JSON shape, hand-timed
// min-of-reps rows like micro_mesh) gated against
// bench/BENCH_transport.baseline.json via `transport_check` /
// `bench_check`.  Rows:
//
//   TRANS_sim_stream
//       items_per_second = 100-packet streams retired per wall second
//       through SimTransport over the paper's single-hop scenario —
//       the interface-dispatch + simulation cost of the redesigned path.
//   TRANS_udp_stream
//       items_per_second = 100-packet streams per wall second over
//       UdpTransport against an in-process daemon on loopback: pacing,
//       kernel crossings, report round-trip.  Dominated by the stream's
//       own real-time span, so the row is pinned by protocol overhead,
//       not host speed — but it still gets the loose wall-clock
//       tolerance every socket row does.
//   TRANS_daemon_sessions
//       items_per_second = complete measurement sessions (hello + one
//       stream + report + bye) per wall second with 8 concurrent
//       clients multiplexed onto the daemon's single socket.
//
// The UDP rows need a bindable loopback socket; without one the bench
// fails loudly (a broken environment should not silently pass a gate).
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/scenario.hpp"
#include "net/daemon.hpp"
#include "net/udp_transport.hpp"
#include "probe/stream_spec.hpp"
#include "probe/transport.hpp"
#include "runner/cli.hpp"

namespace {

using namespace abw;

struct BenchRun {
  double seconds = 0.0;
  std::uint64_t items = 0;
  std::uint64_t check = 0;  // received-packet digest: rep consistency
};

// ---------------------------------------------------------------------------
// SimTransport: streams through the simulated substrate

BenchRun run_sim_stream() {
  constexpr int kStreams = 200;
  core::SingleHopConfig cfg;
  cfg.seed = 31;
  core::Scenario sc = core::Scenario::single_hop(cfg);
  probe::Transport& t = sc.transport();
  probe::StreamSpec spec = probe::StreamSpec::periodic(25e6, 1000, 100);

  BenchRun r;
  const double w0 = runner::monotonic_seconds();
  for (int i = 0; i < kStreams; ++i) {
    probe::StreamResult res = t.send_stream(spec, sim::kMillisecond);
    r.check = r.check * 1009 + res.received_count();
  }
  r.seconds = runner::monotonic_seconds() - w0;
  r.items = kStreams;
  return r;
}

// ---------------------------------------------------------------------------
// UdpTransport: streams over loopback against an in-process daemon

BenchRun run_udp_stream(net::Daemon& daemon) {
  constexpr int kStreams = 30;
  net::UdpTransportConfig cfg;
  cfg.port = daemon.port();
  net::UdpTransport t(cfg);
  // 100 packets at 100 Mb/s x 500 B = 4 us gaps: the stream span is
  // ~0.4 ms, so the row times protocol turnaround, not idle pacing.
  probe::StreamSpec spec = probe::StreamSpec::periodic(100e6, 500, 100);

  BenchRun r;
  const double w0 = runner::monotonic_seconds();
  for (int i = 0; i < kStreams; ++i) {
    probe::StreamResult res = t.send_stream(spec, 100 * sim::kMicrosecond);
    r.check = r.check * 1009 + res.received_count();
  }
  r.seconds = runner::monotonic_seconds() - w0;
  r.items = kStreams;
  return r;
}

// ---------------------------------------------------------------------------
// Daemon session throughput: concurrent hello -> stream -> report -> bye

BenchRun run_daemon_sessions(net::Daemon& daemon) {
  constexpr int kClients = 8;
  constexpr int kSessionsEach = 5;

  BenchRun r;
  std::vector<std::uint64_t> checks(kClients, 0);
  const double w0 = runner::monotonic_seconds();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&daemon, &checks, c] {
      for (int s = 0; s < kSessionsEach; ++s) {
        net::UdpTransportConfig cfg;
        cfg.port = daemon.port();
        net::UdpTransport t(cfg);  // fresh session each time
        probe::StreamSpec spec = probe::StreamSpec::periodic(50e6, 500, 40);
        probe::StreamResult res = t.send_stream(spec, 100 * sim::kMicrosecond);
        checks[c] = checks[c] * 1009 + res.received_count();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  r.seconds = runner::monotonic_seconds() - w0;
  r.items = static_cast<std::uint64_t>(kClients) * kSessionsEach;
  for (std::uint64_t c : checks) r.check = r.check * 1009 + c;
  return r;
}

template <typename Fn>
BenchRun min_of_reps(Fn&& run, int reps = 3) {
  BenchRun best = run();
  for (int i = 1; i < reps; ++i) {
    BenchRun r = run();
    if (r.seconds < best.seconds) best = r;
  }
  return best;
}

struct Row {
  const char* name;
  double items_per_second;
  double real_s;
};

}  // namespace

int main() {
  BenchRun sim = min_of_reps([] { return run_sim_stream(); });

  net::DaemonConfig dcfg;
  dcfg.max_sessions = 128;
  net::Daemon daemon(dcfg);  // throws (bench fails) when sockets are broken
  daemon.start();

  BenchRun udp = min_of_reps([&] { return run_udp_stream(daemon); });
  BenchRun sessions = min_of_reps([&] { return run_daemon_sessions(daemon); });
  daemon.stop();

  const Row rows[] = {
      {"TRANS_sim_stream", sim.items / sim.seconds, sim.seconds},
      {"TRANS_udp_stream", udp.items / udp.seconds, udp.seconds},
      {"TRANS_daemon_sessions", sessions.items / sessions.seconds,
       sessions.seconds},
  };
  constexpr std::size_t kRows = sizeof(rows) / sizeof(rows[0]);

  std::FILE* f = std::fopen("BENCH_transport.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_transport: cannot write BENCH_transport.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"context\": {\"note\": \"stream rows carry streams "
                  "per wall second; the sessions row carries complete "
                  "hello-to-bye sessions per wall second\"},\n"
                  "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < kRows; ++i) {
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"run_type\": \"iteration\", "
        "\"iterations\": 1, \"real_time\": %.6e, \"cpu_time\": %.6e, "
        "\"time_unit\": \"ns\", \"items_per_second\": %.6f}%s\n",
        rows[i].name, rows[i].real_s * 1e9, rows[i].real_s * 1e9,
        rows[i].items_per_second, i + 1 < kRows ? "," : "");
    std::printf("%-24s %12.3f items/s  (%.4f s)\n", rows[i].name,
                rows[i].items_per_second, rows[i].real_s);
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return 0;
}
