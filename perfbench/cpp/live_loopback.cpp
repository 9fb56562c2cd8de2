// live_loopback: the only workload on real sockets.  An in-process abwd
// daemon on 127.0.0.1 serves two closed-loop clients; each runs
// back-to-back sessions of a fixed stream mix and closes them (bye).
// Traffic crosses loopback, not a real link, so the timings are the
// protocol's and the host's, not a network's.
#include <algorithm>
#include <exception>
#include <memory>
#include <string>
#include <thread>

#include "net/daemon.hpp"
#include "net/udp_transport.hpp"
#include "runner/batch.hpp"
#include "timed.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace abw;

namespace {

// Two clients plus the daemon thread keep three cores busy (the clients
// spin-pace their probes).
constexpr int kClients = 2;

struct MixEntry {
  double rate_bps;
  std::uint32_t size;
  std::size_t count;
};
// 100-probe trains at 1500 B and at the 40 B wire minimum, and a
// 500-probe train whose report needs 5 fragments of 113 records.  The
// rates leave the daemon's default socket buffer room for a scheduling
// stall of more than 10 ms while both clients send.
constexpr MixEntry kMix[] = {{30e6, 1500, 100}, {4e6, 40, 100}, {20e6, 500, 500}};
constexpr std::size_t kMixSize = sizeof(kMix) / sizeof(kMix[0]);
constexpr sim::SimTime kLeadIn = 200 * sim::kMicrosecond;

struct ClientLog {
  Pass pass;  // ops: stream overheads; rounds: sessions
  std::vector<double> first_overhead_ms;  // includes the lazy hello
  Tally tally;
  std::uint64_t lost_probes = 0;
  std::string error;
  TransportClock clock;
  std::uint64_t session0_streams = 0, session0_packets = 0;
};

// One hello-to-bye session: the mix in a seed-chosen order.
void run_session(std::uint16_t port, std::uint64_t order_seed, bool traced,
                 ClientLog& log) {
  net::UdpTransportConfig tc;
  tc.port = port;
  net::UdpTransport udp(tc);
  TimedTransport timed(udp, log.clock);
  probe::Transport& t = traced ? static_cast<probe::Transport&>(timed) : udp;
  std::size_t order[kMixSize] = {0, 1, 2};
  std::rotate(order, order + order_seed % kMixSize, order + kMixSize);
  if ((order_seed >> 8) & 1) std::swap(order[1], order[2]);
  for (std::size_t k = 0; k < kMixSize; ++k) {
    const MixEntry& m = kMix[order[k]];
    const probe::StreamSpec spec =
        probe::StreamSpec::periodic(m.rate_bps, m.size, m.count);
    const double w0 = now_s();
    probe::StreamResult res = t.send_stream(spec, kLeadIn);
    const double ov = stream_overhead_ms(now_s() - w0, kLeadIn, spec);
    log.pass.op(ov);
    if (k == 0) log.first_overhead_ms.push_back(ov);
    // A stream fails when it yields no measurement: no session, or not one
    // probe reported.  Partial probe loss is a property of the path that
    // the protocol measures and reports; on loopback it happens only when
    // the host stalls the daemon thread past its socket buffer, so it is
    // counted, not failed.
    const std::size_t lost = res.lost_count();
    log.lost_probes += lost;
    log.tally.add(udp.connected() && lost < res.packets.size());
  }
}

void run_client(std::uint16_t port, std::uint64_t seed, int client,
                double deadline, bool traced, ClientLog& log) {
  try {
    for (std::uint64_t s = 0; now_s() < deadline; ++s) {
      run_session(port, runner::derive_seed(seed, client * 1000000ull + s),
                  traced, log);
      log.pass.round(1.0);
      if (s == 0) {
        log.session0_streams = log.clock.streams;
        log.session0_packets = log.clock.packets;
      }
    }
  } catch (const std::exception& e) {
    log.error = e.what();
  }
}

struct LivePass : Pass {
  std::vector<double> first_overhead_ms;
  Tally tally;
  std::uint64_t lost_probes = 0;
  std::vector<std::string> errors;
  TransportClock clock;  // merged over clients
  std::uint64_t session0_streams = 0, session0_packets = 0;
  double daemon_cpu_s = 0.0;
  std::uint64_t datagrams = 0;
};

}  // namespace

Outcome run_live_loopback(const RunConfig& cfg) {
  Outcome out;
  std::unique_ptr<net::Daemon> daemon;
  long daemon_tid = 0;
  // Set-up: bind and start the daemon, then one warm session so the
  // first timed stream does not pay first-use costs.  Repeated; the last
  // daemon serves the run.
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    daemon.reset();
    const double t0 = now_s();
    daemon = std::make_unique<net::Daemon>();
    const std::vector<long> before = task_ids();
    daemon->start();
    for (long tid : task_ids())
      if (!std::binary_search(before.begin(), before.end(), tid)) daemon_tid = tid;
    net::UdpTransportConfig tc;
    tc.port = daemon->port();
    net::UdpTransport warm(tc);
    warm.send_stream(probe::StreamSpec::periodic(10e6, 40, 10), kLeadIn);
    setups.push_back(now_s() - t0);
  }
  const std::uint16_t port = daemon->port();

  LivePass p = run_passes(cfg, out, false, [&](double seconds, bool traced) {
    LivePass pass;
    std::vector<ClientLog> logs(kClients);
    const double cpu0 = thread_cpu_s(daemon_tid);
    const std::uint64_t dg0 = daemon->stats().datagrams_in;
    const double deadline = pass.start_s + seconds;
    {
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c)
        clients.emplace_back(run_client, port, cfg.seed, c, deadline, traced,
                             std::ref(logs[c]));
      for (std::thread& th : clients) th.join();
    }
    pass.finish();
    pass.daemon_cpu_s = thread_cpu_s(daemon_tid) - cpu0;
    pass.datagrams = daemon->stats().datagrams_in - dg0;
    // Interleave the clients' logs in completion order.
    std::vector<std::pair<double, double>> ops, rounds;
    for (const ClientLog& log : logs) {
      for (std::size_t i = 0; i < log.pass.op_ms.size(); ++i)
        ops.push_back({log.pass.op_end_s[i], log.pass.op_ms[i]});
      for (std::size_t i = 0; i < log.pass.round_ops.size(); ++i)
        rounds.push_back({log.pass.round_end_s[i], log.pass.round_ops[i]});
      pass.first_overhead_ms.insert(pass.first_overhead_ms.end(),
                                    log.first_overhead_ms.begin(),
                                    log.first_overhead_ms.end());
      pass.tally.attempted += log.tally.attempted;
      pass.tally.failed += log.tally.failed;
      pass.lost_probes += log.lost_probes;
      if (!log.error.empty()) pass.errors.push_back(log.error);
      pass.clock.send_s += log.clock.send_s;
      pass.clock.wait_s += log.clock.wait_s;
      pass.clock.send_us.insert(pass.clock.send_us.end(),
                                log.clock.send_us.begin(),
                                log.clock.send_us.end());
    }
    std::sort(ops.begin(), ops.end());
    std::sort(rounds.begin(), rounds.end());
    for (const auto& [end, ms] : ops) {
      pass.op_end_s.push_back(end);
      pass.op_ms.push_back(ms);
    }
    for (const auto& [end, n] : rounds) {
      pass.round_end_s.push_back(end);
      pass.round_ops.push_back(n);
      pass.ops += n;
    }
    pass.session0_streams = logs[0].session0_streams;
    pass.session0_packets = logs[0].session0_packets;
    return pass;
  });

  const net::DaemonStats st = daemon->stats();
  daemon->stop();
  out.tally = p.tally;
  for (const std::string& e : p.errors) out.check(false, "client: " + e);
  out.check(st.malformed == 0, "daemon counted malformed datagrams");
  out.check(st.sessions_rejected == 0, "daemon rejected a session");
  out.check(st.aborts_sent == 0, "daemon aborted a session");

  report_end_to_end(out, p, median(setups), "sessions_per_s", "overhead_ms");
  out.note("lost_probes", static_cast<double>(p.lost_probes), "count");

  if (cfg.trace) {
    out.layer("probe.send_stream_s", p.clock.send_s, "s");
    out.layer("probe.send_stream_us_p50", median(p.clock.send_us), "us");
    out.layer("probe.streams", static_cast<double>(p.session0_streams), "count");
    out.layer("probe.packets", static_cast<double>(p.session0_packets), "count");
    out.layer("sim.wait_s", p.clock.wait_s, "s");
    out.layer("net.first_stream_overhead_ms_p50", median(p.first_overhead_ms),
              "ms");
    out.layer("net.daemon.cpu_s", p.daemon_cpu_s, "s");
    out.layer("net.daemon.cpu_us_per_datagram",
              p.datagrams > 0 ? p.daemon_cpu_s * 1e6 /
                                    static_cast<double>(p.datagrams)
                              : 0.0,
              "us");
    out.layer("net.daemon.datagrams_in", static_cast<double>(st.datagrams_in),
              "count");
    out.layer("net.daemon.probes_in", static_cast<double>(st.probes_in), "count");
    out.layer("net.daemon.reports_sent", static_cast<double>(st.reports_sent),
              "count");
    out.layer("net.daemon.malformed", static_cast<double>(st.malformed), "count");
    out.layer("net.daemon.sessions_rejected",
              static_cast<double>(st.sessions_rejected), "count");
    out.layer("net.daemon.aborts_sent", static_cast<double>(st.aborts_sent),
              "count");
  }
  return out;
}

}  // namespace perfbench
