// The transport-redesign suite (label: live).
//
//  * probe::ReceiverState — the ONE dedup/reorder accounting shared by
//    ProbeSession and the live daemon.
//  * ProbeSession as the simulated Transport: the default lead-in, the
//    clock and the sim_session() escape hatch.
//  * The wire protocol (net/wire.hpp) round-trips.
//  * Live UDP loopback: capacity, spruce, and pathload end-to-end
//    against an in-process abwd daemon; an all-9-tool sweep asserting
//    valid-or-structured termination; daemon multiplexing of many
//    concurrent sessions with no cross-session bleed; admission
//    rejection beyond max_sessions; the graceful kDeadline abort when
//    the peer goes silent; sessions bound to the peer that opened them;
//    and the per-session stream cap under kStreamEnd for unseen streams.
//
// Every socket-touching test skips itself (GTEST_SKIP) when the
// environment cannot bind a loopback UDP socket.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.hpp"
#include "core/scenario.hpp"
#include "est/capacity.hpp"
#include "est/pathload.hpp"
#include "est/spruce.hpp"
#include "net/daemon.hpp"
#include "net/udp_transport.hpp"
#include "net/wire.hpp"
#include "probe/receiver_state.hpp"
#include "probe/transport.hpp"

using namespace abw;

// ---------------------------------------------------------------------------
// ReceiverState: the shared accounting

namespace {

probe::StreamResult make_result(std::size_t n) {
  probe::StreamResult r;
  r.stream_id = 1;
  r.packets.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    r.packets[i].seq = static_cast<std::uint32_t>(i);
    r.packets[i].lost = true;
  }
  return r;
}

}  // namespace

TEST(ReceiverState, InOrderDeliveryAcceptsAll) {
  probe::StreamResult r = make_result(5);
  probe::ReceiverState rs;
  for (std::uint32_t s = 0; s < 5; ++s) {
    probe::ProbeRecord* rec = rs.accept(r, s);
    ASSERT_NE(rec, nullptr);
    rec->received = 100 + s;
  }
  EXPECT_EQ(r.duplicate_count, 0u);
  EXPECT_EQ(r.reordered_count, 0u);
  EXPECT_TRUE(r.complete());
}

TEST(ReceiverState, DuplicatesCountedAndRejected) {
  probe::StreamResult r = make_result(3);
  probe::ReceiverState rs;
  ASSERT_NE(rs.accept(r, 1), nullptr);
  EXPECT_EQ(rs.accept(r, 1), nullptr);  // dup of a received seq
  EXPECT_EQ(rs.accept(r, 1), nullptr);
  EXPECT_EQ(r.duplicate_count, 2u);
  EXPECT_EQ(r.reordered_count, 0u);
}

TEST(ReceiverState, ReorderCountsFirstArrivalBehindHigherSeq) {
  probe::StreamResult r = make_result(4);
  probe::ReceiverState rs;
  ASSERT_NE(rs.accept(r, 0), nullptr);
  ASSERT_NE(rs.accept(r, 2), nullptr);  // 1 skipped
  ASSERT_NE(rs.accept(r, 1), nullptr);  // late: reordered
  ASSERT_NE(rs.accept(r, 3), nullptr);
  EXPECT_EQ(r.reordered_count, 1u);
  EXPECT_EQ(r.duplicate_count, 0u);
}

TEST(ReceiverState, OutOfRangeSeqIgnored) {
  probe::StreamResult r = make_result(2);
  probe::ReceiverState rs;
  EXPECT_EQ(rs.accept(r, 7), nullptr);
  EXPECT_EQ(r.duplicate_count, 0u);
  EXPECT_EQ(r.lost_count(), 2u);
}

// ---------------------------------------------------------------------------
// ProbeSession as the simulated Transport

namespace {

core::Scenario twin_scenario() {
  core::SingleHopConfig cfg;  // paper defaults: 50M capacity, 25M cross
  cfg.seed = 11;
  return core::Scenario::single_hop(cfg);
}

}  // namespace

// Default arguments bind to the static type: each transport repeats the
// base's lead-in default, so a one-argument call compiles through the
// derived type too.
template <typename T>
concept SendsWithDefaultLeadIn = requires(T& t, const probe::StreamSpec& s) {
  t.send_stream(s);
};
static_assert(SendsWithDefaultLeadIn<probe::ProbeSession>);
static_assert(SendsWithDefaultLeadIn<net::UdpTransport>);

// Scenario::transport() returns ProbeSession&, so a one-argument call
// binds to ProbeSession's own default lead-in, which must be the base's.
TEST(ProbeSessionTransport, DefaultLeadInMatchesExplicitMillisecond) {
  core::Scenario sc_default = twin_scenario();
  core::Scenario sc_explicit = twin_scenario();
  const probe::StreamSpec spec = probe::StreamSpec::periodic(20e6, 1500, 40);
  probe::StreamResult a = sc_default.transport().send_stream(spec);
  probe::StreamResult b =
      sc_explicit.transport().send_stream(spec, sim::kMillisecond);
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    EXPECT_EQ(a.packets[i].sent, b.packets[i].sent) << "packet " << i;
    EXPECT_EQ(a.packets[i].received, b.packets[i].received) << "packet " << i;
    EXPECT_EQ(a.packets[i].lost, b.packets[i].lost) << "packet " << i;
  }
  EXPECT_EQ(sc_default.simulator().now(), sc_explicit.simulator().now());
}

TEST(ProbeSessionTransport, ExposesSessionAndClock) {
  core::Scenario sc = twin_scenario();
  probe::Transport& t = sc.transport();
  EXPECT_EQ(t.kind(), "sim");
  EXPECT_EQ(t.sim_session(), &sc.transport());
  sim::SimTime before = t.now();
  t.wait(5 * sim::kMillisecond);
  EXPECT_EQ(t.now(), before + 5 * sim::kMillisecond);
  EXPECT_EQ(&t, &sc.transport());  // stable accessor
}

// ---------------------------------------------------------------------------
// Wire protocol

TEST(Wire, HeaderRoundTrips) {
  net::WireHeader h;
  h.type = static_cast<std::uint8_t>(net::MsgType::kProbe);
  h.session_id = 0x1122334455667788ull;
  h.stream_id = 42;
  h.seq = 7;
  h.t_ns = 0xCAFEBABEDEADBEEFull;
  h.count = 300;
  h.aux = 1234;
  unsigned char buf[net::kHeaderSize];
  net::encode_header(h, buf);
  net::WireHeader d;
  ASSERT_TRUE(net::decode_header(buf, sizeof(buf), &d));
  EXPECT_EQ(d.type, h.type);
  EXPECT_EQ(d.session_id, h.session_id);
  EXPECT_EQ(d.stream_id, h.stream_id);
  EXPECT_EQ(d.seq, h.seq);
  EXPECT_EQ(d.t_ns, h.t_ns);
  EXPECT_EQ(d.count, h.count);
  EXPECT_EQ(d.aux, h.aux);
}

TEST(Wire, RejectsShortAndForeignDatagrams) {
  unsigned char buf[net::kHeaderSize] = {0};
  net::WireHeader d;
  EXPECT_FALSE(net::decode_header(buf, 10, &d));   // short
  EXPECT_FALSE(net::decode_header(buf, sizeof(buf), &d));  // bad magic
}

TEST(Wire, ReportRecordRoundTrips) {
  net::ReportRecord r{77, 123456789012345ull};
  unsigned char buf[net::kReportRecordSize];
  net::encode_report_record(r, buf);
  net::ReportRecord d = net::decode_report_record(buf);
  EXPECT_EQ(d.seq, r.seq);
  EXPECT_EQ(d.recv_ns, r.recv_ns);
}

// ---------------------------------------------------------------------------
// Live UDP loopback

namespace {

// Daemon factory that doubles as the capability probe: when loopback UDP
// is unavailable in this environment, tests skip.
std::unique_ptr<net::Daemon> try_daemon(net::DaemonConfig cfg = {}) {
  try {
    auto d = std::make_unique<net::Daemon>(cfg);
    d->start();
    return d;
  } catch (const std::exception&) {
    return nullptr;
  }
}

net::UdpTransportConfig client_config(const net::Daemon& daemon) {
  net::UdpTransportConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.port = daemon.port();
  return cfg;
}

#define REQUIRE_SOCKETS(daemon_ptr)                               \
  if ((daemon_ptr) == nullptr)                                    \
  GTEST_SKIP() << "loopback UDP sockets unavailable in this environment"

}  // namespace

TEST(UdpLoopback, StreamRoundTripMeasuresEveryPacket) {
  auto daemon = try_daemon();
  REQUIRE_SOCKETS(daemon);
  net::UdpTransport t(client_config(*daemon));
  probe::StreamSpec spec = probe::StreamSpec::periodic(10e6, 500, 50);
  probe::StreamResult res = t.send_stream(spec, sim::kMillisecond);
  EXPECT_TRUE(t.connected());
  EXPECT_EQ(res.packets.size(), 50u);
  EXPECT_EQ(res.lost_count(), 0u) << "loopback should not lose probes";
  EXPECT_EQ(res.duplicate_count, 0u);
  // Send stamps must be the actual paced times: strictly increasing.
  for (std::size_t i = 1; i < res.packets.size(); ++i)
    EXPECT_GT(res.packets[i].sent, res.packets[i - 1].sent);
  // Receive stamps come from the daemon clock: nondecreasing on loopback
  // (same socket, FIFO).
  for (std::size_t i = 1; i < res.packets.size(); ++i)
    EXPECT_GE(res.packets[i].received, res.packets[i - 1].received);
  EXPECT_GT(res.output_rate_bps(), 0.0);
  EXPECT_EQ(t.cost().packets, 50u);
  EXPECT_EQ(t.cost().streams, 1u);
}

// UdpTransport checks a spec by the same rule as ProbeSession
// (StreamSpec::validate) before it touches the socket: a rejected spec
// opens no session, sends nothing and leaves cost() unchanged.
TEST(UdpLoopback, RejectsBadSpecsBeforeSending) {
  auto daemon = try_daemon();
  REQUIRE_SOCKETS(daemon);
  net::UdpTransport t(client_config(*daemon));
  auto spec_of = [](std::vector<sim::SimTime> offsets) {
    probe::StreamSpec spec;
    for (sim::SimTime o : offsets) spec.packets.push_back({o, 500});
    return spec;
  };
  const std::vector<probe::StreamSpec> bad = {
      probe::StreamSpec{},
      spec_of({-sim::kMicrosecond, 0, sim::kMicrosecond}),
      spec_of({0, 100 * sim::kMicrosecond, -sim::kMicrosecond}),
      spec_of({0, 2 * sim::kMillisecond, sim::kMillisecond}),
  };
  for (const probe::StreamSpec& spec : bad)
    EXPECT_THROW(t.send_stream(spec, sim::kMillisecond), std::invalid_argument);
  EXPECT_FALSE(t.connected());
  EXPECT_EQ(daemon->stats().datagrams_in, 0u);
  EXPECT_EQ(t.cost().streams, 0u);
  EXPECT_EQ(t.cost().packets, 0u);
  EXPECT_EQ(t.cost().bytes, 0u);

  // The rejections used no stream id either.
  probe::StreamResult res =
      t.send_stream(probe::StreamSpec::periodic(10e6, 500, 10), sim::kMillisecond);
  EXPECT_EQ(res.stream_id, 1u);
  EXPECT_EQ(res.lost_count(), 0u);
  EXPECT_EQ(t.cost().streams, 1u);
  EXPECT_EQ(t.cost().packets, 10u);
}

TEST(UdpLoopback, CapacityEstimatorEndToEnd) {
  auto daemon = try_daemon();
  REQUIRE_SOCKETS(daemon);
  net::UdpTransport t(client_config(*daemon));
  est::CapacityConfig cfg;
  cfg.pair_count = 40;
  cfg.mean_pair_gap = 2 * sim::kMillisecond;
  est::CapacityEstimator cap(cfg, stats::Rng(3));
  double cn = cap.estimate_capacity(t);
  // Loopback "capacity" is whatever the stack dispatches back-to-back
  // sends at — only positivity and sanity are meaningful.
  EXPECT_GT(cn, 0.0);
  EXPECT_EQ(cap.last_samples().size(), 40u);
}

TEST(UdpLoopback, SpruceEndToEnd) {
  auto daemon = try_daemon();
  REQUIRE_SOCKETS(daemon);
  net::UdpTransport t(client_config(*daemon));
  est::SpruceConfig cfg;
  cfg.tight_capacity_bps = 1e9;
  cfg.pair_count = 60;
  cfg.mean_pair_gap = 2 * sim::kMillisecond;
  est::Spruce spruce(cfg, stats::Rng(5));
  est::Estimate e = spruce.estimate(t);
  ASSERT_TRUE(e.valid) << e.detail;
  EXPECT_GT(e.point_bps(), 0.0);
  EXPECT_LE(e.point_bps(), 1e9);
  EXPECT_EQ(e.cost.packets, 120u);
}

TEST(UdpLoopback, PathloadEndToEnd) {
  auto daemon = try_daemon();
  REQUIRE_SOCKETS(daemon);
  net::UdpTransport t(client_config(*daemon));
  est::PathloadConfig cfg;
  cfg.min_rate_bps = 20e6;
  cfg.max_rate_bps = 400e6;
  cfg.packets_per_stream = 50;
  cfg.streams_per_fleet = 3;
  cfg.inter_stream_gap = 2 * sim::kMillisecond;
  cfg.resolution_bps = 50e6;
  cfg.max_fleets = 8;
  est::Pathload pl(cfg);
  est::Estimate e = pl.estimate(t);
  // Loopback has no controlled avail-bw; the contract is structured
  // termination: a range, or an explicit non-convergence/abort.
  if (e.valid) {
    EXPECT_GT(e.high_bps, 0.0);
    EXPECT_LE(e.low_bps, e.high_bps);
  } else {
    EXPECT_FALSE(e.detail.empty());
  }
  EXPECT_GT(e.cost.packets, 0u);
}

TEST(UdpLoopback, AllNineToolsTerminateStructured) {
  auto daemon = try_daemon();
  REQUIRE_SOCKETS(daemon);
  for (const std::string& name : core::available_tools()) {
    net::UdpTransportConfig tcfg = client_config(*daemon);
    tcfg.advertise_budget_packets = 30000;
    tcfg.advertise_deadline = 8 * sim::kSecond;
    net::UdpTransport t(tcfg);

    core::ToolOptions opts;
    opts.tight_capacity_bps = 1e9;
    opts.min_rate_bps = 50e6;
    opts.max_rate_bps = 500e6;
    opts.repetitions = 6;
    opts.limits.max_probe_packets = 30000;
    opts.limits.deadline = 8 * sim::kSecond;
    stats::Rng rng(17);
    auto tool = core::make_estimator(name, opts, rng);
    est::Estimate e = tool->estimate(t);

    // Valid estimate, or a structured abort/invalid with a reason —
    // never a hang (the ctest timeout is the backstop) or empty result.
    if (e.valid) {
      EXPECT_GT(e.high_bps, 0.0) << name;
    } else {
      EXPECT_TRUE(e.abort != est::AbortReason::kNone || !e.detail.empty())
          << name << " returned an unstructured failure";
    }
    EXPECT_GT(e.cost.packets, 0u) << name;
    // The guard is checked between streams, so the budget can overshoot
    // by at most one stream (bfind's 500 ms steps are the largest).
    EXPECT_LE(e.cost.packets, 2u * 30000u)
        << name << " blew through its probe budget";
  }
  EXPECT_EQ(daemon->stats().sessions_admitted,
            core::available_tools().size());
}

TEST(UdpLoopback, DaemonMultiplexesConcurrentSessions) {
  net::DaemonConfig dcfg;
  dcfg.max_sessions = 32;
  auto daemon = try_daemon(dcfg);
  REQUIRE_SOCKETS(daemon);

  constexpr int kClients = 8;
  constexpr int kStreams = 3;
  constexpr std::size_t kPackets = 40;
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> session_ids(kClients, 0);
  std::atomic<int> failures{0};

  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        net::UdpTransport t(client_config(*daemon));
        // Distinct packet size per client: a report bleeding across
        // sessions would surface as a count/size mismatch below.
        std::uint32_t size = 200 + 100 * static_cast<std::uint32_t>(c);
        for (int s = 0; s < kStreams; ++s) {
          probe::StreamSpec spec =
              probe::StreamSpec::periodic(5e6, size, kPackets);
          probe::StreamResult res = t.send_stream(spec, sim::kMillisecond);
          if (res.packets.size() != kPackets) ++failures;
          if (res.lost_count() != 0) ++failures;
          if (res.duplicate_count != 0) ++failures;
          for (const probe::ProbeRecord& rec : res.packets)
            if (rec.size_bytes != size) ++failures;
        }
        session_ids[c] = t.session_id();
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  // Every client got its own session, and they never collided.
  for (int c = 0; c < kClients; ++c) {
    EXPECT_NE(session_ids[c], 0u) << "client " << c << " never connected";
    for (int d = c + 1; d < kClients; ++d)
      EXPECT_NE(session_ids[c], session_ids[d]);
  }
  net::DaemonStats stats = daemon->stats();
  EXPECT_EQ(stats.sessions_admitted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.probes_in,
            static_cast<std::uint64_t>(kClients) * kStreams * kPackets);
}

TEST(UdpLoopback, HelloRejectBeyondMaxSessions) {
  net::DaemonConfig dcfg;
  dcfg.max_sessions = 1;
  auto daemon = try_daemon(dcfg);
  REQUIRE_SOCKETS(daemon);

  net::UdpTransport first(client_config(*daemon));
  probe::StreamSpec spec = probe::StreamSpec::periodic(5e6, 300, 10);
  probe::StreamResult ok = first.send_stream(spec, sim::kMillisecond);
  EXPECT_EQ(ok.lost_count(), 0u);

  net::UdpTransportConfig cfg2 = client_config(*daemon);
  cfg2.hello_retries = 2;
  cfg2.hello_timeout = 50 * sim::kMillisecond;
  net::UdpTransport second(cfg2);
  probe::StreamResult rejected = second.send_stream(spec, sim::kMillisecond);
  EXPECT_FALSE(second.connected());
  EXPECT_EQ(rejected.lost_count(), rejected.packets.size());
  EXPECT_GE(daemon->stats().sessions_rejected, 1u);
}

TEST(UdpLoopback, SilentPeerTripsDeadlineAbort) {
  auto daemon = try_daemon();
  REQUIRE_SOCKETS(daemon);

  net::UdpTransportConfig tcfg = client_config(*daemon);
  tcfg.report_timeout = 100 * sim::kMillisecond;
  tcfg.report_retries = 2;
  net::UdpTransport t(tcfg);

  // Establish the session while the daemon is alive...
  probe::StreamSpec warm = probe::StreamSpec::periodic(5e6, 300, 5);
  probe::StreamResult ok = t.send_stream(warm, sim::kMillisecond);
  ASSERT_TRUE(t.connected());
  ASSERT_EQ(ok.lost_count(), 0u);

  // ...then the peer goes silent mid-measurement.
  daemon->stop();
  daemon.reset();

  est::PathloadConfig cfg;
  cfg.min_rate_bps = 20e6;
  cfg.max_rate_bps = 200e6;
  cfg.packets_per_stream = 20;
  cfg.streams_per_fleet = 2;
  cfg.inter_stream_gap = sim::kMillisecond;
  est::Pathload pl(cfg);
  est::EstimatorLimits limits;
  limits.deadline = 300 * sim::kMillisecond;
  pl.set_limits(limits);

  est::Estimate e = pl.estimate(t);
  EXPECT_FALSE(e.valid);
  EXPECT_EQ(e.abort, est::AbortReason::kDeadline)
      << "expected the deadline guard to fire, got: " << e.detail;
}

TEST(UdpLoopback, DaemonExportsObsTraceAndMetrics) {
  auto daemon = try_daemon();
  REQUIRE_SOCKETS(daemon);
  obs::NullTraceSink sink;
  daemon->set_trace(&sink);

  net::UdpTransport t(client_config(*daemon));
  probe::StreamSpec spec = probe::StreamSpec::periodic(5e6, 300, 10);
  (void)t.send_stream(spec, sim::kMillisecond);

  obs::MetricsRegistry m;
  daemon->snapshot_metrics(m);
  EXPECT_EQ(m.counter("abwd.sessions_admitted").value, 1u);
  EXPECT_EQ(m.counter("abwd.probes_in").value, 10u);
  EXPECT_EQ(m.counter("abwd.reports_sent").value, 1u);
  daemon->set_trace(nullptr);
  EXPECT_GE(sink.events(), 2u);  // hello + report at minimum
}

// ---------------------------------------------------------------------------
// Hostile datagrams, sent from a bare socket

namespace {

// An ABW1 sender on its own UDP socket, for datagrams no UdpTransport
// sends: a kBye from another socket, kStreamEnd for unseen streams,
// streams opened out of id order.
class RawClient {
 public:
  explicit RawClient(std::uint16_t daemon_port) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    timeval tv{0, 500000};  // receive() gives up after 0.5 s
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    daemon_.sin_family = AF_INET;
    daemon_.sin_port = htons(daemon_port);
    ::inet_pton(AF_INET, "127.0.0.1", &daemon_.sin_addr);
  }
  ~RawClient() { ::close(fd_); }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  void send(net::MsgType type, std::uint64_t session_id,
            std::uint32_t stream_id = 0, std::uint32_t seq = 0,
            std::uint32_t count = 0) {
    net::WireHeader h;
    h.type = static_cast<std::uint8_t>(type);
    h.session_id = session_id;
    h.stream_id = stream_id;
    h.seq = seq;
    h.count = count;
    unsigned char buf[net::kHeaderSize];
    net::encode_header(h, buf);
    ::sendto(fd_, buf, sizeof(buf), 0,
             reinterpret_cast<const sockaddr*>(&daemon_), sizeof(daemon_));
  }

  // The next reply's header; false after the receive timeout.
  bool receive(net::WireHeader* h) {
    std::vector<unsigned char> buf(net::kMaxDatagram);
    ssize_t n = ::recv(fd_, buf.data(), buf.size(), 0);
    return n > 0 &&
           net::decode_header(buf.data(), static_cast<std::size_t>(n), h);
  }

  // Opens a session without limits; its id, or 0 when none was admitted.
  std::uint64_t hello() {
    send(net::MsgType::kHello, 0);
    net::WireHeader ack;
    if (!receive(&ack) ||
        ack.type != static_cast<std::uint8_t>(net::MsgType::kHelloAck))
      return 0;
    return ack.session_id;
  }

 private:
  int fd_ = -1;
  sockaddr_in daemon_{};
};

}  // namespace

// A session id names a session only to the address and port that opened
// it: another socket can neither close it nor read its reports.
TEST(UdpLoopback, SessionIsBoundToItsPeer) {
  auto daemon = try_daemon();
  REQUIRE_SOCKETS(daemon);
  net::UdpTransport victim(client_config(*daemon));
  const probe::StreamSpec spec = probe::StreamSpec::periodic(5e6, 300, 10);
  ASSERT_EQ(victim.send_stream(spec).lost_count(), 0u);

  RawClient stranger(daemon->port());
  stranger.send(net::MsgType::kStreamEnd, victim.session_id(), 1, 0, 10);
  net::WireHeader reply;
  ASSERT_TRUE(stranger.receive(&reply));
  EXPECT_EQ(reply.type, static_cast<std::uint8_t>(net::MsgType::kAbort))
      << "the victim's report went to another socket";
  EXPECT_EQ(reply.aux,
            static_cast<std::uint32_t>(net::AbortCode::kUnknownSession));

  const std::uint64_t seen = daemon->stats().datagrams_in;
  stranger.send(net::MsgType::kBye, victim.session_id());
  for (int i = 0; i < 2000 && daemon->stats().datagrams_in == seen; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GT(daemon->stats().datagrams_in, seen);
  EXPECT_EQ(daemon->active_sessions(), 1u);
  EXPECT_EQ(victim.send_stream(spec).lost_count(), 0u)
      << "another socket's kBye closed the victim's session";
  EXPECT_EQ(daemon->active_sessions(), 1u);
}

// A kStreamEnd for a stream the daemon never saw opens an all-lost record
// under the same per-session cap as a probe does, so unseen stream ids
// cannot pile up records; the oldest stream goes first.
TEST(UdpLoopback, StreamEndForUnseenStreamsKeepsTheStreamCap) {
  net::DaemonConfig dcfg;
  dcfg.max_streams_kept = 8;
  auto daemon = try_daemon(dcfg);
  REQUIRE_SOCKETS(daemon);
  RawClient client(daemon->port());
  const std::uint64_t session = client.hello();
  ASSERT_NE(session, 0u);

  for (std::uint32_t seq = 0; seq < 5; ++seq)
    client.send(net::MsgType::kProbe, session, 1, seq, 5);
  for (std::uint32_t stream = 2; stream < 10; ++stream)
    client.send(net::MsgType::kStreamEnd, session, stream, 0, 5);
  client.send(net::MsgType::kStreamEnd, session, 1, 0, 5);

  net::WireHeader reply;
  bool got_report = false;
  while (!got_report && client.receive(&reply)) {
    ASSERT_EQ(reply.type, static_cast<std::uint8_t>(net::MsgType::kReport));
    got_report = reply.stream_id == 1;
  }
  ASSERT_TRUE(got_report) << "no report for stream 1";
  EXPECT_EQ(reply.aux, 0u)
      << "stream 1 outlived 8 newer streams; its report carried records";
}

// The stream a probe opens is never the one the cap drops, even when its
// id is lower than every kept stream's.
TEST(UdpLoopback, ProbeOpeningTheLowestStreamKeepsIt) {
  net::DaemonConfig dcfg;
  dcfg.max_streams_kept = 8;
  auto daemon = try_daemon(dcfg);
  REQUIRE_SOCKETS(daemon);
  RawClient client(daemon->port());
  const std::uint64_t session = client.hello();
  ASSERT_NE(session, 0u);

  for (std::uint32_t stream = 2; stream < 10; ++stream)
    client.send(net::MsgType::kProbe, session, stream, 0, 5);
  client.send(net::MsgType::kProbe, session, 1, 0, 5);
  client.send(net::MsgType::kStreamEnd, session, 1, 0, 5);

  net::WireHeader reply;
  ASSERT_TRUE(client.receive(&reply));
  ASSERT_EQ(reply.type, static_cast<std::uint8_t>(net::MsgType::kReport));
  EXPECT_EQ(reply.stream_id, 1u);
  EXPECT_EQ(reply.aux, 1u) << "stream 1 lost the probe that opened it";
}
