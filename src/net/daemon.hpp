// abwd — the measurement daemon: the live counterpart of the simulated
// receiver half of probe::ProbeSession.
//
// One UDP socket, one poll() loop on a private thread, many concurrent
// measurement sessions demultiplexed by the session_id the daemon
// assigns at kHello.  A session is bound to the address and port that
// opened it: a datagram naming it from anywhere else is treated as
// naming an unknown session (a kBye from there is ignored), and the
// session's reports and aborts go only to its own peer.  Per stream the
// daemon runs the SAME
// probe::ReceiverState dedup/reorder accounting the simulator uses, so a
// live StreamResult is impaired exactly the way a simulated one is.
//
// Admission control: each kHello advertises the client's EstimatorLimits
// (probe-packet budget and deadline).  The daemon enforces them
// server-side — a session over budget/deadline gets a kAbort and its
// probes are dropped — so a misbehaving client cannot probe harder than
// it declared (the paper's intrusiveness concern, applied to the tool
// itself).
//
// Receive timestamps come from SO_TIMESTAMPNS when the socket supports
// it (kernel stamp at softirq time, before scheduling delay), falling
// back to clock_gettime(CLOCK_REALTIME) at recvmsg return.  Stamps are
// reported as nanoseconds since the daemon started: client and daemon
// clocks are deliberately NOT aligned — the constant offset is the
// unsynchronized receiver clock every real tool faces (the simulator's
// probe::ReceiverClock offset).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace abw::net {

/// Daemon parameters.
struct DaemonConfig {
  std::string bind_host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back with port()
  std::size_t max_sessions = 64;     ///< admission: kHelloReject beyond
  /// Streams kept per session (at least 1): opening one more, by a probe
  /// or by a kStreamEnd, drops the oldest other one.
  std::size_t max_streams_kept = 8;
  sim::SimTime idle_timeout = 30 * sim::kSecond;  ///< session GC
};

/// Counters the daemon maintains (atomically) while running; snapshot
/// with Daemon::snapshot_metrics or read individually in tests.
struct DaemonStats {
  std::uint64_t datagrams_in = 0;
  std::uint64_t probes_in = 0;
  std::uint64_t sessions_admitted = 0;
  std::uint64_t sessions_rejected = 0;
  std::uint64_t sessions_expired = 0;
  std::uint64_t aborts_sent = 0;
  std::uint64_t reports_sent = 0;
  std::uint64_t malformed = 0;
};

/// The measurement daemon.  Construction binds the socket (throws
/// std::runtime_error on failure); start() launches the loop thread;
/// stop() (or the destructor) shuts it down.
class Daemon {
 public:
  explicit Daemon(const DaemonConfig& cfg = {});
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  void start();
  void stop();

  /// The bound UDP port (resolves config port 0).
  std::uint16_t port() const { return port_; }

  /// True while the loop thread is running.
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Sessions currently admitted and not expired.
  std::size_t active_sessions() const;

  /// Point-in-time copy of the counters.
  DaemonStats stats() const;

  /// Attaches a trace sink receiving session-level kDecision events
  /// (hello/reject/abort/report).  Emitted from the daemon thread under
  /// an internal mutex; the sink itself need not be thread-safe as long
  /// as no other thread emits into it concurrently.  nullptr detaches.
  void set_trace(obs::TraceSink* sink);

  /// Writes the daemon's counters into `m` ("abwd.*" namespace).
  void snapshot_metrics(obs::MetricsRegistry& m) const;

 private:
  struct Impl;
  Impl* impl_;  // pimpl: keeps <sys/socket.h> out of this header

  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::thread thread_;
};

}  // namespace abw::net
