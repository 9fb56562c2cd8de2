// UdpTransport: the live probe::Transport backend — timestamped UDP
// probe packets over a real socket against an abwd daemon (daemon.hpp).
//
// send_stream() paces the StreamSpec's packets on the host clock (sleep
// until ~200 us before each offset, then spin), stamping each probe with
// the ACTUAL send time, then asks the daemon for the receiver's report
// and assembles a probe::StreamResult indistinguishable in shape from
// the simulator's: per-packet send/receive stamps, lost flags, and the
// same dedup/reorder accounting (the daemon runs probe::ReceiverState).
//
// Clocks: now() is nanoseconds since this transport's construction
// (monotonic).  Receive stamps are nanoseconds since the DAEMON started
// — a different, unsynchronized clock.  OWDs therefore carry a constant
// unknown offset, exactly the probe::ReceiverClock model; only relative
// OWDs and rates are meaningful, which is all the estimators use.
//
// A silent peer is indistinguishable from 100% loss: send_stream()
// returns an all-lost StreamResult after the report timeout, time keeps
// advancing, and the estimator's own LimitGuard eventually trips
// kDeadline — the graceful-abort path tests/transport_test.cpp pins.
#pragma once

#include <cstdint>
#include <string>

#include "probe/transport.hpp"
#include "sim/time.hpp"

namespace abw::net {

/// UdpTransport parameters.
struct UdpTransportConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Advertised admission-control limits, forwarded in kHello (the
  /// daemon enforces them server-side); 0 = unlimited.
  std::uint64_t advertise_budget_packets = 0;
  sim::SimTime advertise_deadline = 0;
  /// Handshake patience: kHello is retried every `hello_timeout` up to
  /// `hello_retries` times before the session is declared unreachable.
  sim::SimTime hello_timeout = 200 * sim::kMillisecond;
  int hello_retries = 5;
  /// Report patience: kStreamEnd is retried every `report_timeout` up to
  /// `report_retries` times; what never arrives is counted lost.
  sim::SimTime report_timeout = 200 * sim::kMillisecond;
  int report_retries = 5;
};

/// Live measurement substrate over one UDP socket.  Not thread-safe; one
/// transport per measurement thread (sessions are cheap — the daemon
/// multiplexes them server-side).
class UdpTransport final : public probe::Transport {
 public:
  /// Creates the socket (throws std::runtime_error on socket/address
  /// failure).  The session handshake is lazy: first send_stream().
  explicit UdpTransport(const UdpTransportConfig& cfg);
  ~UdpTransport() override;

  // Repeats the base default: default arguments bind to the static type,
  // so a call through UdpTransport& would otherwise need both arguments.
  probe::StreamResult send_stream(const probe::StreamSpec& spec,
                                  sim::SimTime lead_in = sim::kMillisecond) override;
  sim::SimTime now() override;
  void wait(sim::SimTime duration) override;
  const probe::ProbeCost& cost() const override { return cost_; }
  std::string_view kind() const override { return "udp"; }

  /// True once the daemon acked the session.
  bool connected() const { return session_id_ != 0; }

  /// The daemon-assigned session id (0 before the handshake).
  std::uint64_t session_id() const { return session_id_; }

 private:
  bool ensure_session();
  void close_session();

  UdpTransportConfig cfg_;
  int fd_ = -1;
  std::int64_t epoch_ns_ = 0;  // monotonic clock at construction
  std::uint64_t session_id_ = 0;
  bool hello_failed_ = false;  // don't re-retry a dead peer every stream
  std::uint32_t next_stream_id_ = 1;
  probe::ProbeCost cost_;
};

}  // namespace abw::net
