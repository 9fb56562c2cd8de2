#include "net/udp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "net/wire.hpp"

namespace abw::net {

namespace {

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void sleep_ns(std::int64_t ns) {
  if (ns <= 0) return;
  timespec ts{};
  ts.tv_sec = ns / 1000000000;
  ts.tv_nsec = ns % 1000000000;
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

// Pacing slack: sleep until this many ns before the target offset, then
// spin on the clock.  Probe gaps at the repo's default rates go down to
// ~40 us; nanosleep alone overshoots by scheduler quanta.
constexpr std::int64_t kSpinWindowNs = 200000;

}  // namespace

UdpTransport::UdpTransport(const UdpTransportConfig& cfg) : cfg_(cfg) {
  epoch_ns_ = monotonic_ns();
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw std::runtime_error("UdpTransport: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg.port);
  if (::inet_pton(AF_INET, cfg.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    throw std::runtime_error("UdpTransport: bad peer address " + cfg.host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    int e = errno;
    ::close(fd_);
    throw std::runtime_error(std::string("UdpTransport: connect failed: ") +
                             std::strerror(e));
  }
}

UdpTransport::~UdpTransport() {
  close_session();
  if (fd_ >= 0) ::close(fd_);
}

sim::SimTime UdpTransport::now() { return monotonic_ns() - epoch_ns_; }

void UdpTransport::wait(sim::SimTime duration) { sleep_ns(duration); }

void UdpTransport::close_session() {
  if (fd_ < 0 || session_id_ == 0) return;
  unsigned char buf[kHeaderSize];
  WireHeader h;
  h.type = static_cast<std::uint8_t>(MsgType::kBye);
  h.session_id = session_id_;
  encode_header(h, buf);
  (void)::send(fd_, buf, sizeof(buf), 0);
  session_id_ = 0;
}

bool UdpTransport::ensure_session() {
  if (session_id_ != 0) return true;
  if (hello_failed_) return false;
  unsigned char buf[kMaxDatagram];
  WireHeader hello;
  hello.type = static_cast<std::uint8_t>(MsgType::kHello);
  hello.count = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(cfg_.advertise_budget_packets, UINT32_MAX));
  hello.t_ns = static_cast<std::uint64_t>(
      cfg_.advertise_deadline > 0 ? cfg_.advertise_deadline : 0);
  for (int attempt = 0; attempt < cfg_.hello_retries; ++attempt) {
    encode_header(hello, buf);
    if (::send(fd_, buf, kHeaderSize, 0) < 0 && errno != ECONNREFUSED) {
      // Transient send failure: treated like loss, retry after timeout.
    }
    std::int64_t deadline = monotonic_ns() + cfg_.hello_timeout;
    for (;;) {
      std::int64_t left = deadline - monotonic_ns();
      if (left <= 0) break;
      pollfd pfd{fd_, POLLIN, 0};
      int n = ::poll(&pfd, 1, static_cast<int>(left / 1000000 + 1));
      if (n <= 0) continue;
      ssize_t got = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (got < 0) continue;
      WireHeader h;
      if (!decode_header(buf, static_cast<std::size_t>(got), &h)) continue;
      if (h.type == static_cast<std::uint8_t>(MsgType::kHelloAck)) {
        session_id_ = h.session_id;
        return true;
      }
      if (h.type == static_cast<std::uint8_t>(MsgType::kHelloReject)) {
        hello_failed_ = true;
        return false;
      }
    }
  }
  hello_failed_ = true;
  return false;
}

probe::StreamResult UdpTransport::send_stream(const probe::StreamSpec& spec,
                                              sim::SimTime lead_in) {
  spec.validate();

  probe::StreamResult result;
  result.stream_id = next_stream_id_++;
  result.packets.resize(spec.packets.size());
  auto stream_count = static_cast<std::uint32_t>(spec.packets.size());

  if (cost_.streams == 0) cost_.first_send = now() + lead_in;
  ++cost_.streams;
  for (std::size_t i = 0; i < spec.packets.size(); ++i) {
    result.packets[i].seq = static_cast<std::uint32_t>(i);
    result.packets[i].size_bytes = spec.packets[i].size_bytes;
    result.packets[i].lost = true;
    ++cost_.packets;
    cost_.bytes += spec.packets[i].size_bytes;
  }

  if (!ensure_session()) {
    // Peer unreachable: the stream's span still elapses (the estimator's
    // deadline must keep running down) and everything is lost.
    wait(lead_in + spec.span());
    for (std::size_t i = 0; i < spec.packets.size(); ++i)
      result.packets[i].sent = now();
    cost_.last_activity = now();
    return result;
  }

  unsigned char buf[kMaxDatagram];
  std::memset(buf, 0, sizeof(buf));

  // Pace the sends on the monotonic clock, stamping actual send times.
  sim::SimTime start = now() + lead_in;
  for (std::size_t i = 0; i < spec.packets.size(); ++i) {
    std::int64_t target = start + spec.packets[i].offset;
    std::int64_t left = target - now();
    if (left > kSpinWindowNs) sleep_ns(left - kSpinWindowNs);
    while (now() < target) {
    }
    WireHeader h;
    h.type = static_cast<std::uint8_t>(MsgType::kProbe);
    h.session_id = session_id_;
    h.stream_id = result.stream_id;
    h.seq = static_cast<std::uint32_t>(i);
    sim::SimTime stamp = now();
    h.t_ns = static_cast<std::uint64_t>(stamp);
    h.count = stream_count;
    std::size_t wire_size =
        std::clamp<std::size_t>(spec.packets[i].size_bytes, kHeaderSize,
                                kMaxDatagram);
    h.aux = static_cast<std::uint32_t>(wire_size);
    encode_header(h, buf);
    result.packets[i].sent = stamp;
    (void)::send(fd_, buf, wire_size, 0);  // failure == loss; report decides
  }

  // Collect the receiver's report, re-requesting on timeout.  A retried
  // kStreamEnd also sweeps up probes that were still in flight.
  std::vector<bool> have_fragment;
  std::size_t fragments_total = 0;
  std::size_t fragments_have = 0;
  bool done = false;
  for (int attempt = 0; attempt < cfg_.report_retries && !done; ++attempt) {
    WireHeader end;
    end.type = static_cast<std::uint8_t>(MsgType::kStreamEnd);
    end.session_id = session_id_;
    end.stream_id = result.stream_id;
    end.count = stream_count;
    end.aux = static_cast<std::uint32_t>(attempt);
    encode_header(end, buf);
    (void)::send(fd_, buf, kHeaderSize, 0);

    std::int64_t deadline = monotonic_ns() + cfg_.report_timeout;
    while (!done) {
      std::int64_t left = deadline - monotonic_ns();
      if (left <= 0) break;
      pollfd pfd{fd_, POLLIN, 0};
      int n = ::poll(&pfd, 1, static_cast<int>(left / 1000000 + 1));
      if (n <= 0) continue;
      ssize_t got = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (got < 0) continue;
      WireHeader h;
      if (!decode_header(buf, static_cast<std::size_t>(got), &h)) continue;
      if (h.type == static_cast<std::uint8_t>(MsgType::kAbort)) {
        // Server-side admission control tripped: everything from here on
        // is lost; the estimator's own LimitGuard reports the abort.
        done = true;
        break;
      }
      if (h.type != static_cast<std::uint8_t>(MsgType::kReport) ||
          h.stream_id != result.stream_id)
        continue;  // stray (old stream / handshake residue)
      if (h.count == 0 || h.count > (1u << 16)) continue;  // absurd fragment count
      if (fragments_total == 0) {
        fragments_total = h.count;
        have_fragment.assign(fragments_total, false);
        result.duplicate_count = static_cast<std::uint32_t>(h.t_ns >> 32);
        result.reordered_count = static_cast<std::uint32_t>(h.t_ns);
      }
      if (h.seq >= fragments_total || have_fragment[h.seq]) continue;
      std::size_t expect = kHeaderSize + h.aux * kReportRecordSize;
      if (h.aux > kReportRecordsPerFragment ||
          static_cast<std::size_t>(got) < expect)
        continue;
      have_fragment[h.seq] = true;
      ++fragments_have;
      for (std::uint32_t r = 0; r < h.aux; ++r) {
        ReportRecord rec =
            decode_report_record(buf + kHeaderSize + r * kReportRecordSize);
        if (rec.seq >= result.packets.size()) continue;
        result.packets[rec.seq].lost = false;
        result.packets[rec.seq].received =
            static_cast<sim::SimTime>(rec.recv_ns);
      }
      if (fragments_have == fragments_total) done = true;
    }
  }

  cost_.last_activity = now();
  return result;
}

}  // namespace abw::net
