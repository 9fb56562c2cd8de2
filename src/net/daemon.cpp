#include "net/daemon.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <map>
#include <stdexcept>
#include <vector>

#include "net/wire.hpp"
#include "probe/receiver_state.hpp"
#include "probe/stream_result.hpp"

namespace abw::net {

namespace {

std::int64_t realtime_ns() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Streams are bounded to something a report can describe; a count beyond
// this is a malformed (or hostile) header, not a measurement.
constexpr std::uint32_t kMaxStreamPackets = 1u << 20;

bool same_peer(const sockaddr_in& a, const sockaddr_in& b) {
  return a.sin_addr.s_addr == b.sin_addr.s_addr && a.sin_port == b.sin_port;
}

}  // namespace

struct Daemon::Impl {
  struct Stream {
    probe::StreamResult result;
    probe::ReceiverState recv;
  };

  struct Session {
    std::uint64_t id = 0;
    sockaddr_in peer{};
    std::uint64_t budget_packets = 0;  // 0 = unlimited
    std::int64_t deadline_ns = 0;      // 0 = unlimited
    std::int64_t admitted_ns = 0;
    std::int64_t last_activity_ns = 0;
    std::uint64_t packets_seen = 0;
    bool aborted = false;
    AbortCode abort_code = AbortCode::kNone;
    std::map<std::uint32_t, Stream> streams;  // ordered: oldest first
  };

  DaemonConfig cfg;
  int fd = -1;
  bool have_so_timestampns = false;
  std::int64_t epoch_ns = 0;  // CLOCK_REALTIME at construction

  mutable std::mutex mu;  // guards sessions, stats, trace
  std::map<std::uint64_t, Session> sessions;
  std::uint64_t next_session_id = 1;
  DaemonStats stats;
  obs::TraceSink* trace = nullptr;

  unsigned char out[kMaxDatagram];

  ~Impl() {
    if (fd >= 0) ::close(fd);
  }

  std::int64_t now_ns() const { return realtime_ns() - epoch_ns; }

  void emit(std::string_view label, std::string_view text,
            std::uint64_t session_id, std::uint32_t stream_id,
            std::uint64_t count) {
    // mu held by every caller.
    if (trace == nullptr) return;
    obs::TraceEvent e;
    e.kind = obs::EventKind::kDecision;
    e.time = now_ns();
    e.source = "abwd";
    e.label = label;
    e.text = text;
    e.stream_id = stream_id;
    e.count = count;
    e.value = static_cast<double>(session_id);
    trace->emit(e);
  }

  void send_to(const sockaddr_in& peer, const WireHeader& h,
               const unsigned char* payload, std::size_t payload_len) {
    encode_header(h, out);
    if (payload_len > 0 && payload != out + kHeaderSize)
      std::memcpy(out + kHeaderSize, payload, payload_len);
    // Best effort: UDP send failures (ENOBUFS, peer gone) are the same
    // as network loss to the client, which must cope anyway.
    (void)::sendto(fd, out, kHeaderSize + payload_len, 0,
                   reinterpret_cast<const sockaddr*>(&peer), sizeof(peer));
  }

  void send_control(const sockaddr_in& peer, MsgType type,
                    std::uint64_t session_id, AbortCode code) {
    WireHeader h;
    h.type = static_cast<std::uint8_t>(type);
    h.session_id = session_id;
    h.aux = static_cast<std::uint32_t>(code);
    send_to(peer, h, nullptr, 0);
  }

  void on_hello(const sockaddr_in& peer, const WireHeader& h,
                std::int64_t stamp_ns) {
    std::lock_guard<std::mutex> lock(mu);
    if (sessions.size() >= cfg.max_sessions) {
      ++stats.sessions_rejected;
      emit("hello", "reject-full", 0, 0, sessions.size());
      send_control(peer, MsgType::kHelloReject, 0, AbortCode::kSessionsFull);
      return;
    }
    Session s;
    s.id = next_session_id++;
    s.peer = peer;
    s.budget_packets = h.count;
    s.deadline_ns = static_cast<std::int64_t>(h.t_ns);
    s.admitted_ns = stamp_ns;
    s.last_activity_ns = stamp_ns;
    std::uint64_t id = s.id;
    sessions.emplace(id, std::move(s));
    ++stats.sessions_admitted;
    emit("hello", "admit", id, 0, h.count);
    WireHeader ack;
    ack.type = static_cast<std::uint8_t>(MsgType::kHelloAck);
    ack.session_id = id;
    send_to(peer, ack, nullptr, 0);
  }

  // The session `h` names, when `peer` is the address and port that
  // opened it: a session id alone never lets another sender in.
  Session* find_session(const sockaddr_in& peer, const WireHeader& h) {
    auto it = sessions.find(h.session_id);
    if (it == sessions.end() || !same_peer(it->second.peer, peer))
      return nullptr;
    return &it->second;
  }

  // Returns the session for `h`, enforcing the advertised limits; sends
  // the kAbort (once, to the session's peer) and returns nullptr when the
  // session is over budget/deadline, and answers kUnknownSession when
  // `peer` has no such session.  mu held by the caller.
  Session* admit(const sockaddr_in& peer, const WireHeader& h,
                 std::int64_t stamp_ns, std::uint64_t probe_cost) {
    Session* found = find_session(peer, h);
    if (found == nullptr) {
      send_control(peer, MsgType::kAbort, h.session_id,
                   AbortCode::kUnknownSession);
      return nullptr;
    }
    Session& s = *found;
    s.last_activity_ns = stamp_ns;
    if (s.aborted) return nullptr;
    AbortCode code = AbortCode::kNone;
    if (s.deadline_ns > 0 && stamp_ns - s.admitted_ns > s.deadline_ns)
      code = AbortCode::kDeadline;
    s.packets_seen += probe_cost;
    if (code == AbortCode::kNone && s.budget_packets > 0 &&
        s.packets_seen > s.budget_packets)
      code = AbortCode::kProbeBudget;
    if (code != AbortCode::kNone) {
      s.aborted = true;
      s.abort_code = code;
      ++stats.aborts_sent;
      emit("abort", abort_code_name(code), s.id, h.stream_id, s.packets_seen);
      send_control(s.peer, MsgType::kAbort, s.id, code);
      return nullptr;
    }
    return &s;
  }

  // The record of stream `stream_id` of `s`.  A stream seen for the first
  // time starts with every probe lost, and the session then drops its
  // oldest other streams beyond max_streams_kept.  nullptr (counted as
  // malformed) for a count no report can describe.  mu held by the caller.
  Stream* open_stream(Session& s, std::uint32_t stream_id,
                      std::uint32_t count) {
    if (count == 0 || count > kMaxStreamPackets) {
      ++stats.malformed;
      return nullptr;
    }
    auto [it, fresh] = s.streams.try_emplace(stream_id);
    Stream& st = it->second;
    if (fresh) {
      st.result.stream_id = stream_id;
      st.result.packets.resize(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        st.result.packets[i].seq = i;
        st.result.packets[i].lost = true;
      }
      // Never the stream just opened, even when its id is the lowest.
      const std::size_t keep = std::max<std::size_t>(cfg.max_streams_kept, 1);
      while (s.streams.size() > keep)
        s.streams.erase(s.streams.begin() != it ? s.streams.begin()
                                                : std::next(it));
    }
    return &st;
  }

  void on_probe(const sockaddr_in& peer, const WireHeader& h,
                std::size_t datagram_len, std::int64_t stamp_ns) {
    std::lock_guard<std::mutex> lock(mu);
    ++stats.probes_in;
    Session* s = admit(peer, h, stamp_ns, 1);
    if (s == nullptr) return;
    Stream* st = open_stream(*s, h.stream_id, h.count);
    if (st == nullptr) return;
    probe::ProbeRecord* rec = st->recv.accept(st->result, h.seq);
    if (rec == nullptr) return;  // duplicate (counted) or out of range
    rec->size_bytes = static_cast<std::uint32_t>(datagram_len);
    rec->sent = static_cast<sim::SimTime>(h.t_ns);
    rec->received = stamp_ns;
  }

  void on_stream_end(const sockaddr_in& peer, const WireHeader& h,
                     std::int64_t stamp_ns) {
    std::lock_guard<std::mutex> lock(mu);
    Session* s = admit(peer, h, stamp_ns, 0);
    if (s == nullptr) return;
    // A stream whose every probe was lost is opened here, so the client
    // gets a (vacuous) report instead of a timeout.
    Stream* st = open_stream(*s, h.stream_id, h.count);
    if (st == nullptr) return;
    send_report(*s, *st);
  }

  // Sends the full report for `st` to the session's peer: received (seq,
  // stamp) records split into MTU-sized fragments.  A retried kStreamEnd
  // re-enters here and naturally picks up probes that were still in
  // flight the first time.
  void send_report(const Session& s, const Stream& st) {
    std::vector<ReportRecord> records;
    records.reserve(st.result.packets.size());
    for (const probe::ProbeRecord& r : st.result.packets)
      if (!r.lost)
        records.push_back(
            {r.seq, static_cast<std::uint64_t>(r.received)});
    std::size_t fragments =
        records.empty() ? 1
                        : (records.size() + kReportRecordsPerFragment - 1) /
                              kReportRecordsPerFragment;
    std::uint64_t impair =
        (static_cast<std::uint64_t>(st.result.duplicate_count) << 32) |
        st.result.reordered_count;
    for (std::size_t f = 0; f < fragments; ++f) {
      std::size_t begin = f * kReportRecordsPerFragment;
      std::size_t end = std::min(begin + kReportRecordsPerFragment,
                                 records.size());
      WireHeader h;
      h.type = static_cast<std::uint8_t>(MsgType::kReport);
      h.session_id = s.id;
      h.stream_id = st.result.stream_id;
      h.seq = static_cast<std::uint32_t>(f);
      h.count = static_cast<std::uint32_t>(fragments);
      h.aux = static_cast<std::uint32_t>(end - begin);
      h.t_ns = impair;
      encode_header(h, out);
      for (std::size_t i = begin; i < end; ++i)
        encode_report_record(records[i],
                             out + kHeaderSize + (i - begin) * kReportRecordSize);
      (void)::sendto(fd, out,
                     kHeaderSize + (end - begin) * kReportRecordSize, 0,
                     reinterpret_cast<const sockaddr*>(&s.peer),
                     sizeof(s.peer));
    }
    ++stats.reports_sent;
    emit("report", "sent", s.id, st.result.stream_id, records.size());
  }

  void on_bye(const sockaddr_in& peer, const WireHeader& h) {
    std::lock_guard<std::mutex> lock(mu);
    Session* s = find_session(peer, h);
    if (s == nullptr) return;  // unknown here, or not the session's peer
    emit("bye", "closed", s->id, 0, s->packets_seen);
    sessions.erase(s->id);
  }

  void expire_sessions(std::int64_t now) {
    std::lock_guard<std::mutex> lock(mu);
    for (auto it = sessions.begin(); it != sessions.end();) {
      if (now - it->second.last_activity_ns >
          static_cast<std::int64_t>(cfg.idle_timeout)) {
        ++stats.sessions_expired;
        emit("expire", "idle", it->first, 0, 0);
        it = sessions.erase(it);
      } else {
        ++it;
      }
    }
  }

  void handle(const unsigned char* buf, std::size_t len,
              const sockaddr_in& peer, std::int64_t stamp_ns) {
    WireHeader h;
    if (!decode_header(buf, len, &h)) {
      std::lock_guard<std::mutex> lock(mu);
      ++stats.malformed;
      return;
    }
    switch (static_cast<MsgType>(h.type)) {
      case MsgType::kHello: on_hello(peer, h, stamp_ns); break;
      case MsgType::kProbe: on_probe(peer, h, len, stamp_ns); break;
      case MsgType::kStreamEnd: on_stream_end(peer, h, stamp_ns); break;
      case MsgType::kBye: on_bye(peer, h); break;
      default: {
        // Client-bound types arriving here are stray reflections; drop.
        std::lock_guard<std::mutex> lock(mu);
        ++stats.malformed;
        break;
      }
    }
  }

  void loop(std::atomic<bool>& stop_requested) {
    unsigned char buf[kMaxDatagram];
    alignas(cmsghdr) char ctrl[256];
    std::int64_t last_gc = now_ns();
    while (!stop_requested.load(std::memory_order_acquire)) {
      pollfd pfd{fd, POLLIN, 0};
      int n = ::poll(&pfd, 1, 50);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      std::int64_t now = now_ns();
      if (now - last_gc > static_cast<std::int64_t>(sim::kSecond)) {
        expire_sessions(now);
        last_gc = now;
      }
      if (n == 0) continue;
      // Drain everything queued before polling again.
      for (;;) {
        sockaddr_in peer{};
        iovec iov{buf, sizeof(buf)};
        msghdr msg{};
        msg.msg_name = &peer;
        msg.msg_namelen = sizeof(peer);
        msg.msg_iov = &iov;
        msg.msg_iovlen = 1;
        msg.msg_control = ctrl;
        msg.msg_controllen = sizeof(ctrl);
        ssize_t got = ::recvmsg(fd, &msg, MSG_DONTWAIT);
        if (got < 0) break;  // EAGAIN: queue drained
        std::int64_t stamp = 0;
        if (have_so_timestampns) {
          for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr;
               c = CMSG_NXTHDR(&msg, c)) {
            if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SO_TIMESTAMPNS) {
              timespec ts{};
              std::memcpy(&ts, CMSG_DATA(c), sizeof(ts));
              stamp = static_cast<std::int64_t>(ts.tv_sec) * 1000000000 +
                      ts.tv_nsec - epoch_ns;
              break;
            }
          }
        }
        if (stamp == 0) stamp = now_ns();
        {
          std::lock_guard<std::mutex> lock(mu);
          ++stats.datagrams_in;
        }
        handle(buf, static_cast<std::size_t>(got), peer, stamp);
      }
    }
  }
};

Daemon::Daemon(const DaemonConfig& cfg) : impl_(new Impl) {
  impl_->cfg = cfg;
  impl_->epoch_ns = realtime_ns();

  impl_->fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (impl_->fd < 0) {
    delete impl_;
    throw std::runtime_error("abwd: socket() failed");
  }
  int one = 1;
  impl_->have_so_timestampns =
      ::setsockopt(impl_->fd, SOL_SOCKET, SO_TIMESTAMPNS, &one, sizeof(one)) ==
      0;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg.port);
  if (::inet_pton(AF_INET, cfg.bind_host.c_str(), &addr.sin_addr) != 1) {
    delete impl_;
    throw std::runtime_error("abwd: bad bind address " + cfg.bind_host);
  }
  if (::bind(impl_->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    int e = errno;
    delete impl_;
    throw std::runtime_error(std::string("abwd: bind failed: ") +
                             std::strerror(e));
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  ::getsockname(impl_->fd, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);
}

Daemon::~Daemon() {
  stop();
  delete impl_;
}

void Daemon::start() {
  if (running_.load(std::memory_order_acquire)) return;
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] {
    impl_->loop(stop_requested_);
    running_.store(false, std::memory_order_release);
  });
}

void Daemon::stop() {
  stop_requested_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

std::size_t Daemon::active_sessions() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->sessions.size();
}

DaemonStats Daemon::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->stats;
}

void Daemon::set_trace(obs::TraceSink* sink) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->trace = sink;
}

void Daemon::snapshot_metrics(obs::MetricsRegistry& m) const {
  DaemonStats s = stats();
  m.counter("abwd.datagrams_in").set(s.datagrams_in);
  m.counter("abwd.probes_in").set(s.probes_in);
  m.counter("abwd.sessions_admitted").set(s.sessions_admitted);
  m.counter("abwd.sessions_rejected").set(s.sessions_rejected);
  m.counter("abwd.sessions_expired").set(s.sessions_expired);
  m.counter("abwd.aborts_sent").set(s.aborts_sent);
  m.counter("abwd.reports_sent").set(s.reports_sent);
  m.counter("abwd.malformed").set(s.malformed);
  m.gauge("abwd.active_sessions").set(static_cast<double>(active_sessions()));
}

}  // namespace abw::net
