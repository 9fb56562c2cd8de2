#include "sim/fluid.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "sim/link.hpp"

namespace abw::sim {

namespace {
// Popped FIFO entries kept before a busy period's prefix is erased.
constexpr std::size_t kCompactMin = 4096;
}  // namespace

FluidQueue::FluidQueue(Link& link) : link_(link) {}

void FluidQueue::reset(SimTime now) {
  if (head_ != q_.size() || link_.transmitting_ || !link_.queue_.empty())
    throw std::logic_error("FluidQueue::reset: link not idle");
  q_.clear();
  head_ = 0;
  free_at_ = now;
  emitted_until_ = now;
  backlog_bytes_ = 0;
}

void FluidQueue::pop_departures(SimTime t) {
  LinkStats& st = link_.stats_;
  while (head_ < q_.size() && q_[head_].dep <= t) {
    const InFlight& f = q_[head_];
    ++st.packets_out;
    st.bytes_out += f.size;
    backlog_bytes_ -= f.size;
    ++head_;
  }
  if (head_ == q_.size()) {
    if (head_ != 0) {
      q_.clear();
      head_ = 0;
    }
  } else if (head_ >= kCompactMin && 2 * head_ >= q_.size()) {
    // A long busy period (probes keep the server saturated): erase the
    // popped prefix.  At most as many live entries move as were popped,
    // so the cost stays amortized O(1) per packet.
    q_.erase(q_.begin(), q_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void FluidQueue::emit_busy(SimTime upto) {
  SimTime e = upto < free_at_ ? upto : free_at_;
  if (e > emitted_until_) {
    link_.meter_.add_busy(emitted_until_, e, /*measurement=*/false);
    emitted_until_ = e;
  }
}

SimTime FluidQueue::tx_time(std::uint32_t bytes) {
  // Serialization-time memo, same idea as Link's single-entry one but
  // sized for the trimodal packet mixes the workloads use: generators
  // draw from a handful of distinct sizes, so a 4-entry linear scan
  // replaces the double divide in transmission_time() almost always.
  for (std::size_t i = 0; i < tx_memo_used_; ++i)
    if (tx_memo_[i].bytes == bytes) return tx_memo_[i].tx;
  SimTime tx = transmission_time(bytes, link_.cfg_.capacity_bps);
  std::size_t slot = tx_memo_used_ < tx_memo_.size()
                         ? tx_memo_used_++
                         : tx_memo_evict_++ % tx_memo_.size();
  tx_memo_[slot] = {bytes, tx};
  return tx;
}

void FluidQueue::compute_tx(const std::uint32_t* sizes, std::size_t len) {
  // transmission_time is the exact expression the per-packet path's memo
  // caches, so the values — and everything derived from them — are
  // bit-identical.
  const double bps = link_.cfg_.capacity_bps;
  vtx_.resize(len);
  SimTime* tx = vtx_.data();
#pragma omp simd
  for (std::size_t k = 0; k < len; ++k) tx[k] = transmission_time(sizes[k], bps);
}

std::size_t FluidQueue::bulk_retire(const SimTime* times,
                                    const std::uint32_t* sizes,
                                    const SimTime* tx, std::size_t i,
                                    std::size_t n, bool tapped,
                                    std::uint64_t& d_pkts,
                                    std::uint64_t& d_bytes) {
  const std::size_t len = n - i;
  const SimTime* t = times + i;
  const std::uint32_t* sz = sizes + i;
  const std::uint64_t limit = link_.cfg_.queue_limit_bytes;

  // Unrolled Lindley recurrence.  With TxP[k] = sum of tx before k and
  // A[k] = t[k] - TxP[k], the FIFO departure frontier after serving k is
  // dep[k] = max_{j<=k} A[j] + TxP[k+1] — all integer adds, so the
  // unrolled form reproduces the per-packet departure chain exactly.
  // Arrival k starts a new busy run iff A[k] >= max_{j<k} A[j] (i.e. t[k]
  // >= the previous frontier).  Runs are retired as their boundary is
  // found, so every retired run ends by an arrival of this call and
  // therefore by the recording horizon.  A run's bytes only grow, so the
  // first arrival that takes its run past the byte limit (it could drop)
  // stops the scan at the run's start, where the per-packet path takes
  // over.  So does the call's last run: no arrival here ends it, and a
  // later call's first arrivals may join it, so its packets must stay in
  // the FIFO, where their drop-tail test counts its queued bytes.
  std::size_t a = 0;           // current run start (local index)
  std::uint64_t run_bytes = 0; // bytes in the current run
  SimTime txp = 0;             // TxP[k]
  SimTime m = 0;               // max A over [0, k)
  SimTime prev_dep = 0;        // dep[k-1]

  for (std::size_t k = 0; k < len; ++k) {
    const SimTime aval = t[k] - txp;
    if (k > 0 && aval >= m) {  // boundary: run [a, k) is complete
      if (tapped) {
        for (std::size_t j = a; j < k; ++j) {
          Packet pkt;
          pkt.type = PacketType::kCross;
          pkt.size_bytes = sz[j];
          pkt.flow_id = flow_id_;
          pkt.exit_hop = exit_hop_;
          pkt.send_time = t[j];
          link_.tap_(pkt, t[j]);
        }
      }
      d_pkts += k - a;
      d_bytes += run_bytes;
      link_.meter_.add_busy(t[a], prev_dep, /*measurement=*/false);
      emitted_until_ = prev_dep;
      free_at_ = prev_dep;
      bulk_packets_ += k - a;
      a = k;
      run_bytes = 0;
    }
    if (k == 0 || aval > m) m = aval;
    txp += tx[k];
    prev_dep = m + txp;
    run_bytes += sz[k];
    if (run_bytes > limit) break;
  }
  return i + a;
}

void FluidQueue::absorb(const SimTime* times, const std::uint32_t* sizes,
                        std::size_t n, SimTime record_until) {
  // Per-chunk, not per-arrival: one branch (null registry) or one clock
  // pair per absorbed chunk of arrivals.
  obs::ScopedTimer timer(link_.sim_.absorb_timer());
  LinkStats& st = link_.stats_;
  const std::uint64_t limit = link_.cfg_.queue_limit_bytes;
  const bool tapped = static_cast<bool>(link_.tap_);
  // Counter deltas accumulate in locals and flush once: the meter
  // push_back in the loop writes through a pointer the compiler cannot
  // prove distinct from the stats block, which would otherwise force a
  // reload/store of every counter per retired run.
  std::uint64_t d_pkts_in = 0, d_bytes_in = 0;
  std::uint64_t d_pkts_out = 0, d_bytes_out = 0, d_dropped = 0;
  // vtx_[k - tx_from] holds arrival k's serialization time.  One SIMD pass
  // from the first idle point serves every later one, so a chunk with many
  // runs that could drop costs one pass, not one per run.
  std::size_t tx_from = n;
  std::size_t i = 0;
  while (i < n) {
    SimTime t = times[i];
    if (head_ != q_.size()) pop_departures(t);
    if (head_ == q_.size() && t >= free_at_) {
      // Idle point: an empty server at t starts a fresh busy run.  While
      // the next run cannot drop and a later arrival of this call ends
      // it, none of its packets can be observed in flight, so
      // bulk_retire() records it as one meter interval with batched
      // counters and no queue traffic.  This is the common case for every
      // workload below saturation.
      emit_busy(record_until);  // close the previous run (ends <= t)
      if (tx_from == n) {
        tx_from = i;
        compute_tx(sizes + i, n - i);
      }
      std::uint64_t bp = 0, bb = 0;
      i = bulk_retire(times, sizes, vtx_.data() + (i - tx_from), i, n,
                      tapped, bp, bb);
      d_pkts_in += bp;
      d_bytes_in += bb;
      d_pkts_out += bp;
      d_bytes_out += bb;
      // The run at i could drop or is the call's last: the per-packet
      // path below carries it exactly.
      t = times[i];
    }
    const std::uint32_t s = sizes[i];
    ++d_pkts_in;
    d_bytes_in += s;
    if (tapped) {
      Packet pkt;
      pkt.type = PacketType::kCross;
      pkt.size_bytes = s;
      pkt.flow_id = flow_id_;
      pkt.exit_hop = exit_hop_;
      pkt.send_time = t;
      link_.tap_(pkt, t);
    }
    if (backlog_bytes_ + s > limit) {  // same drop-tail test as Link::handle
      ++d_dropped;
      ++i;
      continue;
    }
    if (t >= free_at_) {
      // Server idle at this arrival: the pending busy run ends at
      // free_at_ <= t <= record_until, so it is emitted in full before
      // the idle gap is skipped.  Mid-run arrivals emit nothing — the
      // open run is recorded once, at the next gap or advance(), and
      // add_busy coalescing makes the meter contents identical.
      emit_busy(record_until);
      if (t > emitted_until_) emitted_until_ = t;
      free_at_ = t + tx_time(s);
    } else {
      free_at_ += tx_time(s);
    }
    backlog_bytes_ += s;
    q_.push_back({free_at_, s});
    ++i;
  }
  st.packets_in += d_pkts_in;
  st.bytes_in += d_bytes_in;
  st.packets_out += d_pkts_out;
  st.bytes_out += d_bytes_out;
  st.packets_dropped += d_dropped;
}

void FluidQueue::advance(SimTime t) {
  pop_departures(t);
  emit_busy(t);
}

SimTime FluidQueue::admit(SimTime t, std::uint32_t size_bytes,
                          bool measurement) {
  if (backlog_bytes_ + size_bytes > link_.cfg_.queue_limit_bytes) return -1;
  // Record the cross run ahead of the packet through its end, which may
  // lie past t: nothing else records into this meter, and absorb() never
  // records before emitted_until_.  [emitted_until_, free_at_) is always
  // cross traffic only, since every admitted packet moves both to its
  // departure.
  emit_busy(free_at_);
  const SimTime start = t > free_at_ ? t : free_at_;
  const SimTime dep = start + tx_time(size_bytes);
  link_.meter_.add_busy(start, dep, measurement);
  emitted_until_ = dep;
  free_at_ = dep;
  backlog_bytes_ += size_bytes;
  q_.push_back({dep, size_bytes});
  return dep;
}

}  // namespace abw::sim
