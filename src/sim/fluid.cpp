#include "sim/fluid.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "sim/link.hpp"

namespace abw::sim {

namespace {
// Minimum remaining arrivals before the vectorized bulk path is worth its
// precompute pass; short tails go through the scalar loop unchanged.
constexpr std::size_t kBulkThreshold = 16;
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

std::size_t FluidQueue::bulk_retire(const SimTime* times,
                                    const std::uint32_t* sizes, std::size_t i,
                                    std::size_t n, SimTime record_until,
                                    bool tapped, std::uint64_t& d_pkts,
                                    std::uint64_t& d_bytes) {
  const std::size_t len = n - i;
  const SimTime* t = times + i;
  const std::uint32_t* sz = sizes + i;
  const double bps = link_.cfg_.capacity_bps;
  const std::uint64_t limit = link_.cfg_.queue_limit_bytes;

  // Pass 1 (SIMD): per-arrival serialization times.  transmission_time is
  // the exact expression the memoized scalar path caches, so the values —
  // and everything derived from them — are bit-identical.
  vtx_.resize(len);
  SimTime* tx = vtx_.data();
#pragma omp simd
  for (std::size_t k = 0; k < len; ++k) tx[k] = transmission_time(sz[k], bps);

  // Pass 2: unrolled Lindley recurrence.  With TxP[k] = sum of tx before
  // k and A[k] = t[k] - TxP[k], the FIFO departure frontier after serving
  // k is dep[k] = max_{j<=k} A[j] + TxP[k+1] — all integer adds, so the
  // unrolled form reproduces the scalar run_free chain exactly.  Arrival
  // k starts a new busy run iff A[k] >= max_{j<k} A[j] (i.e. t[k] >= the
  // previous frontier).  Runs are retired as their boundary is found; the
  // first run that could drop (bytes > limit) or that ends past the
  // recording horizon stops the bulk path at its start, exactly where the
  // scalar retirement loop would hand over to the per-packet path.
  std::size_t a = 0;           // current run start (local index)
  std::uint64_t run_bytes = 0; // bytes in the current run
  SimTime txp = 0;             // TxP[k]
  SimTime m = 0;               // max A over [0, k)
  SimTime prev_dep = 0;        // dep[k-1]
  std::size_t stop = len;      // where the bulk path hands over

  auto retire = [&](std::size_t b, SimTime run_end) {
    if (run_bytes > limit || run_end > record_until) {
      stop = a;
      return false;
    }
    if (tapped) {
      for (std::size_t k = a; k < b; ++k) {
        Packet pkt;
        pkt.type = PacketType::kCross;
        pkt.size_bytes = sz[k];
        pkt.flow_id = flow_id_;
        pkt.exit_hop = exit_hop_;
        pkt.send_time = t[k];
        link_.tap_(pkt, t[k]);
      }
    }
    d_pkts += b - a;
    d_bytes += run_bytes;
    link_.meter_.add_busy(t[a], run_end, /*measurement=*/false);
    emitted_until_ = run_end;
    free_at_ = run_end;
    bulk_packets_ += b - a;
    return true;
  };

  for (std::size_t k = 0; k < len; ++k) {
    const SimTime aval = t[k] - txp;
    if (k > 0 && aval >= m) {  // boundary: run [a, k) is complete
      if (!retire(k, prev_dep)) break;
      a = k;
      run_bytes = 0;
    }
    if (k == 0 || aval > m) m = aval;
    txp += tx[k];
    prev_dep = m + txp;
    run_bytes += sz[k];
  }
  if (stop == len && !retire(len, prev_dep)) stop = a;
  return i + stop;
}

void FluidQueue::absorb(const SimTime* times, const std::uint32_t* sizes,
                        std::size_t n, SimTime record_until) {
  // Per-chunk, not per-arrival: one branch (null registry) or one clock
  // pair per absorbed chunk of arrivals.
  obs::ScopedTimer timer(link_.sim_.metrics(), "fluid.absorb");
  LinkStats& st = link_.stats_;
  const std::uint64_t limit = link_.cfg_.queue_limit_bytes;
  const bool tapped = static_cast<bool>(link_.tap_);
  // Counter deltas accumulate in locals and flush once: the meter
  // push_back in the loop writes through a pointer the compiler cannot
  // prove distinct from the stats block, which would otherwise force a
  // reload/store of every counter per retired run.
  std::uint64_t d_pkts_in = 0, d_bytes_in = 0;
  std::uint64_t d_pkts_out = 0, d_bytes_out = 0, d_dropped = 0;
  // One bulk attempt per absorb: the vectorized path stops exactly at the
  // first run that could drop or that straddles the horizon, and such a
  // run stays problematic for the rest of the chunk — re-engaging would
  // only re-scan it.
  bool bulk_ok = vectorized_;
  std::size_t i = 0;
  while (i < n) {
    SimTime t = times[i];
    if (head_ != q_.size()) pop_departures(t);
    if (head_ == q_.size() && t >= free_at_ && bulk_ok &&
        n - i >= kBulkThreshold) {
      bulk_ok = false;
      emit_busy(record_until);  // close the previous run (ends <= t)
      std::uint64_t bp = 0, bb = 0;
      i = bulk_retire(times, sizes, i, n, record_until, tapped, bp, bb);
      d_pkts_in += bp;
      d_bytes_in += bb;
      d_pkts_out += bp;
      d_bytes_out += bb;
      if (i == n) break;
      t = times[i];
      // Falls through to the per-packet path for the handed-over arrival,
      // exactly like a scalar retirement-loop break.
    } else if (head_ == q_.size() && t >= free_at_) {
      // Whole-run retirement: an idle, empty server at t starts a fresh
      // busy run — scan forward while each arrival lands before the
      // accumulated departure frontier (the exact FIFO run boundary).  If
      // the run completes before the recording horizon and its total
      // bytes bound the backlog below the drop threshold, nothing can
      // ever observe any of its packets in flight: record the run as one
      // meter interval and batch the counters, with no queue traffic at
      // all.  This is the common case for every workload below saturation
      // and the reason hybrid mode's per-arrival cost is dominated by the
      // generator draw, not the queue integration.  Retired runs chain:
      // after one retires, the next arrival stopped the scan with
      // times[j] >= run_free == free_at_, so it provably starts another
      // run on an empty queue and none of the outer-loop checks (or the
      // then-no-op emit_busy) need repeating.
      emit_busy(record_until);  // close the previous run (ends <= t)
      for (;;) {
        SimTime run_free = t;
        std::uint64_t run_bytes = 0;
        std::size_t j = i;
        bool fits = true;
        while (j < n && (j == i || times[j] < run_free)) {
          if (run_bytes + sizes[j] > limit) {
            fits = false;  // a drop is possible: take the exact path
            break;
          }
          run_bytes += sizes[j];
          run_free = (times[j] > run_free ? times[j] : run_free) +
                     tx_time(sizes[j]);
          ++j;
        }
        if (!fits || run_free > record_until) break;
        // Run straddling the horizon or able to drop breaks to the
        // per-packet path for arrival i (the queue then carries the
        // run's tail exactly).
        if (tapped) {
          for (std::size_t k = i; k < j; ++k) {
            Packet pkt;
            pkt.type = PacketType::kCross;
            pkt.size_bytes = sizes[k];
            pkt.flow_id = flow_id_;
            pkt.exit_hop = exit_hop_;
            pkt.send_time = times[k];
            link_.tap_(pkt, times[k]);
          }
        }
        const std::uint64_t cnt = j - i;
        d_pkts_in += cnt;
        d_bytes_in += run_bytes;
        d_pkts_out += cnt;
        d_bytes_out += run_bytes;
        link_.meter_.add_busy(t, run_free, /*measurement=*/false);
        emitted_until_ = run_free;
        free_at_ = run_free;
        i = j;
        if (i == n) break;
        t = times[i];
      }
      if (i == n) break;
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
