// ReceiverState: the one copy of per-stream receive accounting — dedup by
// sequence number, reorder detection against the highest seq seen — shared
// by both receiving endpoints: probe::ProbeSession (simulated paths, mesh
// pairs included) and the live UDP daemon (net/daemon.hpp).
//
// The semantics are ProbeSession::on_probe's, bit-for-bit: a second
// arrival for an already-received seq counts as a duplicate and keeps the
// FIRST copy's timestamp (real receivers dedup by seq the same way); a
// first arrival behind a higher seq counts as reordered.  Before this
// struct the logic lived in three hand-kept copies that had to be fixed
// in lockstep.
#pragma once

#include <cstdint>

#include "probe/stream_result.hpp"

namespace abw::probe {

struct ReceiverState {
  std::int64_t highest_seq_seen = -1;  ///< -1 = nothing received yet

  /// Rearms for a new stream.
  void reset() { highest_seq_seen = -1; }

  /// Applies one arrival of `seq` to `result`.  Returns the packet's
  /// record when this is a first arrival within range — the caller stamps
  /// `received` (against its own clock model) and counts it — or nullptr
  /// when the packet was out of range (ignored) or a duplicate (counted
  /// into result.duplicate_count).  Reorder accounting happens here.
  ProbeRecord* accept(StreamResult& result, std::uint32_t seq) {
    if (seq >= result.packets.size()) return nullptr;
    ProbeRecord& rec = result.packets[seq];
    if (!rec.lost) {
      // Fault-injected (or network) duplicate: the seq already arrived.
      // Count it — the stream is degraded — but keep the first copy.
      ++result.duplicate_count;
      return nullptr;
    }
    rec.lost = false;
    // First arrival behind a higher seq = this packet was reordered.
    if (static_cast<std::int64_t>(seq) < highest_seq_seen)
      ++result.reordered_count;
    else
      highest_seq_seen = static_cast<std::int64_t>(seq);
    return &rec;
  }
};

}  // namespace abw::probe
