#include "traffic/trace_replay.hpp"

#include <limits>
#include <stdexcept>

namespace abw::traffic {

namespace {
// Gap returned once the trace is exhausted: far enough past any horizon
// to end the active window, small enough that now + gap cannot overflow
// SimTime (now is bounded by experiment horizons, ~1e12 ns).
constexpr sim::SimTime kPastHorizon =
    std::numeric_limits<sim::SimTime>::max() / 4;
}  // namespace

TraceGenerator::TraceGenerator(sim::Simulator& sim, sim::Path& path,
                               std::size_t entry_hop, bool one_hop,
                               std::uint32_t flow_id,
                               std::vector<ReplayRecord> records)
    : Generator(sim, path, entry_hop, one_hop, flow_id, stats::Rng(0)),
      records_(std::move(records)) {
  for (std::size_t i = 1; i < records_.size(); ++i)
    if (records_[i].at < records_[i - 1].at)
      throw std::invalid_argument("TraceGenerator: unsorted trace");
}

sim::SimTime TraceGenerator::next_gap(stats::Rng&, sim::SimTime now) {
  if (cursor_ == records_.size()) return kPastHorizon;
  // `now` is the previous arrival time in both consumption paths, so the
  // gap reconstructs the record's absolute timestamp exactly.  A record
  // at or before `now` (only possible for records preceding t0) keeps
  // time monotone by collapsing the gap to zero.
  sim::SimTime gap = records_[cursor_].at - now;
  return gap > 0 ? gap : 0;
}

std::uint32_t TraceGenerator::next_size(stats::Rng&) {
  return records_[cursor_++].size_bytes;
}

std::size_t TraceGenerator::fill(ArrivalChunk& out, std::size_t max_arrivals) {
  if (!pull_armed())
    throw std::logic_error("Generator::fill before begin_stream");
  const sim::SimTime t1 = pull_end();
  sim::SimTime prev = pull_cursor();
  std::size_t n = 0;
  while (n < max_arrivals) {
    if (cursor_ == records_.size()) {
      finish_pull();  // base loop: exhausted gap lands past t1
      break;
    }
    const ReplayRecord& rec = records_[cursor_];
    // max(prev, at): the base path's clamped gap, reconstructing the
    // record time except for pre-t0 records, which emit at t0.
    const sim::SimTime t = rec.at > prev ? rec.at : prev;
    if (t >= t1) {
      finish_pull();
      break;
    }
    out.push_back(t, rec.size_bytes);
    advance_pull(t, rec.size_bytes);
    prev = t;
    ++cursor_;
    ++n;
  }
  return n;
}

}  // namespace abw::traffic
