#include "traffic/trace_replay.hpp"

#include <stdexcept>

namespace abw::traffic {

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

std::size_t TraceGenerator::fill(ArrivalChunk& out, std::size_t max_arrivals) {
  if (!pull_armed())
    throw std::logic_error("Generator::fill before begin_stream");
  const sim::SimTime t1 = pull_end();
  sim::SimTime prev = pull_cursor();
  std::size_t n = 0;
  while (n < max_arrivals) {
    if (cursor_ == records_.size()) {
      finish_pull();
      break;
    }
    const ReplayRecord& rec = records_[cursor_];
    // max(prev, at): the record time, except that pre-t0 records emit at
    // t0 so time never runs backwards.
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
