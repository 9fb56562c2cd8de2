// Packet traces: the (timestamp, size) sequences the paper's Figs. 1 and 6
// are computed from.  A trace can be recorded live off a simulated link or
// synthesized (synthetic_trace.hpp); either way it feeds AvailBwProcess
// for ground-truth avail-bw analysis, and its records() feed
// traffic::TraceGenerator as they are for reuse as a workload.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/link.hpp"
#include "sim/time.hpp"
#include "traffic/trace_replay.hpp"

namespace abw::trace {

/// A time-ordered sequence of packet arrivals at a link of known capacity.
class PacketTrace {
 public:
  /// `capacity_bps` is the capacity of the link the trace was taken at.
  explicit PacketTrace(double capacity_bps);

  /// Appends an arrival; must be in non-decreasing time order.
  void add(sim::SimTime at, std::uint32_t size_bytes);

  const std::vector<traffic::ReplayRecord>& records() const { return records_; }
  double capacity_bps() const { return capacity_bps_; }
  bool empty() const { return records_.empty(); }
  std::size_t size() const { return records_.size(); }

  /// Time bounds of the trace; both 0 when empty.
  sim::SimTime start_time() const { return records_.empty() ? 0 : records_.front().at; }
  sim::SimTime end_time() const { return records_.empty() ? 0 : records_.back().at; }

  /// Total bytes carried.
  std::uint64_t total_bytes() const { return total_bytes_; }

  /// Long-run average utilization of the link implied by the trace.
  double mean_utilization() const;

 private:
  double capacity_bps_;
  std::vector<traffic::ReplayRecord> records_;
  std::uint64_t total_bytes_ = 0;
};

/// Hooks a PacketTrace up to a live simulated link: every arrival at the
/// link is appended to the trace.  Keep the recorder alive for the
/// duration of the simulation.
class LinkTraceRecorder {
 public:
  /// Starts recording arrivals at `link` into an internal trace.  When
  /// `only` is set, records just that packet type — e.g. kCross to build
  /// the offered cross-traffic process undisturbed by probing (arrivals,
  /// unlike transmissions, are not displaced by measurement queueing).
  explicit LinkTraceRecorder(sim::Link& link,
                             std::optional<sim::PacketType> only = std::nullopt);

  const PacketTrace& trace() const { return trace_; }
  PacketTrace take() { return std::move(trace_); }

 private:
  PacketTrace trace_;
};

}  // namespace abw::trace
