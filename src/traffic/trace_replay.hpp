// Trace replay: inject a recorded (timestamp, size) packet sequence into a
// path hop through TraceGenerator.  Lets any experiment swap a synthetic
// generator for a captured trace with no other changes — the paper's
// "reproducible and controllable conditions" desideratum (Section 4).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "traffic/generator.hpp"

namespace abw::traffic {

/// One packet of a replayable trace.
struct ReplayRecord {
  sim::SimTime at;          ///< injection time (absolute sim time)
  std::uint32_t size_bytes;
};

/// A trace served through the Generator interface, which is what makes a
/// recorded workload usable in BOTH simulation modes: started, it
/// injects packet events like any generator; pulled through
/// begin_stream()/fill(), it feeds a hybrid-mode FluidQueue with zero
/// per-arrival events and zero RNG.
/// Records must be nondecreasing in time and must not precede the
/// activation time t0 (a record before t0 is emitted at t0).
class TraceGenerator final : public Generator {
 public:
  /// The Rng is unused (a trace has no randomness) but keeps the
  /// constructor signature uniform with the synthetic generators.
  TraceGenerator(sim::Simulator& sim, sim::Path& path, std::size_t entry_hop,
                 bool one_hop, std::uint32_t flow_id,
                 std::vector<ReplayRecord> records);

  std::size_t trace_size() const { return records_.size(); }

  /// Copies straight from the record array: the arrivals already exist,
  /// so there is nothing to draw.
  std::size_t fill(ArrivalChunk& out, std::size_t max_arrivals) override;

 private:
  std::vector<ReplayRecord> records_;
  std::size_t cursor_ = 0;  ///< next record fill() serves
};

}  // namespace abw::traffic
