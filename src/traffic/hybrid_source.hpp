// A cross-traffic source for hybrid simulation mode.
//
// Wraps a Generator pulled through the chunked arrival-stream API and
// feeds one link's FluidQueue: arrivals are absorbed analytically and
// never become events.  The source does no work on its own schedule.  It
// is pulled up to date on demand: by the link just before each discrete
// packet arrives, by current_delay()/backlog_bytes() queries, and by
// ground-truth queries through Path::sync_hybrid.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "sim/fluid.hpp"
#include "sim/hybrid.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "traffic/arrival_stream.hpp"
#include "traffic/generator.hpp"

namespace abw::traffic {

/// One generator feeding one fluid link.  Owned by the Scenario;
/// registered with the Path and the Link as their sim::HybridAgent.
class HybridCrossSource final : public sim::HybridAgent {
 public:
  /// Same placement parameters as Generator; takes ownership of `gen`
  /// (which must not have been started).  The source feeds
  /// `path.link(entry_hop)` — the hybrid validity envelope is one fluid
  /// source per link.
  HybridCrossSource(sim::Simulator& sim, sim::Path& path,
                    std::size_t entry_hop, bool one_hop,
                    std::uint32_t flow_id, std::unique_ptr<Generator> gen);

  /// Activates the source over [t0, t1): enables the link's fluid
  /// integrator, arms the generator's pull cursor, and registers with the
  /// path.  May be called once, before the simulation advances past t0.
  void start(sim::SimTime t0, sim::SimTime t1);

  // sim::HybridAgent
  void sync(sim::SimTime t) override;

 private:
  /// Arrivals pulled per fill() call.  A sync leaves at most one pull
  /// drawn but not absorbed, and a scenario that ends mid-pull discards
  /// that remainder.  Short pair scenarios absorb only thousands of
  /// arrivals per source, so a large pull wastes draws: the mesh workload
  /// discards 25% of its draws at 4,096, 1.4% at 256 and 0.36% at 64.
  /// Smaller pulls cost more refill calls and absorb() splits: 16 costs
  /// more CPU per mesh pair than 64, and 256 about 3% less but discards
  /// four times the draws (EXPERIMENTS, "Cheaper cross-traffic draws").
  static constexpr std::size_t kChunk = 64;

  void pump(sim::SimTime t);   // absorb arrivals <= t, advance the fluid
  bool refill();               // pull the next chunk; false when stream done

  sim::Simulator& sim_;
  sim::Path& path_;
  std::size_t entry_hop_;
  std::uint32_t flow_id_;
  std::uint32_t exit_hop_;
  std::unique_ptr<Generator> gen_;

  sim::FluidQueue* fq_ = nullptr;

  ArrivalChunk chunk_;
  std::size_t cursor_ = 0;  ///< first not-yet-consumed arrival in chunk_
  bool started_ = false;
};

}  // namespace abw::traffic
