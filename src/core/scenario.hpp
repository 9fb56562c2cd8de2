// Scenario: one self-contained simulated measurement setup — simulator,
// path, cross traffic, and a probing session — with the ground truth
// exposed.  Every experiment in the paper is an instance of one of two
// topologies:
//
//  * single hop: capacity Ct, one cross-traffic source of mean rate Rc,
//    avail-bw A = Ct - Rc (Figs. 2, 3, 5, 7, Table 1);
//  * multi hop: H identical links, each loaded by an independent
//    one-hop-persistent source (enters link i, exits at i+1), so several
//    links tie for the minimum avail-bw (Fig. 4).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "probe/session.hpp"
#include "sim/hybrid.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "traffic/generator.hpp"
#include "traffic/hybrid_source.hpp"
#include "traffic/packet_size.hpp"

namespace abw::core {

/// Cross-traffic models the paper's experiments use.
enum class CrossModel {
  kCbr,          ///< periodic: the fluid-like baseline
  kPoisson,      ///< exponential interarrivals
  kParetoOnOff,  ///< heavy-tailed bursts (shape 1.5, ON 1-10 packets)
  kFgn,          ///< self-similar: fGn-rate-modulated Poisson (Fig. 1 trace)
};

const char* to_string(CrossModel m);

/// Everything one cross-traffic source needs beyond its placement: the
/// arrival model and its parameters.  One struct instead of six loose
/// arguments, so every topology builder reads the same way.
struct CrossSpec {
  CrossModel model = CrossModel::kPoisson;
  double rate_bps = 0.0;
  std::uint32_t packet_size = 1500;
  bool trimodal = false;       ///< Poisson only: 40/576/1500 mix
  double onoff_peak = 0.0;     ///< Pareto ON-OFF only; 0 = capacity
  double capacity_bps = 0.0;   ///< the fed link's capacity (ON-OFF peak cap)
};

/// Builds one cross-traffic generator of `spec` against (sim, path): the
/// factory behind every scenario topology.  `one_hop` selects
/// one-hop-persistent routing.
std::unique_ptr<traffic::Generator> make_cross_generator(
    sim::Simulator& sim, sim::Path& path, std::size_t hop, bool one_hop,
    std::uint32_t flow_id, stats::Rng rng, const CrossSpec& spec);

/// Owns the cross-traffic sources of a scenario and funnels every
/// topology's construction — single-hop, multi-hop, mesh edges, custom
/// pair routes — through ONE factory path: build the generator, then
/// either wrap it in a HybridCrossSource (SimMode::kHybrid) or start it
/// as a discrete event source.  Before this class each scenario carried
/// its own copy of that wrap-or-start branch; mode-handling bugs had to
/// be fixed N times.
class CrossTraffic {
 public:
  /// Builds one source of `spec` on (sim, path, hop) and activates it
  /// over [t0, horizon).  The caller owns seeding policy: `rng` is
  /// consumed as the source's private stream.
  void attach(sim::Simulator& sim, sim::Path& path, std::size_t hop,
              bool one_hop, std::uint32_t flow_id, stats::Rng rng,
              sim::SimMode mode, const CrossSpec& spec, sim::SimTime t0,
              sim::SimTime horizon);

  /// Adopts a caller-built generator (e.g. a traffic::TraceGenerator)
  /// through the same wrap-or-start path.  `gen` must target (sim, path)
  /// and not have been started.
  void adopt(sim::Simulator& sim, sim::Path& path, std::size_t hop,
             bool one_hop, std::uint32_t flow_id, sim::SimMode mode,
             std::unique_ptr<traffic::Generator> gen, sim::SimTime t0,
             sim::SimTime horizon);

  std::size_t source_count() const {
    return generators_.size() + hybrid_sources_.size();
  }

 private:
  std::vector<std::unique_ptr<traffic::Generator>> generators_;
  // Hybrid-mode sources (own their generators).
  std::vector<std::unique_ptr<traffic::HybridCrossSource>> hybrid_sources_;
};

/// Single-hop scenario parameters.  Defaults reproduce the paper's
/// simulation setting: Ct = 50 Mb/s, avail-bw 25 Mb/s.
struct SingleHopConfig {
  double capacity_bps = 50e6;
  double cross_rate_bps = 25e6;
  /// kHybrid integrates the cross traffic as a fluid that probes join
  /// exactly (see sim/hybrid.hpp); kPacket is the event-driven baseline.
  sim::SimMode mode = sim::SimMode::kPacket;
  CrossModel model = CrossModel::kPoisson;
  std::uint32_t cross_packet_size = 1500;
  bool trimodal_cross_sizes = false;  ///< Poisson only: 40/576/1500 mix
  double onoff_peak_rate_bps = 0.0;   ///< Pareto ON-OFF only; 0 = capacity
  sim::SimTime propagation_delay = 1 * sim::kMillisecond;
  std::size_t queue_limit_bytes = 2 << 20;
  double random_loss_prob = 0.0;  ///< per-packet non-congestion loss
  sim::SimTime traffic_horizon = 600 * sim::kSecond;  ///< generator lifetime
  sim::SimTime warmup = 2 * sim::kSecond;
  std::uint64_t seed = 1;
};

/// Multi-hop scenario parameters (Fig. 4).  Every hop has the same
/// capacity; hops listed in `loaded_hops` get an independent one-hop
/// cross source of `cross_rate_bps` (the tight links); others are idle.
struct MultiHopConfig {
  std::size_t hop_count = 5;
  std::vector<std::size_t> loaded_hops = {0, 2, 4};
  double capacity_bps = 50e6;
  double cross_rate_bps = 25e6;
  /// See SingleHopConfig::mode.  Each loaded hop carries exactly one
  /// one-hop source, so the whole topology fits the hybrid envelope.
  sim::SimMode mode = sim::SimMode::kPacket;
  CrossModel model = CrossModel::kPoisson;
  std::uint32_t cross_packet_size = 1500;
  sim::SimTime propagation_delay = 1 * sim::kMillisecond;
  std::size_t queue_limit_bytes = 2 << 20;
  double random_loss_prob = 0.0;  ///< per-packet non-congestion loss, per hop
  sim::SimTime traffic_horizon = 600 * sim::kSecond;
  sim::SimTime warmup = 2 * sim::kSecond;
  std::uint64_t seed = 1;
};

/// A ready-to-probe simulated path.  Construction starts the cross
/// traffic and runs the warmup, so the first probe sees steady state.
class Scenario {
 public:
  /// The paper's canonical single-hop setup.
  static Scenario single_hop(const SingleHopConfig& cfg);

  /// The Fig. 4 multi-bottleneck setup.
  static Scenario multi_hop(const MultiHopConfig& cfg);

  /// A custom path with per-hop link configs and no traffic; add
  /// generators through path()/simulator() directly.
  static Scenario custom(const std::vector<sim::LinkConfig>& links,
                         std::uint64_t seed);

  Scenario(Scenario&&) = default;

  /// Attaches a caller-built generator (e.g. a traffic::TraceGenerator
  /// replaying a recorded workload) as cross traffic on `entry_hop`,
  /// active over [now, horizon).  In kHybrid mode the generator is
  /// wrapped in a HybridCrossSource, exactly as the factory topologies
  /// do; the hybrid validity envelope (one fluid source per link)
  /// is the caller's responsibility.  The generator must have been
  /// constructed against this scenario's simulator() and path() and not
  /// yet started.
  void add_cross_source(std::unique_ptr<traffic::Generator> gen,
                        std::size_t entry_hop, bool one_hop,
                        std::uint32_t flow_id, sim::SimMode mode,
                        sim::SimTime horizon);

  sim::Simulator& simulator() { return *sim_; }
  sim::Path& path() { return *path_; }
  stats::Rng& rng() { return *rng_; }

  /// The probe session over the path: the probe::Transport estimators
  /// take, and the one way to send a simulated stream.
  probe::ProbeSession& transport() { return *session_; }

  /// Configured long-run avail-bw (capacity minus offered cross rate on
  /// the tight link) — the experiment's design value A.
  double nominal_avail_bw() const { return nominal_avail_bw_; }

  /// Time at which the cross-traffic generators go silent.  Experiments
  /// must finish before this or they measure an idle path.
  sim::SimTime traffic_active_until() const { return traffic_until_; }

  /// Measured ground-truth end-to-end avail-bw over [t1, t2) (Eq. 3),
  /// excluding the measurement's own traffic — what an estimator running
  /// in that window should report.
  double ground_truth(sim::SimTime t1, sim::SimTime t2) const {
    return path_->cross_avail_bw(t1, t2);
  }

  /// Measured ground truth over the trailing `window` ending now.
  double recent_ground_truth(sim::SimTime window) const;

  /// Wires `sink` into every layer of the scenario at once: all path
  /// links (packet/busy/fault/capacity events) and the probe session
  /// (stream boundaries).  nullptr detaches.  Tool decision events are
  /// wired separately through ToolOptions::trace /
  /// Estimator::set_observer.  The sink is not owned and must outlive
  /// the scenario (or be detached first).
  void set_trace(obs::TraceSink* sink);

  /// Snapshots the scenario's current state into `m`: per-link counters
  /// ("link.<name>.packets_in", drops, fault accounting, bytes), per-link
  /// capacity gauges, session totals ("session.streams", ...), and the
  /// simulator's event count ("sim.events").  Deterministic for a seeded
  /// run; call at the end of a cell and serialize with
  /// MetricsRegistry::to_json().
  void snapshot_metrics(obs::MetricsRegistry& m) const;

 private:
  Scenario(std::uint64_t seed);

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<stats::Rng> rng_;
  std::unique_ptr<sim::Path> path_;
  // Cross-traffic sources (incl. hybrid wrappers); destroyed before path_.
  CrossTraffic cross_;
  std::unique_ptr<probe::ProbeSession> session_;
  double nominal_avail_bw_ = 0.0;
  sim::SimTime traffic_until_ = 0;
};

}  // namespace abw::core
