// MeshScenario: a network-wide measurement setup over a sim::Topology
// graph — the generalization of Scenario's two hardwired shapes (one
// path) to M x N source/sink pairs sharing links.  It carries the mesh's
// background traffic and answers ground-truth queries; it sends no
// probes.
//
// Realization: every topology edge becomes its own single-link sim::Path
// on ONE shared Simulator.  Per-edge background traffic is one-hop
// persistent on that path (it exits into the path's cross sink, so the
// familiar hybrid-fluid envelope — one fluid source per link — holds
// edge by edge).
//
// Measurement: a pair's probes only ever cross its route, and every
// edge's traffic is a function of the edge index alone, so
// pair_scenario() rebuilds the route as an ordinary Scenario with the
// same per-edge sources.  A pair is then measured through
// Scenario::transport() like any single path — by measure_mesh_pair's
// rate search or by any registry tool — and its links and ground truth
// bit-match the mesh's route edges (tests/mesh_test.cpp).
//
// Ground truth is the per-pair matrix of Eq. 3 minima over route edges,
// computed from the same UtilizationMeter timelines single-path
// scenarios use; measurement traffic is excluded.
//
// Determinism: edge e's background RNG seeds with
// runner::derive_seed(cfg.seed, e) — a function of the edge index only —
// and the route table is deterministic by Topology's contract, so a
// MeshScenario is bit-reproducible from its config alone.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/scenario.hpp"
#include "est/mesh.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"

namespace abw::core {

/// Parameters of a mesh scenario.
struct MeshConfig {
  /// The graph.  Pairs without an installed route get auto_route()d at
  /// construction (throws when unreachable).
  sim::Topology topology;
  /// The source->sink pairs under study; pair INDEX in this vector is the
  /// mesh-wide identity (estimates, ground truth, measurement seeds).
  std::vector<sim::NodePair> pairs;
  /// Offered background rate per edge, bits/s (empty = every edge idle;
  /// otherwise size must equal topology.edge_count()).  Each loaded edge
  /// carries ONE one-hop source, so kHybrid stays inside the
  /// one-fluid-source-per-link envelope.
  std::vector<double> edge_cross_rate_bps;
  sim::SimMode mode = sim::SimMode::kPacket;
  CrossModel model = CrossModel::kPoisson;
  std::uint32_t cross_packet_size = 1500;
  sim::SimTime traffic_horizon = 600 * sim::kSecond;
  sim::SimTime warmup = 2 * sim::kSecond;
  std::uint64_t seed = 1;
};

/// A simulated mesh's background traffic and ground truth.  Construction
/// starts the traffic and runs the warmup.
class MeshScenario {
 public:
  explicit MeshScenario(const MeshConfig& cfg);
  ~MeshScenario();

  MeshScenario(const MeshScenario&) = delete;
  MeshScenario& operator=(const MeshScenario&) = delete;

  std::size_t pair_count() const { return pairs_.size(); }
  /// The pair's route as topology edge indices.
  const std::vector<std::size_t>& pair_route(std::size_t p) const {
    return routes_.at(p);
  }

  sim::Simulator& simulator() { return sim_; }
  sim::SimTime now() const { return sim_.now(); }
  void run_until(sim::SimTime t) { sim_.run_until(t); }

  /// The simulated path realizing edge `e` (single hop: link(0)).  It
  /// has no end-to-end receiver; set one before injecting such packets.
  sim::Path& edge_path(std::size_t e) { return *edge_paths_.at(e); }
  const sim::Path& edge_path(std::size_t e) const { return *edge_paths_.at(e); }

  /// Measured background avail-bw of edge `e` over [t1, t2), excluding
  /// measurement traffic.
  double edge_cross_avail_bw(std::size_t e, sim::SimTime t1,
                             sim::SimTime t2) const;

  /// Measured ground-truth avail-bw of pair `p` over [t1, t2): Eq. 3's
  /// minimum over its route edges, excluding measurement traffic.
  double pair_ground_truth(std::size_t p, sim::SimTime t1,
                           sim::SimTime t2) const;

  /// The full per-pair ground-truth matrix (flattened, pair order).
  std::vector<double> ground_truth_matrix(sim::SimTime t1,
                                          sim::SimTime t2) const;

  /// Per-edge link counters ("edge.<e>.packets_in", ...) and the
  /// simulator's event count.
  void snapshot_metrics(obs::MetricsRegistry& m) const;

 private:
  MeshConfig cfg_;
  sim::Topology topo_;  // cfg_.topology plus auto-installed routes
  std::vector<sim::NodePair> pairs_;
  std::vector<std::vector<std::size_t>> routes_;  // per pair, edge indices
  sim::Simulator sim_;
  std::vector<std::unique_ptr<sim::Path>> edge_paths_;
  // Background sources; destroyed before the paths they feed.
  CrossTraffic cross_;
};

/// Pair `pair` of `cfg` as a stand-alone Scenario: a path of the route's
/// edge LinkConfigs in route order (auto-routed on a copy of the topology
/// when the pair has no installed route), each loaded edge carrying the
/// one-hop source MeshScenario builds for it, warmed up for cfg.warmup.
/// Its links and ground truth bit-match the mesh's route edges, and it
/// probes through transport() like any Scenario.  nominal_avail_bw() is
/// the route's narrow capacity, as for every custom Scenario.
Scenario pair_scenario(const MeshConfig& cfg, std::size_t pair);

// --- direct measurement of one mesh pair (the MeshEstimator backend) ----

/// Direct-probing parameters for measuring one pair of a mesh.
struct MeshProbeConfig {
  /// Binary-search iterations (one fleet each).  The final bracket width
  /// is roughly narrow_capacity / 2^streams.
  std::size_t streams = 6;
  /// Long enough that a persistent queue ramp dominates the OWD trend
  /// over cross-traffic burst transients (50 ms halves the accuracy on
  /// multi-hop routes; see bench/micro_mesh).
  sim::SimTime stream_duration = 100 * sim::kMillisecond;
};

/// Directly measures pair `p` on pair_scenario(cfg, p) reseeded with
/// `seed`, through its probe::Transport, with an iterative
/// (pathload-style) binary rate search: each stream's OWD series is
/// classified by the PCT/PDT trend tests and the verdict halves the
/// bracket.  Mesh routes cross many similarly loaded links, exactly the
/// regime where the Eq. 9 magnitude under-reads (each congested hop adds
/// distortion — the paper's multi-hop pitfall), while the binary "is Ri
/// above A?" verdict stays correct on any hop count.
/// Returns the bracket midpoint as avail_bps with [low, high] = bracket.
est::MeshMeasurement measure_mesh_pair(const MeshConfig& cfg, std::size_t p,
                                       std::uint64_t seed,
                                       const MeshProbeConfig& probe);

/// The measurement callback est::MeshEstimator fans across cores: each
/// invocation builds its own pair scenario, so calls are safe to run
/// concurrently and bit-reproducible from (pair, seed) alone.
est::MeshMeasureFn make_mesh_measure_fn(MeshConfig cfg, MeshProbeConfig probe);

// --- canonical mesh topologies ------------------------------------------

/// A two-level fat-tree-like datacenter mesh: one core node, `pods`
/// aggregation nodes, and per pod `hosts_per_pod` source hosts plus
/// `hosts_per_pod` sink hosts.  Background load sits on the aggregation
/// up/downlinks with per-link utilizations linearly interpolated across
/// pods, uplinks markedly hotter than downlinks so inter-pod pairs
/// bottleneck at their source pod's uplink (heterogeneous, but with a
/// deterministic tight link per pair).
struct FatTreeMeshConfig {
  std::size_t pods = 4;
  std::size_t hosts_per_pod = 4;
  double core_capacity_bps = 50e6;    ///< aggregation up/downlinks
  double access_capacity_bps = 200e6; ///< host access links (idle)
  double uplink_util_min = 0.50;
  double uplink_util_max = 0.60;
  double downlink_util_min = 0.25;
  double downlink_util_max = 0.30;
  sim::SimTime core_delay = 2 * sim::kMillisecond;
  sim::SimTime access_delay = 1 * sim::kMillisecond;
  /// Include same-pod pairs (their routes skip the core and are idle).
  bool include_intra_pod = false;
  sim::SimMode mode = sim::SimMode::kPacket;
  CrossModel model = CrossModel::kPoisson;
  std::uint32_t cross_packet_size = 1500;
  sim::SimTime traffic_horizon = 600 * sim::kSecond;
  sim::SimTime warmup = 2 * sim::kSecond;
  std::uint64_t seed = 1;
};

MeshConfig fat_tree_mesh(const FatTreeMeshConfig& cfg);

/// An ISP-like parking lot: a directed backbone chain of `backbone_hops`
/// links with per-link utilizations interpolated along the chain;
/// `sources` source hosts attach near the head, `sinks` sink hosts near
/// the tail, so each pair's route is a contiguous backbone segment plus
/// access links and different pairs bottleneck at different chain links.
struct ParkingLotMeshConfig {
  std::size_t backbone_hops = 8;  ///< must be >= 2
  std::size_t sources = 4;
  std::size_t sinks = 4;
  double backbone_capacity_bps = 50e6;
  double access_capacity_bps = 200e6;
  double util_min = 0.30;
  double util_max = 0.60;
  sim::SimTime backbone_delay = 2 * sim::kMillisecond;
  sim::SimTime access_delay = 1 * sim::kMillisecond;
  sim::SimMode mode = sim::SimMode::kPacket;
  CrossModel model = CrossModel::kPoisson;
  std::uint32_t cross_packet_size = 1500;
  sim::SimTime traffic_horizon = 600 * sim::kSecond;
  sim::SimTime warmup = 2 * sim::kSecond;
  std::uint64_t seed = 1;
};

MeshConfig parking_lot_mesh(const ParkingLotMeshConfig& cfg);

}  // namespace abw::core
