// Network-wide mesh estimation: probe a subset of an M x N path matrix,
// infer the rest through shared bottlenecks.
//
// The blueprint is Thouin, Coates & Rabbat, "Large scale probabilistic
// available bandwidth estimation": in a mesh whose routes overlap, the
// avail-bw of a path is the minimum over its links (the source paper's
// Eq. 3), so measuring a few well-chosen paths constrains many links at
// once and the remaining paths can be *inferred* instead of probed —
// total probing cost sublinear in the number of paths.  The machinery:
//
//  * Measurements bound links from below.  A direct measurement A_m of
//    path m implies A_e >= A_m for every edge e on route(m), and equality
//    holds for (at least) m's bottleneck edge.  Aggregating
//    edge_avail[e] = max over measured m through e of A_m gives the
//    tightest measurement-implied lower bound per edge.
//
//  * Shared-bottleneck inference.  For an unprobed path p,
//    min over e in route(p) of edge_avail[e] is (a) a true lower bound on
//    A_p when every edge of the route is covered by some measurement, and
//    (b) exactly A_p whenever p's bottleneck edge is also the bottleneck
//    of a measured path — the shared-bottleneck assumption.  The reported
//    confidence scores how well those two conditions are met; it is a
//    coverage/support heuristic in [0, 1], NOT a calibrated probability
//    (the source paper's own warning about ranges applies).
//
//  * Probe-set selection is greedy route-overlap cover: repeatedly pick
//    the path covering the most not-yet-covered route edges
//    (deterministic, lowest pair index on ties) until every route edge is
//    covered or the probe budget (`max_probe_fraction` of all pairs) is
//    exhausted.  Heavily-overlapping meshes cover with a handful of
//    probes; disjoint paths degrade gracefully toward probe-everything.
//
// The direct measurements fan out across cores through runner::BatchRunner
// with per-pair seeds derived from the PAIR INDEX (not the submission
// slot), so the full report is bit-identical for any --jobs value and any
// selection outcome.  The estimator is deliberately simulator-agnostic:
// it sees routes as edge-index lists and measurements through a callback,
// so the same inference runs on simulated pairs (core::pair_scenario,
// probed through a probe::Transport) and could take measurements made
// over a live transport unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "runner/batch.hpp"
#include "sim/topology.hpp"

namespace abw::est {

/// Sentinel edge index ("no edge identified").
inline constexpr std::size_t kNoMeshEdge =
    std::numeric_limits<std::size_t>::max();

/// One path of the mesh as the estimator sees it: its route (topology
/// edge indices) and the route's narrow capacity (known infrastructure,
/// like the Ct parameter of direct probing).
struct MeshPathSpec {
  std::vector<std::size_t> edges;
  double narrow_capacity_bps = 0.0;
};

/// Extracts MeshPathSpecs from a topology's installed routes, in pair
/// order.  Throws when a pair has no installed route.
std::vector<MeshPathSpec> make_path_specs(
    const sim::Topology& topo, const std::vector<sim::NodePair>& pairs);

/// Result of directly measuring one path.
struct MeshMeasurement {
  bool valid = false;
  double avail_bps = 0.0;  ///< the point measurement (median of samples)
  double low_bps = 0.0;    ///< smallest per-stream sample behind it
  double high_bps = 0.0;   ///< largest per-stream sample
  std::uint32_t samples = 0;  ///< usable per-stream samples aggregated
};

/// Measures path `pair` under `seed`; must be safe to call concurrently
/// (each invocation owns its own simulation replica / transport session).
using MeshMeasureFn =
    std::function<MeshMeasurement(std::size_t pair, std::uint64_t seed)>;

/// Per-pair outcome: either a direct measurement or an inference.
struct MeshPairEstimate {
  bool valid = false;
  bool measured = false;  ///< true = directly probed, false = inferred
  double estimate_bps = 0.0;
  /// Bracket under the shared-bottleneck assumption: [estimate, narrow
  /// capacity] for inferred pairs, the per-stream sample spread for
  /// measured ones.
  double low_bps = 0.0;
  double high_bps = 0.0;
  /// Coverage/support heuristic in [0, 1] — see the header comment.
  double confidence = 0.0;
  /// Edge the estimate pins as the pair's bottleneck (argmin of the
  /// per-edge bounds), or kNoMeshEdge.
  std::size_t bottleneck_edge = kNoMeshEdge;
};

/// The full mesh resolution.
struct MeshReport {
  std::vector<MeshPairEstimate> pairs;   ///< one per input path, in order
  std::vector<std::size_t> probed;       ///< directly measured pair indices
  std::vector<MeshMeasurement> measurements;  ///< parallel to `probed`
  /// Per-edge measurement-implied lower bound on avail-bw; NaN where no
  /// measured path crosses the edge.  Size = max edge index + 1.
  std::vector<double> edge_avail_bps;
  /// Number of measured paths crossing each edge (inference support).
  std::vector<std::uint32_t> edge_support;
  std::size_t route_edges = 0;    ///< distinct edges appearing in any route
  std::size_t covered_edges = 0;  ///< of those, crossed by a measured path

  double probed_fraction() const {
    return pairs.empty() ? 0.0
                         : static_cast<double>(probed.size()) /
                               static_cast<double>(pairs.size());
  }
};

/// Tuning knobs of the mesh estimator.
struct MeshEstimatorConfig {
  /// Hard cap on directly probed pairs as a fraction of all pairs.
  double max_probe_fraction = 0.30;
  /// Base seed; each probed pair measures under
  /// derive_seed(base_seed, pair_index).
  std::uint64_t base_seed = 1;
};

/// Resolves a whole path mesh from a sublinear number of direct
/// measurements.  Construction fixes the (deterministic) probe set;
/// estimate() runs the measurements and the inference.
class MeshEstimator {
 public:
  MeshEstimator(std::vector<MeshPathSpec> paths, MeshEstimatorConfig cfg);

  /// Greedy route-overlap cover under a probe budget; exposed for tests.
  /// Returned indices are the selection order (greedy ranking).
  static std::vector<std::size_t> select_probe_set(
      const std::vector<MeshPathSpec>& paths, double max_fraction);

  /// The pairs estimate() will probe directly, ascending.
  const std::vector<std::size_t>& probe_set() const { return probe_set_; }

  const std::vector<MeshPathSpec>& paths() const { return paths_; }

  /// Fans the probe set's measurements across `runner` (bit-identical for
  /// any jobs count) and infers every unprobed pair.
  MeshReport estimate(runner::BatchRunner& runner,
                      const MeshMeasureFn& measure) const;

  /// Inference alone, from externally supplied measurements (`results`
  /// parallel to `probed`).  estimate() delegates here; unit tests drive
  /// it with synthetic numbers.  Throws std::invalid_argument when the
  /// sizes differ or a pair index is out of range or repeated.
  MeshReport infer(const std::vector<std::size_t>& probed,
                   const std::vector<MeshMeasurement>& results) const;

 private:
  std::vector<MeshPathSpec> paths_;
  MeshEstimatorConfig cfg_;
  std::vector<std::size_t> probe_set_;  // ascending
};

}  // namespace abw::est
