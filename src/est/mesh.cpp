#include "est/mesh.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace abw::est {

std::vector<MeshPathSpec> make_path_specs(
    const sim::Topology& topo, const std::vector<sim::NodePair>& pairs) {
  std::vector<MeshPathSpec> specs;
  specs.reserve(pairs.size());
  for (const sim::NodePair& p : pairs) {
    const std::vector<std::size_t>* route = topo.route(p.src, p.dst);
    if (route == nullptr)
      throw std::invalid_argument("make_path_specs: no route for pair " +
                                  std::to_string(p.src) + "->" +
                                  std::to_string(p.dst));
    MeshPathSpec spec;
    spec.edges = *route;
    spec.narrow_capacity_bps = topo.route_narrow_capacity(p.src, p.dst);
    specs.push_back(std::move(spec));
  }
  return specs;
}

MeshEstimator::MeshEstimator(std::vector<MeshPathSpec> paths,
                             MeshEstimatorConfig cfg)
    : paths_(std::move(paths)), cfg_(cfg) {
  for (const MeshPathSpec& p : paths_)
    if (p.edges.empty())
      throw std::invalid_argument("MeshEstimator: path with empty route");
  probe_set_ = select_probe_set(paths_, cfg_.max_probe_fraction);
  std::sort(probe_set_.begin(), probe_set_.end());
}

std::vector<std::size_t> MeshEstimator::select_probe_set(
    const std::vector<MeshPathSpec>& paths, double max_fraction) {
  std::vector<std::size_t> chosen;
  if (paths.empty()) return chosen;

  std::size_t max_edge = 0;
  for (const MeshPathSpec& p : paths)
    for (std::size_t e : p.edges) max_edge = std::max(max_edge, e);
  std::vector<char> covered(max_edge + 1, 0);

  // At least one probe is always allowed; otherwise floor() keeps the
  // promise that probed/pairs <= max_fraction.
  const auto budget = static_cast<std::size_t>(std::max(
      1.0, std::floor(max_fraction * static_cast<double>(paths.size()))));

  std::vector<char> taken(paths.size(), 0);
  while (chosen.size() < budget) {
    std::size_t best = paths.size();
    std::size_t best_gain = 0;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      if (taken[i]) continue;
      std::size_t gain = 0;
      for (std::size_t e : paths[i].edges) gain += covered[e] ? 0 : 1;
      if (gain > best_gain) {  // ties keep the lowest pair index
        best_gain = gain;
        best = i;
      }
    }
    if (best == paths.size()) break;  // every route edge already covered
    taken[best] = 1;
    chosen.push_back(best);
    for (std::size_t e : paths[best].edges) covered[e] = 1;
  }
  return chosen;
}

MeshReport MeshEstimator::estimate(runner::BatchRunner& runner,
                                   const MeshMeasureFn& measure) const {
  // Seed by PAIR index so a pair's measurement is invariant under the
  // selection outcome; index-order assembly makes it --jobs invariant.
  std::vector<MeshMeasurement> results =
      runner.map(probe_set_.size(), [&](std::size_t i) {
        const std::size_t pair = probe_set_[i];
        return measure(pair, runner::derive_seed(cfg_.base_seed, pair));
      });
  return infer(probe_set_, results);
}

MeshReport MeshEstimator::infer(
    const std::vector<std::size_t>& probed,
    const std::vector<MeshMeasurement>& results) const {
  if (probed.size() != results.size())
    throw std::invalid_argument("MeshEstimator::infer: probed/results mismatch");
  std::vector<char> is_probed(paths_.size(), 0);
  for (std::size_t p : probed) {
    if (p >= paths_.size())
      throw std::invalid_argument("MeshEstimator::infer: pair index out of range");
    if (is_probed[p])
      throw std::invalid_argument("MeshEstimator::infer: repeated pair index");
    is_probed[p] = 1;
  }

  MeshReport report;
  report.pairs.resize(paths_.size());
  report.probed = probed;
  report.measurements = results;

  std::size_t max_edge = 0;
  for (const MeshPathSpec& p : paths_)
    for (std::size_t e : p.edges) max_edge = std::max(max_edge, e);
  const std::size_t n_edges = paths_.empty() ? 0 : max_edge + 1;
  report.edge_avail_bps.assign(n_edges,
                               std::numeric_limits<double>::quiet_NaN());
  report.edge_support.assign(n_edges, 0);

  // Pass 1: every valid measurement lower-bounds all edges on its route.
  for (std::size_t k = 0; k < probed.size(); ++k) {
    const MeshMeasurement& m = results[k];
    if (!m.valid || !(m.avail_bps >= 0.0)) continue;
    for (std::size_t e : paths_[probed[k]].edges) {
      double& bound = report.edge_avail_bps[e];
      if (std::isnan(bound) || m.avail_bps > bound) bound = m.avail_bps;
      ++report.edge_support[e];
    }
  }

  std::vector<char> route_edge(n_edges, 0);
  for (const MeshPathSpec& p : paths_)
    for (std::size_t e : p.edges) route_edge[e] = 1;
  for (std::size_t e = 0; e < n_edges; ++e) {
    if (!route_edge[e]) continue;
    ++report.route_edges;
    if (!std::isnan(report.edge_avail_bps[e])) ++report.covered_edges;
  }

  // Pass 2: measured pairs report their measurement; the rest take the
  // min over their route's known edge bounds.
  for (std::size_t k = 0; k < probed.size(); ++k) {
    MeshPairEstimate& est = report.pairs[probed[k]];
    est.measured = true;
    const MeshMeasurement& m = results[k];
    if (m.valid) {
      est.valid = true;
      est.estimate_bps = m.avail_bps;
      est.low_bps = m.low_bps;
      est.high_bps = m.high_bps;
      est.confidence = 1.0;
    }
  }
  for (std::size_t p = 0; p < paths_.size(); ++p) {
    MeshPairEstimate& est = report.pairs[p];
    // An invalid direct measurement falls through to inference: the
    // pair's edges may still be bounded by OTHER measured paths.
    if (est.measured && est.valid) continue;
    const MeshPathSpec& path = paths_[p];
    double min_bound = std::numeric_limits<double>::infinity();
    std::size_t argmin = kNoMeshEdge;
    std::size_t known = 0;
    for (std::size_t e : path.edges) {
      const double bound = report.edge_avail_bps[e];
      if (std::isnan(bound)) continue;
      ++known;
      if (bound < min_bound) {  // ties keep the earliest route edge
        min_bound = bound;
        argmin = e;
      }
    }
    if (known == 0) continue;  // stays invalid, confidence 0
    est.valid = true;
    est.estimate_bps = min_bound;
    est.bottleneck_edge = argmin;
    est.low_bps = min_bound;
    est.high_bps = path.narrow_capacity_bps > 0.0 ? path.narrow_capacity_bps
                                                  : min_bound;
    // Heuristic: full-route coverage scaled by how many independent
    // measurements support the binding edge (k/(k+1) saturates toward 1).
    const double coverage = static_cast<double>(known) /
                            static_cast<double>(path.edges.size());
    const double support = static_cast<double>(report.edge_support[argmin]);
    est.confidence = coverage * (support / (support + 1.0));
  }

  // Measured pairs also get their bottleneck pinned from the edge bounds
  // (the edge their own measurement tightened, by construction).
  for (std::size_t p = 0; p < paths_.size(); ++p) {
    MeshPairEstimate& est = report.pairs[p];
    if (!est.measured || !est.valid) continue;
    double min_bound = std::numeric_limits<double>::infinity();
    std::size_t argmin = kNoMeshEdge;
    for (std::size_t e : paths_[p].edges) {
      const double bound = report.edge_avail_bps[e];
      if (std::isnan(bound)) continue;
      if (bound < min_bound) {
        min_bound = bound;
        argmin = e;
      }
    }
    est.bottleneck_edge = argmin;
  }
  return report;
}

}  // namespace abw::est
