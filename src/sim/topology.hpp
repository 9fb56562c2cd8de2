// Topology: a directed graph of capacity/latency edges with a static
// route table — the generalization of the single/multi-hop `Path` shapes
// every experiment used so far.
//
// The paper studies one path at a time; its scale pitfalls
// (intrusiveness, concurrent-measurement distortion) only appear in a
// network-wide setting where M x N source/sink pairs share links.  A
// Topology is pure description: nodes, edges (each carrying the familiar
// LinkConfig), and a validated map from (source, sink) pairs to edge
// sequences.  The runtimes that instantiate simulated links live in
// core: MeshScenario (every edge, background traffic and ground truth)
// and pair_scenario (one pair's route as a probed Scenario); keeping the
// graph here (sim layer) lets the inference layer (est::MeshEstimator)
// reason about route overlap without depending on core.
//
// Determinism contract: routes are stored in a sorted map keyed by
// (source, sink) and auto_route() breaks BFS ties by the lowest edge
// index, so the route table — and everything derived from it (probe-set
// selection, per-pair seeds, the ground-truth matrix layout) — is a pure
// function of construction calls, never of memory layout or hashing.
#pragma once

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "sim/link.hpp"

namespace abw::sim {

/// One directed edge: a simulated link from node `from` to node `to`.
struct TopoEdge {
  std::size_t from = 0;
  std::size_t to = 0;
  LinkConfig link;
};

/// A source->sink pair whose route the topology resolves.
struct NodePair {
  std::size_t src = 0;
  std::size_t dst = 0;

  friend bool operator==(const NodePair&, const NodePair&) = default;
};

/// A directed graph of links plus a static route table.
class Topology {
 public:
  /// Adds one node; returns its id (ids are dense, starting at 0).
  std::size_t add_node();

  /// Adds `n` nodes; returns the first new id.
  std::size_t add_nodes(std::size_t n);

  /// Adds a directed edge from -> to carrying `link`; returns the edge
  /// index.  Both nodes must exist; self-loops are rejected.
  std::size_t add_edge(std::size_t from, std::size_t to,
                       const LinkConfig& link);

  std::size_t node_count() const { return nodes_; }
  std::size_t edge_count() const { return edges_.size(); }
  const TopoEdge& edge(std::size_t i) const { return edges_.at(i); }

  /// Outgoing edge indices of `node`, ascending (BFS expansion order).
  const std::vector<std::size_t>& out_edges(std::size_t node) const {
    return out_edges_.at(node);
  }

  /// Installs the route for (src, dst) as an explicit edge sequence.
  /// Validates the chain: edges[0].from == src, consecutive edges share
  /// their meeting node, the last edge ends at dst, and no edge repeats
  /// (routes are loop-free).  Throws std::invalid_argument otherwise.
  void set_route(std::size_t src, std::size_t dst,
                 std::vector<std::size_t> edges);

  /// Computes and installs the BFS shortest route (fewest edges) from src
  /// to dst, expanding out-edges in ascending index order so ties resolve
  /// to the lexicographically-smallest edge sequence — deterministic by
  /// construction.  Returns false (and installs nothing) when dst is
  /// unreachable.
  bool auto_route(std::size_t src, std::size_t dst);

  /// auto_route for every pair; throws when any pair is unreachable.
  void auto_route_all(const std::vector<NodePair>& pairs);

  /// The installed route for (src, dst), or nullptr.
  const std::vector<std::size_t>* route(std::size_t src,
                                        std::size_t dst) const;

  /// All installed routes, ordered by (src, dst) — deterministic.
  const std::map<std::pair<std::size_t, std::size_t>,
                 std::vector<std::size_t>>&
  routes() const {
    return routes_;
  }

  /// Minimum link capacity along (src, dst)'s installed route — the
  /// route's narrow capacity.  Throws when no route is installed.
  double route_narrow_capacity(std::size_t src, std::size_t dst) const;

  /// Sum of per-edge propagation plus zero-load transmission delay for a
  /// packet of `bytes` along the route — its minimum one-way delay.
  SimTime route_base_owd(std::size_t src, std::size_t dst,
                         std::uint32_t bytes) const;

 private:
  void check_node(std::size_t node, const char* what) const;

  std::size_t nodes_ = 0;
  std::vector<TopoEdge> edges_;
  std::vector<std::vector<std::size_t>> out_edges_;  // per node, ascending
  // Sorted by (src, dst): iteration order is deterministic.
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::size_t>>
      routes_;
};

}  // namespace abw::sim
