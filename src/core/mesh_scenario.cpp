#include "core/mesh_scenario.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "runner/batch.hpp"
#include "stats/trend.hpp"

namespace abw::core {

namespace {

// measure_mesh_pair's search geometry.  Streams per fleet: each rate
// verdict is the majority over this many independent streams.  One stream
// samples the avail-bw process at one instant; a burst there flips its
// verdict, and a flipped verdict early in a binary search is
// unrecoverable.  3 is cheap insurance.
constexpr std::size_t kStreamsPerFleet = 3;
constexpr std::uint32_t kPacketSize = 1500;
// First stream's input rate as a fraction of the route's narrow capacity
// (the search bracket starts at [0, narrow capacity]).
constexpr double kInitialUtilization = 0.85;
constexpr sim::SimTime kInterStreamGap = 20 * sim::kMillisecond;
constexpr sim::SimTime kLeadIn = 1 * sim::kMillisecond;

void check_config(const MeshConfig& cfg) {
  if (cfg.pairs.empty())
    throw std::invalid_argument("MeshScenario: no pairs");
  if (cfg.topology.edge_count() == 0)
    throw std::invalid_argument("MeshScenario: empty topology");
  if (!cfg.edge_cross_rate_bps.empty() &&
      cfg.edge_cross_rate_bps.size() != cfg.topology.edge_count())
    throw std::invalid_argument(
        "MeshScenario: edge_cross_rate_bps size must match edge_count");
}

// Edge e's background source; rate_bps <= 0 leaves the edge idle.
CrossSpec edge_cross_spec(const MeshConfig& cfg, std::size_t e) {
  CrossSpec spec;
  spec.model = cfg.model;
  spec.packet_size = cfg.cross_packet_size;
  spec.capacity_bps = cfg.topology.edge(e).link.capacity_bps;
  spec.rate_bps =
      e < cfg.edge_cross_rate_bps.size() ? cfg.edge_cross_rate_bps[e] : 0.0;
  if (spec.rate_bps >= spec.capacity_bps)
    throw std::invalid_argument("MeshScenario: edge " + std::to_string(e) +
                                " background rate must be below capacity");
  return spec;
}

// Seeded by the GLOBAL edge index only: the traffic process is a pure
// function of (config, seed), independent of pair set or probing.
stats::Rng edge_rng(const MeshConfig& cfg, std::size_t e) {
  return stats::Rng(runner::derive_seed(cfg.seed, e));
}

std::uint32_t edge_flow_id(std::size_t e) {
  return 1000 + static_cast<std::uint32_t>(e);
}

// Pair p's route in `topo`, auto-routed first when none is installed.
const std::vector<std::size_t>& route_of(sim::Topology& topo,
                                         const sim::NodePair& p) {
  if (p.src == p.dst)
    throw std::invalid_argument("MeshScenario: pair with src == dst");
  if (topo.route(p.src, p.dst) == nullptr && !topo.auto_route(p.src, p.dst))
    throw std::invalid_argument("MeshScenario: pair " + std::to_string(p.src) +
                                "->" + std::to_string(p.dst) +
                                " is unreachable");
  return *topo.route(p.src, p.dst);
}

}  // namespace

MeshScenario::MeshScenario(const MeshConfig& cfg)
    : cfg_(cfg), topo_(cfg.topology), pairs_(cfg.pairs) {
  check_config(cfg_);
  routes_.reserve(pairs_.size());
  for (const sim::NodePair& p : pairs_) routes_.push_back(route_of(topo_, p));

  edge_paths_.reserve(topo_.edge_count());
  for (std::size_t e = 0; e < topo_.edge_count(); ++e)
    edge_paths_.push_back(std::make_unique<sim::Path>(
        sim_, std::vector<sim::LinkConfig>{topo_.edge(e).link}));

  for (std::size_t e = 0; e < topo_.edge_count(); ++e) {
    const CrossSpec spec = edge_cross_spec(cfg_, e);
    if (spec.rate_bps <= 0.0) continue;
    cross_.attach(sim_, *edge_paths_[e], 0, /*one_hop=*/true, edge_flow_id(e),
                  edge_rng(cfg_, e), cfg_.mode, spec, 0, cfg_.traffic_horizon);
  }

  sim_.run_until(cfg_.warmup);
}

MeshScenario::~MeshScenario() = default;

Scenario pair_scenario(const MeshConfig& cfg, std::size_t pair) {
  check_config(cfg);
  if (pair >= cfg.pairs.size())
    throw std::invalid_argument("pair_scenario: pair index out of range");
  const sim::NodePair& np = cfg.pairs[pair];
  const std::vector<std::size_t>* route = cfg.topology.route(np.src, np.dst);
  sim::Topology routed;
  if (route == nullptr) {
    routed = cfg.topology;
    route = &route_of(routed, np);
  }

  std::vector<sim::LinkConfig> links;
  links.reserve(route->size());
  for (std::size_t e : *route) links.push_back(cfg.topology.edge(e).link);
  Scenario sc = Scenario::custom(links, cfg.seed);
  // Sources attach in edge-index order, as MeshScenario attaches them, so
  // same-instant events on different hops tie-break identically.
  for (std::size_t e = 0; e < cfg.topology.edge_count(); ++e) {
    const auto hop = std::find(route->begin(), route->end(), e);
    if (hop == route->end()) continue;
    const CrossSpec spec = edge_cross_spec(cfg, e);
    if (spec.rate_bps <= 0.0) continue;
    const auto h = static_cast<std::size_t>(hop - route->begin());
    sc.add_cross_source(
        make_cross_generator(sc.simulator(), sc.path(), h, /*one_hop=*/true,
                             edge_flow_id(e), edge_rng(cfg, e), spec),
        h, /*one_hop=*/true, edge_flow_id(e), cfg.mode, cfg.traffic_horizon);
  }
  sc.simulator().run_until(cfg.warmup);
  return sc;
}

double MeshScenario::edge_cross_avail_bw(std::size_t e, sim::SimTime t1,
                                         sim::SimTime t2) const {
  return edge_paths_.at(e)->cross_avail_bw(t1, t2);
}

double MeshScenario::pair_ground_truth(std::size_t p, sim::SimTime t1,
                                       sim::SimTime t2) const {
  double avail = std::numeric_limits<double>::infinity();
  for (std::size_t e : routes_.at(p))
    avail = std::min(avail, edge_cross_avail_bw(e, t1, t2));
  return avail;
}

std::vector<double> MeshScenario::ground_truth_matrix(sim::SimTime t1,
                                                      sim::SimTime t2) const {
  std::vector<double> matrix(pairs_.size());
  for (std::size_t p = 0; p < pairs_.size(); ++p)
    matrix[p] = pair_ground_truth(p, t1, t2);
  return matrix;
}

void MeshScenario::snapshot_metrics(obs::MetricsRegistry& m) const {
  for (std::size_t e = 0; e < edge_paths_.size(); ++e) {
    const sim::Link& link = edge_paths_[e]->link(0);
    const sim::LinkStats& s = link.stats();
    // Keyed by edge index: per-edge Path link names all restart at link0.
    const std::string p = "edge." + std::to_string(e) + ".";
    m.counter(p + "packets_in").set(s.packets_in);
    m.counter(p + "packets_out").set(s.packets_out);
    m.counter(p + "packets_dropped").set(s.packets_dropped);
    m.counter(p + "bytes_in").set(s.bytes_in);
    m.counter(p + "bytes_out").set(s.bytes_out);
    m.gauge(p + "capacity_bps").set(link.capacity_bps());
  }
  m.counter("sim.events").set(sim_.events_processed());
}

est::MeshMeasurement measure_mesh_pair(const MeshConfig& cfg, std::size_t p,
                                       std::uint64_t seed,
                                       const MeshProbeConfig& probe) {
  MeshConfig replica = cfg;
  replica.seed = seed;
  Scenario sc = pair_scenario(replica, p);
  probe::Transport& transport = sc.transport();

  // Iterative binary rate search a la pathload.  Mesh routes typically
  // cross several comparably loaded links; there the Eq. 9 magnitude
  // under-reads badly (every congested hop adds its own Ro reduction —
  // the paper's multi-hop pitfall), but the OWD-trend verdict "Ri above
  // A?" is hop-count-proof, so the bracket still converges to the
  // end-to-end (Eq. 3 min) avail-bw.
  const double ct = sc.path().narrow_capacity();
  double lo = 0.0;
  double hi = ct;
  double rate = kInitialUtilization * ct;
  std::uint32_t verdicts = 0;
  for (std::size_t k = 0; k < probe.streams; ++k) {
    // Packet count so the stream spans the configured duration at Ri
    // (same geometry as est::DirectProber::stream_spec).
    const sim::SimTime gap = sim::transmission_time(kPacketSize, rate);
    std::size_t count =
        static_cast<std::size_t>(probe.stream_duration / gap) + 1;
    count = std::max<std::size_t>(count, 8);

    // One fleet: the rate's verdict is the majority over independent
    // streams (with drain gaps), because a single stream samples the
    // avail-bw process at one instant and a burst there flips it — and a
    // flipped verdict early in a binary search never recovers.
    std::size_t n_inc = 0, n_non = 0;
    for (std::size_t s = 0; s < kStreamsPerFleet; ++s) {
      if (s > 0) transport.wait(kInterStreamGap);
      const probe::StreamResult res = transport.send_stream(
          probe::StreamSpec::periodic(rate, kPacketSize, count), kLeadIn);
      stats::Trend v;
      if (res.lost_count() > res.packets.size() / 10) {
        // A stream that loses packets wholesale overran the tight link.
        v = stats::Trend::kIncreasing;
      } else {
        v = stats::combined_trend(res.owds_seconds());
      }
      if (v == stats::Trend::kIncreasing) ++n_inc;
      if (v == stats::Trend::kNonIncreasing) ++n_non;
    }
    stats::Trend t = stats::Trend::kAmbiguous;
    if (2 * n_inc > kStreamsPerFleet) t = stats::Trend::kIncreasing;
    if (2 * n_non > kStreamsPerFleet) t = stats::Trend::kNonIncreasing;

    ++verdicts;
    if (t == stats::Trend::kIncreasing) {
      hi = std::min(hi, rate);
    } else if (t == stats::Trend::kNonIncreasing) {
      lo = std::max(lo, rate);
    } else {
      // Grey region: the stream rate sits at the avail-bw process'
      // variation range, so pull both bracket edges toward it.
      const double w = hi - lo;
      lo = std::max(lo, rate - 0.25 * w);
      hi = std::min(hi, rate + 0.25 * w);
    }
    rate = std::clamp(0.5 * (lo + hi), 0.02 * ct, 0.98 * ct);
    transport.wait(kInterStreamGap);
  }

  est::MeshMeasurement out;
  if (verdicts == 0) return out;
  out.valid = true;
  out.samples = verdicts;
  out.low_bps = lo;
  out.high_bps = hi;
  out.avail_bps = 0.5 * (lo + hi);
  return out;
}

est::MeshMeasureFn make_mesh_measure_fn(MeshConfig cfg,
                                        MeshProbeConfig probe) {
  return [cfg = std::move(cfg), probe](std::size_t pair, std::uint64_t seed) {
    return measure_mesh_pair(cfg, pair, seed, probe);
  };
}

namespace {

double lerp_util(double lo, double hi, std::size_t i, std::size_t n) {
  if (n <= 1) return lo;
  return lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
}

}  // namespace

MeshConfig fat_tree_mesh(const FatTreeMeshConfig& cfg) {
  if (cfg.pods == 0 || cfg.hosts_per_pod == 0)
    throw std::invalid_argument("fat_tree_mesh: pods and hosts required");
  if (cfg.pods < 2 && !cfg.include_intra_pod)
    throw std::invalid_argument(
        "fat_tree_mesh: a single pod needs include_intra_pod");

  MeshConfig m;
  sim::Topology& t = m.topology;
  const std::size_t core = t.add_node();

  sim::LinkConfig core_link;
  core_link.capacity_bps = cfg.core_capacity_bps;
  core_link.propagation_delay = cfg.core_delay;
  sim::LinkConfig access_link;
  access_link.capacity_bps = cfg.access_capacity_bps;
  access_link.propagation_delay = cfg.access_delay;

  std::vector<std::size_t> up(cfg.pods), down(cfg.pods);
  std::vector<std::vector<std::size_t>> srcs(cfg.pods), dsts(cfg.pods);
  for (std::size_t i = 0; i < cfg.pods; ++i) {
    const std::size_t agg = t.add_node();
    up[i] = t.add_edge(agg, core, core_link);
    down[i] = t.add_edge(core, agg, core_link);
    for (std::size_t j = 0; j < cfg.hosts_per_pod; ++j) {
      const std::size_t s = t.add_node();
      t.add_edge(s, agg, access_link);
      srcs[i].push_back(s);
    }
    for (std::size_t j = 0; j < cfg.hosts_per_pod; ++j) {
      const std::size_t d = t.add_node();
      t.add_edge(agg, d, access_link);
      dsts[i].push_back(d);
    }
  }

  // Uplinks markedly hotter than downlinks: every inter-pod pair
  // bottlenecks at its source pod's uplink, while the narrow uplink
  // utilization spread keeps inference error bounded when a measured
  // path's down edge was bounded through a differently loaded pod.
  m.edge_cross_rate_bps.assign(t.edge_count(), 0.0);
  for (std::size_t i = 0; i < cfg.pods; ++i) {
    m.edge_cross_rate_bps[up[i]] =
        lerp_util(cfg.uplink_util_min, cfg.uplink_util_max, i, cfg.pods) *
        cfg.core_capacity_bps;
    m.edge_cross_rate_bps[down[i]] =
        lerp_util(cfg.downlink_util_min, cfg.downlink_util_max, i, cfg.pods) *
        cfg.core_capacity_bps;
  }

  for (std::size_t si = 0; si < cfg.pods; ++si)
    for (std::size_t sj = 0; sj < cfg.hosts_per_pod; ++sj)
      for (std::size_t di = 0; di < cfg.pods; ++di) {
        if (si == di && !cfg.include_intra_pod) continue;
        for (std::size_t dj = 0; dj < cfg.hosts_per_pod; ++dj)
          m.pairs.push_back({srcs[si][sj], dsts[di][dj]});
      }

  m.mode = cfg.mode;
  m.model = cfg.model;
  m.cross_packet_size = cfg.cross_packet_size;
  m.traffic_horizon = cfg.traffic_horizon;
  m.warmup = cfg.warmup;
  m.seed = cfg.seed;
  return m;
}

MeshConfig parking_lot_mesh(const ParkingLotMeshConfig& cfg) {
  if (cfg.backbone_hops < 2)
    throw std::invalid_argument("parking_lot_mesh: need >= 2 backbone hops");
  if (cfg.sources == 0 || cfg.sinks == 0)
    throw std::invalid_argument("parking_lot_mesh: sources and sinks required");

  MeshConfig m;
  sim::Topology& t = m.topology;
  const std::size_t b0 = t.add_nodes(cfg.backbone_hops + 1);

  sim::LinkConfig backbone;
  backbone.capacity_bps = cfg.backbone_capacity_bps;
  backbone.propagation_delay = cfg.backbone_delay;
  sim::LinkConfig access_link;
  access_link.capacity_bps = cfg.access_capacity_bps;
  access_link.propagation_delay = cfg.access_delay;

  std::vector<std::size_t> chain(cfg.backbone_hops);
  for (std::size_t h = 0; h < cfg.backbone_hops; ++h)
    chain[h] = t.add_edge(b0 + h, b0 + h + 1, backbone);

  // Sources attach over the head half of the chain, sinks over the tail
  // half, so every pair's route is a contiguous backbone segment and
  // different pairs bottleneck at different chain links.
  const std::size_t half = cfg.backbone_hops / 2;  // >= 1
  std::vector<std::size_t> src_nodes, dst_nodes;
  for (std::size_t i = 0; i < cfg.sources; ++i) {
    const std::size_t s = t.add_node();
    t.add_edge(s, b0 + (i % half), access_link);
    src_nodes.push_back(s);
  }
  for (std::size_t j = 0; j < cfg.sinks; ++j) {
    const std::size_t d = t.add_node();
    t.add_edge(b0 + cfg.backbone_hops - (j % half), d, access_link);
    dst_nodes.push_back(d);
  }

  m.edge_cross_rate_bps.assign(t.edge_count(), 0.0);
  for (std::size_t h = 0; h < cfg.backbone_hops; ++h)
    m.edge_cross_rate_bps[chain[h]] =
        lerp_util(cfg.util_min, cfg.util_max, h, cfg.backbone_hops) *
        cfg.backbone_capacity_bps;

  for (std::size_t i = 0; i < cfg.sources; ++i)
    for (std::size_t j = 0; j < cfg.sinks; ++j)
      m.pairs.push_back({src_nodes[i], dst_nodes[j]});

  m.mode = cfg.mode;
  m.model = cfg.model;
  m.cross_packet_size = cfg.cross_packet_size;
  m.traffic_horizon = cfg.traffic_horizon;
  m.warmup = cfg.warmup;
  m.seed = cfg.seed;
  return m;
}

}  // namespace abw::core
