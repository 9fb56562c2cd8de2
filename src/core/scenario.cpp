#include "core/scenario.hpp"

#include <stdexcept>

#include "traffic/cbr.hpp"
#include "traffic/fgn_rate.hpp"
#include "traffic/pareto_onoff.hpp"
#include "traffic/poisson.hpp"

namespace abw::core {

const char* to_string(CrossModel m) {
  switch (m) {
    case CrossModel::kCbr: return "CBR";
    case CrossModel::kPoisson: return "Poisson";
    case CrossModel::kParetoOnOff: return "Pareto ON-OFF";
    case CrossModel::kFgn: return "fGn-modulated";
  }
  return "?";
}

Scenario::Scenario(std::uint64_t seed)
    : sim_(std::make_unique<sim::Simulator>()),
      rng_(std::make_unique<stats::Rng>(seed)) {}

std::unique_ptr<traffic::Generator> make_cross_generator(
    sim::Simulator& sim, sim::Path& path, std::size_t hop, bool one_hop,
    std::uint32_t flow_id, stats::Rng rng, const CrossSpec& spec) {
  switch (spec.model) {
    case CrossModel::kCbr:
      return std::make_unique<traffic::CbrGenerator>(
          sim, path, hop, one_hop, flow_id, std::move(rng), spec.rate_bps,
          spec.packet_size);
    case CrossModel::kPoisson: {
      traffic::SizeDistribution sizes =
          spec.trimodal ? traffic::SizeDistribution::internet_mix()
                        : traffic::SizeDistribution::fixed(spec.packet_size);
      return std::make_unique<traffic::PoissonGenerator>(
          sim, path, hop, one_hop, flow_id, std::move(rng), spec.rate_bps,
          std::move(sizes));
    }
    case CrossModel::kParetoOnOff: {
      traffic::ParetoOnOffConfig oc;
      oc.mean_rate_bps = spec.rate_bps;
      oc.peak_rate_bps =
          spec.onoff_peak > 0.0 ? spec.onoff_peak : spec.capacity_bps;
      oc.packet_size = spec.packet_size;
      return std::make_unique<traffic::ParetoOnOffGenerator>(
          sim, path, hop, one_hop, flow_id, std::move(rng), oc);
    }
    case CrossModel::kFgn: {
      // The NLANR-substitute self-similar workload (DESIGN.md) as a live
      // scenario: Poisson arrivals whose intensity is modulated every
      // millisecond by a fractional Gaussian noise series.
      traffic::FgnRateConfig fc;
      fc.mean_rate_bps = spec.rate_bps;
      fc.packet_size = spec.packet_size;
      return std::make_unique<traffic::FgnRateGenerator>(
          sim, path, hop, one_hop, flow_id, std::move(rng), fc);
    }
  }
  throw std::logic_error("make_cross_generator: unknown model");
}

void CrossTraffic::attach(sim::Simulator& sim, sim::Path& path,
                          std::size_t hop, bool one_hop,
                          std::uint32_t flow_id, stats::Rng rng,
                          sim::SimMode mode, const CrossSpec& spec,
                          sim::SimTime t0, sim::SimTime horizon) {
  adopt(sim, path, hop, one_hop, flow_id, mode,
        make_cross_generator(sim, path, hop, one_hop, flow_id, std::move(rng),
                             spec),
        t0, horizon);
}

void CrossTraffic::adopt(sim::Simulator& sim, sim::Path& path,
                         std::size_t hop, bool one_hop, std::uint32_t flow_id,
                         sim::SimMode mode,
                         std::unique_ptr<traffic::Generator> gen,
                         sim::SimTime t0, sim::SimTime horizon) {
  if (mode == sim::SimMode::kHybrid) {
    hybrid_sources_.push_back(std::make_unique<traffic::HybridCrossSource>(
        sim, path, hop, one_hop, flow_id, std::move(gen)));
    hybrid_sources_.back()->start(t0, horizon);
  } else {
    generators_.push_back(std::move(gen));
    generators_.back()->start(t0, horizon);
  }
}

Scenario Scenario::single_hop(const SingleHopConfig& cfg) {
  if (cfg.cross_rate_bps >= cfg.capacity_bps)
    throw std::invalid_argument("Scenario: cross rate must be below capacity");
  Scenario sc(cfg.seed);

  sim::LinkConfig link;
  link.capacity_bps = cfg.capacity_bps;
  link.propagation_delay = cfg.propagation_delay;
  link.queue_limit_bytes = cfg.queue_limit_bytes;
  link.random_loss_prob = cfg.random_loss_prob;
  link.loss_seed = cfg.seed * 131 + 7;
  sc.path_ = std::make_unique<sim::Path>(*sc.sim_, std::vector<sim::LinkConfig>{link});

  if (cfg.cross_rate_bps > 0.0) {
    CrossSpec spec;
    spec.model = cfg.model;
    spec.rate_bps = cfg.cross_rate_bps;
    spec.packet_size = cfg.cross_packet_size;
    spec.trimodal = cfg.trimodal_cross_sizes;
    spec.onoff_peak = cfg.onoff_peak_rate_bps;
    spec.capacity_bps = cfg.capacity_bps;
    sc.cross_.attach(*sc.sim_, *sc.path_, 0, /*one_hop=*/false,
                     /*flow_id=*/1000, sc.rng_->fork(), cfg.mode, spec, 0,
                     cfg.traffic_horizon);
  }

  sc.session_ = std::make_unique<probe::ProbeSession>(*sc.sim_, *sc.path_);
  sc.nominal_avail_bw_ = cfg.capacity_bps - cfg.cross_rate_bps;
  sc.traffic_until_ = cfg.traffic_horizon;
  sc.sim_->run_until(cfg.warmup);
  return sc;
}

Scenario Scenario::multi_hop(const MultiHopConfig& cfg) {
  if (cfg.hop_count == 0) throw std::invalid_argument("Scenario: no hops");
  if (cfg.cross_rate_bps >= cfg.capacity_bps)
    throw std::invalid_argument("Scenario: cross rate must be below capacity");
  Scenario sc(cfg.seed);

  sim::LinkConfig link;
  link.capacity_bps = cfg.capacity_bps;
  link.propagation_delay = cfg.propagation_delay;
  link.queue_limit_bytes = cfg.queue_limit_bytes;
  link.random_loss_prob = cfg.random_loss_prob;
  link.loss_seed = cfg.seed * 131 + 7;
  sc.path_ = std::make_unique<sim::Path>(
      *sc.sim_, std::vector<sim::LinkConfig>(cfg.hop_count, link));

  CrossSpec spec;
  spec.model = cfg.model;
  spec.rate_bps = cfg.cross_rate_bps;
  spec.packet_size = cfg.cross_packet_size;
  spec.capacity_bps = cfg.capacity_bps;
  std::uint32_t flow_id = 1000;
  for (std::size_t hop : cfg.loaded_hops) {
    if (hop >= cfg.hop_count)
      throw std::invalid_argument("Scenario: loaded hop out of range");
    sc.cross_.attach(*sc.sim_, *sc.path_, hop, /*one_hop=*/true, flow_id,
                     sc.rng_->fork(), cfg.mode, spec, 0, cfg.traffic_horizon);
    ++flow_id;
  }

  sc.session_ = std::make_unique<probe::ProbeSession>(*sc.sim_, *sc.path_);
  sc.nominal_avail_bw_ = cfg.capacity_bps - cfg.cross_rate_bps;
  sc.traffic_until_ = cfg.traffic_horizon;
  sc.sim_->run_until(cfg.warmup);
  return sc;
}

void Scenario::add_cross_source(std::unique_ptr<traffic::Generator> gen,
                                std::size_t entry_hop, bool one_hop,
                                std::uint32_t flow_id, sim::SimMode mode,
                                sim::SimTime horizon) {
  cross_.adopt(*sim_, *path_, entry_hop, one_hop, flow_id, mode,
               std::move(gen), sim_->now(), horizon);
  if (horizon > traffic_until_) traffic_until_ = horizon;
}

Scenario Scenario::custom(const std::vector<sim::LinkConfig>& links,
                          std::uint64_t seed) {
  Scenario sc(seed);
  sc.path_ = std::make_unique<sim::Path>(*sc.sim_, links);
  sc.session_ = std::make_unique<probe::ProbeSession>(*sc.sim_, *sc.path_);
  double cap = sc.path_->narrow_capacity();
  sc.nominal_avail_bw_ = cap;
  return sc;
}

void Scenario::set_trace(obs::TraceSink* sink) {
  for (std::size_t h = 0; h < path_->hop_count(); ++h)
    path_->link(h).set_trace(sink);
  session_->set_trace(sink);
}

void Scenario::snapshot_metrics(obs::MetricsRegistry& m) const {
  for (std::size_t h = 0; h < path_->hop_count(); ++h) {
    const sim::Link& link = path_->link(h);
    const sim::LinkStats& s = link.stats();
    const std::string p = "link." + link.name() + ".";
    m.counter(p + "packets_in").set(s.packets_in);
    m.counter(p + "packets_out").set(s.packets_out);
    m.counter(p + "packets_dropped").set(s.packets_dropped);
    m.counter(p + "packets_red_dropped").set(s.packets_red_dropped);
    m.counter(p + "packets_lost").set(s.packets_lost);
    m.counter(p + "packets_ge_lost").set(s.packets_ge_lost);
    m.counter(p + "packets_duplicated").set(s.packets_duplicated);
    m.counter(p + "packets_reordered").set(s.packets_reordered);
    m.counter(p + "capacity_changes").set(s.capacity_changes);
    m.counter(p + "bytes_in").set(s.bytes_in);
    m.counter(p + "bytes_out").set(s.bytes_out);
    m.gauge(p + "capacity_bps").set(link.capacity_bps());
  }
  const probe::ProbeCost& cost = session_->cost();
  m.counter("session.streams").set(cost.streams);
  m.counter("session.packets").set(cost.packets);
  m.counter("session.bytes").set(cost.bytes);
  m.gauge("session.elapsed_s").set(sim::to_seconds(cost.elapsed()));
  m.counter("sim.events").set(sim_->events_processed());
}

double Scenario::recent_ground_truth(sim::SimTime window) const {
  sim::SimTime now = sim_->now();
  if (now <= window) return nominal_avail_bw_;
  return path_->cross_avail_bw(now - window, now);
}

}  // namespace abw::core
