#include "core/parallel_scenario.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "probe/receiver_state.hpp"
#include "runner/batch.hpp"
#include "stats/rng.hpp"

namespace abw::core {

// Same dedup/reorder semantics as probe::ProbeSession::on_probe, minus
// the receiver clock model: the shared probe::ReceiverState does the
// accounting (duplicates keep the first copy's timestamp, a first arrival
// behind a higher seq counts as reordered).
class ParallelScenario::Receiver final : public sim::PacketHandler {
 public:
  explicit Receiver(sim::Simulator& sim) : sim_(sim) {}

  void begin_stream(probe::StreamResult* r) {
    active_ = r;
    received_ = 0;
    recv_.reset();
  }
  void end_stream() { active_ = nullptr; }
  std::size_t received() const { return received_; }

  void handle(sim::Packet pkt) override {
    if (active_ == nullptr || pkt.type != sim::PacketType::kProbe ||
        pkt.stream_id != active_->stream_id)
      return;
    probe::ProbeRecord* rec = recv_.accept(*active_, pkt.seq);
    if (rec == nullptr) return;
    rec->received = sim_.now();
    ++received_;
  }

 private:
  sim::Simulator& sim_;  // the final domain's simulator (arrival clock)
  probe::StreamResult* active_ = nullptr;
  std::size_t received_ = 0;
  probe::ReceiverState recv_;
};

ParallelScenario::ParallelScenario(const ParallelScenarioConfig& cfg)
    : cfg_(cfg) {
  if (cfg.hop_count == 0)
    throw std::invalid_argument("ParallelScenario: no hops");
  const std::size_t flows = std::max<std::size_t>(1, cfg.flows_per_hop);
  const double hop_load = cfg.cross_rate_bps * static_cast<double>(flows);
  if (hop_load >= cfg.capacity_bps)
    throw std::invalid_argument(
        "ParallelScenario: per-hop cross load must be below capacity");

  sim::LinkConfig link;
  link.capacity_bps = cfg.capacity_bps;
  link.propagation_delay = cfg.propagation_delay;
  link.queue_limit_bytes = cfg.queue_limit_bytes;
  std::vector<sim::LinkConfig> links(cfg.hop_count, link);

  sim::PartitionPlan plan = cfg.cuts.empty()
                                ? sim::plan_partition(links, cfg.domains)
                                : sim::plan_from_cuts(links, cfg.cuts);
  // One window size for EVERY partition of this uniform topology (each
  // cut's latency equals the hop delay, so this never exceeds the plan's
  // lookahead).  run_until_condition stops at a window boundary; a
  // partition-dependent window would shift the next stream's start time
  // and break cut invariance.
  if (cfg.propagation_delay > 0) plan.lookahead = cfg.propagation_delay;
  ppath_ = std::make_unique<sim::ParallelPath>(links, plan, cfg.threads);

  std::vector<std::size_t> loaded = cfg.loaded_hops;
  if (loaded.empty())
    for (std::size_t h = 0; h < cfg.hop_count; ++h) loaded.push_back(h);

  CrossSpec spec;
  spec.model = cfg.model;
  spec.packet_size = cfg.cross_packet_size;
  spec.capacity_bps = cfg.capacity_bps;
  for (std::size_t hop : loaded) {
    if (hop >= cfg.hop_count)
      throw std::invalid_argument("ParallelScenario: loaded hop out of range");
    const std::size_t d = plan.domain_of(hop);
    sim::Domain& dom = ppath_->domain(d);
    const std::size_t local = hop - plan.domain_begin(d);
    // Seeds are a function of the GLOBAL hop (and flow) index only, so
    // every legal partition builds the identical traffic process.
    const std::uint64_t hop_seed = runner::derive_seed(cfg.seed, hop);
    const std::uint32_t base_id =
        1000 + static_cast<std::uint32_t>(hop * flows);
    if (cfg.mode == sim::SimMode::kHybrid) {
      // One aggregate fluid source models the superposition (exact in
      // distribution for Poisson) — the one-fluid-source-per-link envelope.
      spec.rate_bps = hop_load;
      cross_.attach(dom.simulator(), dom.path(), local, /*one_hop=*/true,
                    base_id, stats::Rng(hop_seed), cfg.mode, spec, 0,
                    cfg.traffic_horizon);
    } else {
      spec.rate_bps = cfg.cross_rate_bps;
      for (std::size_t f = 0; f < flows; ++f)
        cross_.attach(dom.simulator(), dom.path(), local, /*one_hop=*/true,
                      base_id + static_cast<std::uint32_t>(f),
                      stats::Rng(runner::derive_seed(hop_seed, f)), cfg.mode,
                      spec, 0, cfg.traffic_horizon);
    }
  }

  receiver_ = std::make_unique<Receiver>(
      ppath_->domain(ppath_->domain_count() - 1).simulator());
  ppath_->set_receiver(receiver_.get());
  nominal_avail_bw_ = cfg.capacity_bps - hop_load;
  ppath_->run_until(cfg.warmup);
}

ParallelScenario::~ParallelScenario() = default;

probe::StreamResult ParallelScenario::send_periodic_stream(
    double rate_bps, std::uint32_t size, std::size_t count,
    sim::SimTime lead_in) {
  probe::StreamSpec spec = probe::StreamSpec::periodic(rate_bps, size, count);
  const sim::SimTime start = ppath_->now() + lead_in;

  probe::StreamResult result;
  result.stream_id = next_stream_id_++;
  result.packets.resize(spec.packets.size());

  sim::Simulator* sim0 = &ppath_->domain(0).simulator();
  sim::Path* path0 = &ppath_->domain(0).path();
  for (std::size_t i = 0; i < spec.packets.size(); ++i) {
    const probe::ProbePacketSpec& ps = spec.packets[i];
    result.packets[i].seq = static_cast<std::uint32_t>(i);
    result.packets[i].size_bytes = ps.size_bytes;
    result.packets[i].sent = start + ps.offset;
    result.packets[i].lost = true;  // cleared on arrival
    const std::uint32_t sid = result.stream_id;
    const std::uint32_t sz = ps.size_bytes;
    const std::uint32_t seq = static_cast<std::uint32_t>(i);
    sim0->at(start + ps.offset, [sim0, path0, sid, sz, seq] {
      sim::Packet pkt;
      pkt.id = sim0->next_packet_id();
      pkt.type = sim::PacketType::kProbe;
      pkt.measurement = true;  // excluded from cross-traffic ground truth
      pkt.size_bytes = sz;
      pkt.stream_id = sid;
      pkt.seq = seq;
      pkt.send_time = sim0->now();
      path0->inject(0, pkt);
    });
  }

  receiver_->begin_stream(&result);

  // The windowed engine already ends a stream still missing probes
  // exactly at its deadline, in both modes: ProbeSession's hybrid drain
  // rule holds here by construction.
  const sim::SimTime deadline =
      start + spec.packets.back().offset + 2 * sim::kSecond;
  Receiver* rx = receiver_.get();
  ppath_->run_until_condition(deadline,
                              [rx, count] { return rx->received() >= count; });
  receiver_->end_stream();
  return result;
}

void ParallelScenario::snapshot_metrics(obs::MetricsRegistry& m) const {
  for (std::size_t g = 0; g < ppath_->hop_count(); ++g) {
    const sim::Link& link = ppath_->link(g);
    const sim::LinkStats& s = link.stats();
    // Keyed by GLOBAL hop index: per-domain Path names restart at link0.
    const std::string p = "link." + std::to_string(g) + ".";
    m.counter(p + "packets_in").set(s.packets_in);
    m.counter(p + "packets_out").set(s.packets_out);
    m.counter(p + "packets_dropped").set(s.packets_dropped);
    m.counter(p + "bytes_in").set(s.bytes_in);
    m.counter(p + "bytes_out").set(s.bytes_out);
    m.gauge(p + "capacity_bps").set(link.capacity_bps());
  }
  ppath_->snapshot_metrics(m);
}

}  // namespace abw::core
