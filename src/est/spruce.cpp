#include "est/spruce.hpp"

#include <algorithm>
#include <stdexcept>

#include "probe/stream_spec.hpp"
#include "stats/moments.hpp"

namespace abw::est {

Spruce::Spruce(const SpruceConfig& cfg, stats::Rng rng)
    : cfg_(cfg), rng_(std::move(rng)) {
  if (cfg.tight_capacity_bps <= 0.0)
    throw std::invalid_argument("Spruce: tight_capacity_bps required");
  if (cfg.packet_size == 0 || cfg.pair_count == 0 || cfg.mean_pair_gap <= 0)
    throw std::invalid_argument("Spruce: bad parameters");
}

Estimate Spruce::do_estimate(probe::Transport& transport) {
  samples_.clear();
  samples_.reserve(cfg_.pair_count);

  // One long pair-train stream: pairs at rate Ct, exponential spacing.
  // A probe budget trims the train up front (the single stream is the
  // whole measurement, so there is no between-stream point to abort at).
  std::size_t pairs = cfg_.pair_count;
  if (limits_.max_probe_packets > 0)
    pairs = std::min<std::size_t>(
        pairs, static_cast<std::size_t>(limits_.max_probe_packets / 2));
  if (pairs == 0)
    return Estimate::aborted(AbortReason::kProbeBudgetExhausted,
                             "spruce: probe budget below one pair");
  probe::StreamSpec spec = probe::StreamSpec::pair_train(
      cfg_.tight_capacity_bps, cfg_.packet_size, pairs,
      cfg_.mean_pair_gap, rng_);
  probe::StreamResult res = transport.send_stream(spec);

  double gin = sim::to_seconds(
      sim::transmission_time(cfg_.packet_size, cfg_.tight_capacity_bps));

  std::size_t pairs_lost = 0;
  for (std::size_t p = 0; p + 1 < res.packets.size(); p += 2) {
    const probe::ProbeRecord& a = res.packets[p];
    const probe::ProbeRecord& b = res.packets[p + 1];
    if (a.lost || b.lost) {
      ++pairs_lost;
      continue;
    }
    double gout = sim::to_seconds(b.received - a.received);
    double sample = cfg_.tight_capacity_bps * (1.0 - (gout - gin) / gin);
    // Spruce clamps samples into [0, Ct].
    samples_.push_back(std::clamp(sample, 0.0, cfg_.tight_capacity_bps));
  }

  if (samples_.empty()) {
    Estimate e = Estimate::aborted(AbortReason::kInsufficientData,
                                   "spruce: all pairs lost");
    e.diag("pairs_used", 0.0);
    e.diag("pairs_lost", static_cast<double>(pairs_lost));
    return e;
  }
  Estimate e = Estimate::point(stats::mean(samples_));
  e.detail = "pairs=" + std::to_string(samples_.size());
  e.diag("pairs_used", static_cast<double>(samples_.size()));
  e.diag("pairs_lost", static_cast<double>(pairs_lost));
  return e;
}

}  // namespace abw::est
