#include "est/igi_ptr.hpp"

#include <cmath>
#include <stdexcept>

#include "probe/stream_spec.hpp"
#include "stats/moments.hpp"

namespace abw::est {

IgiPtr::IgiPtr(const IgiPtrConfig& cfg, IgiPtrFormula formula)
    : cfg_(cfg), formula_(formula) {
  if (cfg.tight_capacity_bps <= 0.0)
    throw std::invalid_argument("IgiPtr: tight_capacity_bps required");
  if (cfg.packets_per_train < 3 || cfg.packet_size == 0)
    throw std::invalid_argument("IgiPtr: bad train geometry");
  if (cfg.gap_step_fraction <= 0.0 || cfg.turning_tolerance <= 0.0)
    throw std::invalid_argument("IgiPtr: bad search parameters");
  if (cfg.repetitions == 0)
    throw std::invalid_argument("IgiPtr: repetitions must be >= 1");
}

Estimate IgiPtr::do_estimate(probe::Transport& transport) {
  last_igi_ = last_ptr_ = 0.0;
  trains_used_ = 0;

  // Bottleneck (back-to-back) gap of the probe packet on the tight link.
  double gb = sim::to_seconds(
      sim::transmission_time(cfg_.packet_size, cfg_.tight_capacity_bps));
  double start_rate = cfg_.initial_rate_bps > 0.0 ? cfg_.initial_rate_bps
                                                  : 0.9 * cfg_.tight_capacity_bps;

  LimitGuard guard(limits_, transport);
  AbortReason abort = AbortReason::kNone;

  // One gap-increasing search: returns true when a turning point was
  // found, filling the per-phase estimates.
  auto search_once = [&](double& igi_out, double& ptr_out) {
    double gi = static_cast<double>(cfg_.packet_size) * 8.0 / start_rate;
    for (std::size_t train = 0; train < cfg_.max_trains;
         ++train, gi += cfg_.gap_step_fraction * gb) {
      if ((abort = guard.exceeded()) != AbortReason::kNone) return false;
      ++trains_used_;
      double rate = static_cast<double>(cfg_.packet_size) * 8.0 / gi;
      probe::StreamSpec spec = probe::StreamSpec::periodic(
          rate, cfg_.packet_size, cfg_.packets_per_train);
      probe::StreamResult res =
          transport.send_stream(spec, 10 * sim::kMillisecond);
      if (res.lost_count() > 0) continue;  // lossy train: keep slowing down

      const auto& pk = res.packets;
      double total_gap = sim::to_seconds(pk.back().received - pk.front().received);
      double avg_go = total_gap / static_cast<double>(pk.size() - 1);
      if (std::abs(avg_go - gi) / gi > cfg_.turning_tolerance) continue;

      // Turning point: compute both estimates from this train.
      double bits = static_cast<double>(pk.size() - 1) * cfg_.packet_size * 8.0;
      ptr_out = bits / total_gap;
      double increased = 0.0, all = 0.0;
      for (std::size_t k = 1; k < pk.size(); ++k) {
        double go = sim::to_seconds(pk[k].received - pk[k - 1].received);
        all += go;
        if (go > gi * (1.0 + cfg_.turning_tolerance)) increased += go - gb;
      }
      double rc = all > 0.0 ? cfg_.tight_capacity_bps * increased / all : 0.0;
      igi_out = cfg_.tight_capacity_bps - rc;
      return true;
    }
    return false;
  };

  std::vector<double> igis, ptrs;
  for (std::size_t phase = 0; phase < cfg_.repetitions; ++phase) {
    double igi = 0.0, ptr = 0.0;
    if (search_once(igi, ptr)) {
      decision(transport, "phase", "turning-point", phase, igi, ptr);
      igis.push_back(igi);
      ptrs.push_back(ptr);
    } else if (abort == AbortReason::kNone) {
      decision(transport, "phase", "no-turning-point", phase, 0.0);
    }
    if (abort != AbortReason::kNone) {
      return abort_estimate(abort, name());
    }
  }
  if (igis.empty()) {
    Estimate e = Estimate::aborted(AbortReason::kInsufficientData,
                                   "igi/ptr: no turning point in any phase");
    e.diag("phases_used", 0.0);
    e.diag("phases", static_cast<double>(cfg_.repetitions));
    e.diag("trains", static_cast<double>(trains_used_));
    return e;
  }

  last_igi_ = stats::median(igis);
  last_ptr_ = stats::median(ptrs);
  double point = formula_ == IgiPtrFormula::kIgi ? last_igi_ : last_ptr_;
  Estimate e = Estimate::point(point);
  e.detail = "phases=" + std::to_string(igis.size()) + "/" +
             std::to_string(cfg_.repetitions) +
             " trains=" + std::to_string(trains_used_);
  e.diag("phases_used", static_cast<double>(igis.size()));
  e.diag("phases", static_cast<double>(cfg_.repetitions));
  e.diag("trains", static_cast<double>(trains_used_));
  e.diag("igi_bps", last_igi_);
  e.diag("ptr_bps", last_ptr_);
  return e;
}

}  // namespace abw::est
