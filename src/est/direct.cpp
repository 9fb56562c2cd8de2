#include "est/direct.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/moments.hpp"

namespace abw::est {

std::optional<double> direct_probe_equation(double ct_bps, double ri_bps,
                                            double ro_bps) {
  if (ct_bps <= 0.0 || ri_bps <= 0.0 || ro_bps <= 0.0)
    throw std::invalid_argument("direct_probe_equation: rates must be > 0");
  if (ro_bps >= ri_bps) return std::nullopt;  // stream did not congest the link
  return ct_bps - ri_bps * (ct_bps / ro_bps - 1.0);
}

DirectProber::DirectProber(const DirectConfig& cfg) : cfg_(cfg) {
  if (cfg.tight_capacity_bps <= 0.0)
    throw std::invalid_argument("DirectProber: tight_capacity_bps required");
  if (cfg_.input_rate_bps <= 0.0)
    cfg_.input_rate_bps = 0.8 * cfg_.tight_capacity_bps;
  if (cfg.packet_size == 0 || cfg.stream_duration <= 0 || cfg.stream_count == 0)
    throw std::invalid_argument("DirectProber: bad stream parameters");
}

probe::StreamSpec DirectProber::stream_spec() const {
  // Packet count so the stream spans the configured duration at Ri:
  // (count-1) * gap = duration.
  sim::SimTime gap = sim::transmission_time(cfg_.packet_size, cfg_.input_rate_bps);
  auto count = static_cast<std::size_t>(cfg_.stream_duration / gap) + 1;
  count = std::max<std::size_t>(count, 2);
  return probe::StreamSpec::periodic(cfg_.input_rate_bps, cfg_.packet_size, count);
}

std::optional<double> DirectProber::sample(probe::Transport& transport) {
  probe::StreamResult res = transport.send_stream(stream_spec());
  if (res.lost_count() > res.packets.size() / 10) return std::nullopt;
  double ri = res.input_rate_bps();
  double ro = res.output_rate_bps();
  if (ri <= 0.0 || ro <= 0.0) return std::nullopt;
  // Packet-level granularity makes Ro jitter ~1% around Ri even when the
  // stream never congests the link; Eq. 9 is meaningless there.  Require
  // a clearly reduced output rate before taking the sample.
  if (ro >= 0.99 * ri) return std::nullopt;
  return direct_probe_equation(cfg_.tight_capacity_bps, ri, ro);
}

Estimate DirectProber::do_estimate(probe::Transport& transport) {
  stats::RunningStats acc;
  std::size_t unusable = 0;
  LimitGuard guard(limits_, transport);
  for (std::size_t k = 0; k < cfg_.stream_count; ++k) {
    if (AbortReason r = guard.exceeded(); r != AbortReason::kNone) {
      return abort_estimate(r, name());
    }
    if (auto a = sample(transport)) {
      acc.add(*a);
      decision(transport, "sample", "usable", k, *a, cfg_.input_rate_bps);
      if (cfg_.adaptive) {
        // Re-aim halfway between the sample and Ct: safely above A,
        // well below the needlessly intrusive Ct.
        double target = (std::max(*a, 0.0) + cfg_.tight_capacity_bps) / 2.0;
        cfg_.input_rate_bps = std::clamp(target, 0.1 * cfg_.tight_capacity_bps,
                                         0.98 * cfg_.tight_capacity_bps);
      }
    } else {
      ++unusable;
      decision(transport, "sample", "unusable", k, 0.0, cfg_.input_rate_bps);
      if (cfg_.adaptive) {
        // Stream did not congest the link: Ri was at or below A; push up.
        cfg_.input_rate_bps = std::min(cfg_.input_rate_bps * 1.3,
                                       0.98 * cfg_.tight_capacity_bps);
      }
    }
    transport.wait(cfg_.inter_stream_gap);
  }
  if (acc.count() == 0) {
    Estimate e = Estimate::aborted(
        AbortReason::kInsufficientData,
        "direct: no stream congested the tight link (Ri <= A?)");
    e.diag("samples", 0.0);
    e.diag("unusable", static_cast<double>(unusable));
    return e;
  }
  Estimate e = Estimate::range(acc.mean() - acc.stddev(), acc.mean() + acc.stddev());
  e.detail = "samples=" + std::to_string(acc.count()) +
             " unusable=" + std::to_string(unusable);
  e.diag("samples", static_cast<double>(acc.count()));
  e.diag("unusable", static_cast<double>(unusable));
  return e;
}

}  // namespace abw::est
