#include "est/bfind.hpp"

#include <stdexcept>
#include <vector>

#include "probe/session.hpp"
#include "probe/stream_spec.hpp"
#include "sim/event_line.hpp"
#include "stats/moments.hpp"

namespace abw::est {

Bfind::Bfind(const BfindConfig& cfg) : cfg_(cfg) {
  if (cfg.initial_rate_bps <= 0.0 || cfg.rate_step_bps <= 0.0 ||
      cfg.max_rate_bps <= cfg.initial_rate_bps)
    throw std::invalid_argument("Bfind: bad rate ramp");
  if (cfg.step_duration <= 0 || cfg.sample_interval <= 0 ||
      cfg.sample_interval * 4 > cfg.step_duration)
    throw std::invalid_argument("Bfind: bad sampling parameters");
}

namespace {

// Mean delay growth between the first and second half of one rate step's
// delay samples, in milliseconds — the "persistent queue build-up" signal
// BFind's per-hop traceroute differencing looks for.
double half_step_growth_ms(const std::vector<double>& d) {
  if (d.size() < 8) return 0.0;
  std::size_t half = d.size() / 2;
  std::vector<double> a(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(half));
  std::vector<double> b(d.begin() + static_cast<std::ptrdiff_t>(half), d.end());
  return stats::mean(b) - stats::mean(a);
}

// One per-hop "traceroute" sample: every hop's current delay, in ms.
struct DelaySample {
  sim::Path* path = nullptr;
  std::vector<std::vector<double>>* delays_ms = nullptr;  // one row per hop
  void operator()() const {
    for (std::size_t h = 0; h < delays_ms->size(); ++h)
      (*delays_ms)[h].push_back(sim::to_millis(path->link(h).current_delay()));
  }
};

}  // namespace

Estimate Bfind::do_estimate(probe::Transport& transport) {
  flagged_hop_ = sim::kEndToEnd;
  // BFind's per-hop "traceroute" instrumentation samples each link's
  // instantaneous queueing delay — a simulator capability.  On a live
  // transport the same growth test runs end-to-end on the probe stream's
  // own OWDs (what the real tool's end-host RTTs degrade to when
  // intermediate hops do not answer): the flagged hop is then always
  // kEndToEnd.
  probe::ProbeSession* session = transport.sim_session();
  std::size_t steps = 0;

  LimitGuard guard(limits_, transport);
  for (double rate = cfg_.initial_rate_bps; rate <= cfg_.max_rate_bps;
       rate += cfg_.rate_step_bps, ++steps) {
    if (AbortReason r = guard.exceeded(); r != AbortReason::kNone) {
      return abort_estimate(r, name());
    }

    auto count = static_cast<std::size_t>(
        sim::to_seconds(cfg_.step_duration) * rate / (cfg_.packet_size * 8.0));
    if (count < 2) count = 2;
    probe::StreamSpec spec =
        probe::StreamSpec::periodic(rate, cfg_.packet_size, count);

    std::uint32_t grown_hop = sim::kEndToEnd;
    double growth_ms = 0.0;
    if (session != nullptr) {
      sim::Simulator& sim = session->simulator();
      sim::Path& path = session->path();
      std::size_t hops = path.hop_count();
      // Line up the per-hop "traceroute" samples for this step, then flood.
      std::vector<std::vector<double>> delays_ms(hops);
      sim::EventLine<DelaySample> samplers(sim);
      sim::SimTime step_start = sim.now() + sim::kMillisecond;
      for (sim::SimTime t = step_start; t < step_start + cfg_.step_duration;
           t += cfg_.sample_interval)
        samplers.push(t, DelaySample{&path, &delays_ms});
      session->send_stream(spec, step_start - sim.now());
      // Ensure all samplers fired even if the stream drained early: the
      // line must be empty before it goes out of scope.
      sim.run_until(step_start + cfg_.step_duration);

      // A hop is flagged when its mean queueing delay in the second half
      // of the step exceeds the first half by the growth threshold: the
      // queue is persistently building at this probing rate.
      for (std::size_t h = 0; h < hops; ++h) {
        double g = half_step_growth_ms(delays_ms[h]);
        if (g > cfg_.growth_threshold_ms) {
          grown_hop = static_cast<std::uint32_t>(h);
          growth_ms = g;
          break;
        }
      }
    } else {
      // Live path: the stream's own OWD series is the delay record.
      probe::StreamResult res = transport.send_stream(spec);
      double g = half_step_growth_ms(res.relative_owds_ms());
      if (g > cfg_.growth_threshold_ms) {
        grown_hop = sim::kEndToEnd;
        growth_ms = g;
      } else {
        grown_hop = sim::kEndToEnd;
        growth_ms = 0.0;
      }
      if (growth_ms <= 0.0) {
        decision(transport, "rate-step", "no-growth", steps, rate);
        continue;
      }
    }

    if (session != nullptr && grown_hop == sim::kEndToEnd) {
      decision(transport, "rate-step", "no-growth", steps, rate);
      continue;
    }

    flagged_hop_ = grown_hop;
    decision(transport, "rate-step", "queue-growth", steps, rate,
             static_cast<double>(grown_hop));
    Estimate e = Estimate::point(rate);
    e.detail = "queue growth at hop " +
               (grown_hop == sim::kEndToEnd ? std::string("end-to-end")
                                            : std::to_string(grown_hop)) +
               " at " + std::to_string(rate / 1e6) + "Mbps";
    e.diag("flagged_hop", grown_hop == sim::kEndToEnd
                              ? static_cast<double>(sim::kEndToEnd)
                              : static_cast<double>(grown_hop));
    e.diag("steps", static_cast<double>(steps + 1));
    return e;
  }
  Estimate e =
      Estimate::invalid("bfind: no hop showed queue growth up to max rate");
  e.diag("flagged_hop", -1.0);
  e.diag("steps", static_cast<double>(steps));
  return e;
}

}  // namespace abw::est
