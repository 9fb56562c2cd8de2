// online_tracking — the three streaming estimators tracking a time-varying
// avail-bw process through a mid-run capacity flap, with and without
// Gilbert–Elliott bursty loss.
//
// The paper's Fallacy 1 is treating avail-bw as a constant: A_tau(t) is a
// process, and a one-shot tool answers a question about an interval that
// is over by the time it answers.  This example runs the online trackers
// (est/online/) against a single-hop path whose tight link flaps from
// 50 Mb/s down to 30 Mb/s for 20 s mid-run — the avail-bw steps
// 25 -> 5 -> 25 Mb/s — and reports, per tracker:
//
//   * tracking lag: how long after each step until the belief is back
//     within 30% of the (measured, windowed) ground truth;
//   * RMS tracking error over the whole run;
//   * change points detected (Kalman-family trackers).
//
// Scenario B repeats the flap with bursty loss on the link, the regime in
// which one-shot tools are known to hang or return garbage (the fault
// suite); the online trackers must keep updating and re-converge.
//
//   online_tracking            # both scenarios, all three trackers
//   online_tracking -v         # also dump the per-tick estimate series
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "est/online/adaptive.hpp"
#include "est/online/kalman.hpp"
#include "est/online/online.hpp"
#include "est/online/tcp_rate.hpp"
#include "probe/stream_spec.hpp"
#include "sim/fault.hpp"
#include "tcp/tcp.hpp"

using namespace abw;
using abw::sim::kMillisecond;
using abw::sim::kSecond;
namespace online = abw::est::online;

namespace {

constexpr double kCapacity = 50e6;
constexpr double kCross = 25e6;
constexpr double kFlapCapacity = 30e6;
constexpr sim::SimTime kFlapStart = 20 * kSecond;
constexpr sim::SimTime kFlapLen = 20 * kSecond;
constexpr sim::SimTime kRunEnd = 60 * kSecond;
constexpr sim::SimTime kTick = 500 * kMillisecond;

bool g_verbose = false;

struct Sample {
  double t_s = 0.0;
  double estimate_bps = 0.0;  // NaN while the tracker has no belief
  double truth_bps = 0.0;
};

struct TrackStats {
  double rms_mbps = 0.0;
  double lag_flap_s = -1.0;     // re-convergence after the capacity drop
  double lag_recover_s = -1.0;  // ... and after the recovery
  std::uint64_t updates = 0;
  std::uint64_t change_points = 0;
};

core::Scenario make_scenario(bool bursty_loss) {
  core::SingleHopConfig cfg;
  cfg.capacity_bps = kCapacity;
  cfg.cross_rate_bps = kCross;
  cfg.model = core::CrossModel::kCbr;
  cfg.seed = 7;
  core::Scenario sc = core::Scenario::single_hop(cfg);
  sim::FaultInjector inj(sc.simulator());
  inj.flap(sc.path().link(0), kFlapStart, kFlapLen, kFlapCapacity);
  if (bursty_loss) {
    sim::LinkFaults faults;
    faults.gilbert.p_good_bad = 0.002;  // ~0.7% stationary loss in bursts
    faults.gilbert.p_bad_good = 0.3;
    sc.path().link(0).set_faults(faults);
  }
  return sc;
}

// First tick >= `from` at which the estimate settles within 30% of the
// measured truth, as seconds after `from`; -1 when it never does.
double settle_lag(const std::vector<Sample>& rows, double from_s, double to_s) {
  for (const Sample& r : rows) {
    if (r.t_s < from_s || r.t_s >= to_s) continue;
    if (!std::isfinite(r.estimate_bps)) continue;
    double tol = 0.3 * std::max(r.truth_bps, 2e6);
    if (std::fabs(r.estimate_bps - r.truth_bps) <= tol) return r.t_s - from_s;
  }
  return -1.0;
}

TrackStats summarize(const std::vector<Sample>& rows,
                     const online::OnlineEstimator& tracker,
                     std::uint64_t change_points) {
  if (g_verbose)
    for (const Sample& r : rows)
      std::printf("    t=%5.1f  est=%7.2f Mb/s  truth=%6.2f Mb/s\n", r.t_s,
                  r.estimate_bps / 1e6, r.truth_bps / 1e6);
  TrackStats st;
  double sq = 0.0;
  std::size_t n = 0;
  for (const Sample& r : rows) {
    if (r.t_s < 5.0 || !std::isfinite(r.estimate_bps)) continue;
    double e = (r.estimate_bps - r.truth_bps) / 1e6;
    sq += e * e;
    ++n;
  }
  st.rms_mbps = n > 0 ? std::sqrt(sq / static_cast<double>(n)) : -1.0;
  double flap_s = sim::to_seconds(kFlapStart);
  double recover_s = sim::to_seconds(kFlapStart + kFlapLen);
  st.lag_flap_s = settle_lag(rows, flap_s + 0.5, recover_s);
  st.lag_recover_s =
      settle_lag(rows, recover_s + 0.5, sim::to_seconds(kRunEnd));
  st.updates = tracker.belief().updates;
  st.change_points = change_points;
  return st;
}

// Advances the scenario tick by tick; `on_tick` drives the tracker (sends
// a stream, or nothing for passive tracking) and runs before sampling.
template <typename OnTick>
std::vector<Sample> track(core::Scenario& sc, online::OnlineEstimator& tracker,
                          OnTick on_tick) {
  std::vector<Sample> rows;
  sim::SimTime start = sc.simulator().now();
  for (sim::SimTime t = start + kTick; t <= start + kRunEnd; t += kTick) {
    on_tick();
    sc.simulator().run_until(t);
    Sample r;
    r.t_s = sim::to_seconds(t - start);
    r.estimate_bps = tracker.belief().estimate_bps;
    r.truth_bps = sc.ground_truth(t - kTick, t);
    rows.push_back(r);
  }
  return rows;
}

TrackStats run_kalman(bool bursty) {
  core::Scenario sc = make_scenario(bursty);
  online::KalmanTracker tracker;
  // Fixed rate cycle straddling the knee in both regimes (A is 25 then 5
  // Mb/s): every rate stays above the flapped avail-bw, most above both.
  const double rates[4] = {30e6, 40e6, 50e6, 60e6};
  int i = 0;
  auto rows = track(sc, tracker, [&] {
    auto res = sc.transport().send_stream(
        probe::StreamSpec::periodic(rates[i++ % 4], 1200, 60));
    tracker.feed(res);
  });
  return summarize(rows, tracker, tracker.change_points());
}

TrackStats run_tcp(bool bursty) {
  core::Scenario sc = make_scenario(bursty);
  tcp::TcpReceiverHub hub;
  sc.transport().demux().register_handler(sim::PacketType::kTcpData, &hub);
  tcp::TcpConfig tcfg;
  tcfg.measurement_flow = true;  // excluded from the ground-truth meter
  tcp::TcpConnection conn(sc.simulator(), sc.path(), hub, 9001, tcfg);
  online::TcpDeliveryRateTracker tracker;
  tracker.attach(conn);
  conn.start(sc.simulator().now() + 10 * kMillisecond);
  auto rows = track(sc, tracker, [] {});  // passive: ACK clock drives it
  return summarize(rows, tracker, 0);
}

TrackStats run_adaptive(bool bursty) {
  core::Scenario sc = make_scenario(bursty);
  online::AdaptiveProber prober;
  auto rows = track(sc, prober, [&] { prober.step(sc.transport()); });
  return summarize(rows, prober, prober.tracker().change_points());
}

void print_row(const char* scenario, const char* tracker,
               const TrackStats& st) {
  auto lag = [](double v) {
    return v < 0 ? std::string("   n/a") : [&] {
      char buf[16];
      std::snprintf(buf, sizeof buf, "%5.1fs", v);
      return std::string(buf);
    }();
  };
  std::printf("  %-10s %-9s rms %6.2f Mb/s   lag(drop) %s   lag(recover) %s"
              "   updates %4llu   change-points %llu\n",
              scenario, tracker, st.rms_mbps, lag(st.lag_flap_s).c_str(),
              lag(st.lag_recover_s).c_str(),
              static_cast<unsigned long long>(st.updates),
              static_cast<unsigned long long>(st.change_points));
}

}  // namespace

int main(int argc, char** argv) {
  g_verbose = argc > 1 && std::string(argv[1]) == "-v";
  std::printf("online_tracking: capacity flap %g -> %g Mb/s over [%g, %g) s"
              " (avail-bw 25 -> 5 -> 25 Mb/s)\n",
              kCapacity / 1e6, kFlapCapacity / 1e6,
              sim::to_seconds(kFlapStart),
              sim::to_seconds(kFlapStart + kFlapLen));

  for (bool bursty : {false, true}) {
    const char* scenario = bursty ? "flap+loss" : "flap";
    std::printf("\n%s%s\n", scenario,
                bursty ? " (Gilbert-Elliott bursty loss on the tight link)"
                       : "");
    print_row(scenario, "kalman", run_kalman(bursty));
    print_row(scenario, "tcp-rate", run_tcp(bursty));
    print_row(scenario, "adaptive", run_adaptive(bursty));
  }
  std::printf(
      "\nNote: tcp-rate tracks the flow's achievable throughput, which the\n"
      "paper's Fig. 7 pitfall distinguishes from the avail-bw; against\n"
      "non-responsive CBR cross traffic the two coincide approximately.\n");
  return 0;
}
