// Micro-benchmarks of the online (streaming) estimation layer
// (google-benchmark, custom main writing BENCH_online.json):
//
//   * BM_KalmanFeed:        per-sample cost of the BART-family Kalman
//     update (admission control + scalar filter + CUSUM watch);
//   * BM_DeliveryRateFeed:  per-sample cost of the passive TCP tracker's
//     windowed-max filter at a realistic ACK rate (the linear window scan
//     is the dominant term — this is the guard on its size);
//   * BM_AdaptiveDecide:    per-decision cost of the explore/exploit rate
//     choice;
//   * BM_FlapTracking:      end-to-end quality run — a Kalman tracker
//     probing through a capacity flap — reporting tracking RMS error and
//     re-convergence lag as counters (rms_mbps, lag_s) alongside the
//     wall-clock rate.
//
// bench/check_regression.py gates items_per_second against the committed
// bench/BENCH_online.baseline.json in the bench_check target.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "est/online/adaptive.hpp"
#include "est/online/kalman.hpp"
#include "est/online/tcp_rate.hpp"
#include "probe/stream_spec.hpp"
#include "sim/fault.hpp"
#include "sim/time.hpp"

namespace {

using namespace abw;
using abw::sim::kMillisecond;
using abw::sim::kSecond;
namespace online = abw::est::online;

online::OnlineSample fluid_sample(double ri, double avail, double ct,
                                  sim::SimTime t) {
  online::OnlineSample s;
  s.time = t;
  s.input_rate_bps = ri;
  s.strain = std::max(0.0, (ri - avail) / ct);
  s.rate_bps = ri / (1.0 + s.strain);
  s.packets = 60;
  return s;
}

void BM_KalmanFeed(benchmark::State& state) {
  online::KalmanTracker tracker;
  const double rates[4] = {30e6, 40e6, 50e6, 60e6};
  sim::SimTime t = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    t += 100 * kMillisecond;
    tracker.feed(fluid_sample(rates[i++ & 3], 25e6, 50e6, t));
    benchmark::DoNotOptimize(tracker.belief().estimate_bps);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["estimate_mbps"] = tracker.belief().estimate_bps / 1e6;
}
BENCHMARK(BM_KalmanFeed);

void BM_DeliveryRateFeed(benchmark::State& state) {
  online::TcpDeliveryRateTracker tracker;
  tcp::DeliveryRateSample s;
  s.delivery_rate_bps = 20e6;
  sim::SimTime t = 0;
  for (auto _ : state) {
    t += 10 * kMillisecond;  // ~100 ACKs/s: ~200 samples in the 2 s window
    s.time = t;
    s.delivery_rate_bps = 15e6 + static_cast<double>(t % 7) * 1e6;
    tracker.feed_delivery(s);
    benchmark::DoNotOptimize(tracker.belief().estimate_bps);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["window_samples"] =
      static_cast<double>(tracker.window_samples());
}
BENCHMARK(BM_DeliveryRateFeed);

void BM_AdaptiveDecide(benchmark::State& state) {
  online::AdaptiveProber prober;
  // Prime the belief so the loop exercises the exploit path too.
  sim::SimTime t = 0;
  for (int i = 0; i < 32; ++i) {
    t += 100 * kMillisecond;
    prober.feed(fluid_sample(30e6 + 10e6 * (i & 3), 25e6, 50e6, t));
  }
  for (auto _ : state) benchmark::DoNotOptimize(prober.next_rate_bps());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdaptiveDecide);

// One 20 s flap scenario (capacity 50 -> 30 Mb/s over [8, 14) s, so the
// avail-bw steps 25 -> 5 -> 25 Mb/s), probed every 250 ms by a Kalman
// tracker on a fixed rate cycle.  Counters report tracking quality
// against the measured ground truth; throughput reports streams/s.
void BM_FlapTracking(benchmark::State& state) {
  double rms = 0.0, lag = -1.0;
  std::uint64_t streams = 0;
  for (auto _ : state) {
    core::SingleHopConfig cfg;
    cfg.model = core::CrossModel::kCbr;
    cfg.seed = 7;
    core::Scenario sc = core::Scenario::single_hop(cfg);
    sim::FaultInjector inj(sc.simulator());
    const sim::SimTime start = sc.simulator().now();
    const sim::SimTime flap_at = start + 8 * kSecond;
    inj.flap(sc.path().link(0), flap_at, 6 * kSecond, 30e6);

    online::KalmanTracker tracker;
    const double rates[4] = {30e6, 40e6, 50e6, 60e6};
    const sim::SimTime tick = 250 * kMillisecond;
    double sq = 0.0;
    std::size_t n = 0;
    lag = -1.0;
    std::size_t i = 0;
    for (sim::SimTime t = start + tick; t <= start + 20 * kSecond; t += tick) {
      auto res = sc.transport().send_stream(
          probe::StreamSpec::periodic(rates[i++ & 3], 1200, 60));
      tracker.feed(res);
      ++streams;
      sc.simulator().run_until(t);
      double truth = sc.ground_truth(t - tick, t);
      double est = tracker.belief().estimate_bps;
      if (!std::isfinite(est)) continue;
      if (t - start >= 3 * kSecond) {
        double e = (est - truth) / 1e6;
        sq += e * e;
        ++n;
      }
      if (lag < 0.0 && t > flap_at &&
          std::fabs(est - truth) <= 0.3 * std::max(truth, 2e6))
        lag = sim::to_seconds(t - flap_at);
    }
    rms = n > 0 ? std::sqrt(sq / static_cast<double>(n)) : -1.0;
    benchmark::DoNotOptimize(rms);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(streams));
  state.counters["rms_mbps"] = rms;
  state.counters["lag_s"] = lag;
}
BENCHMARK(BM_FlapTracking)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main, same convention as micro_sim/micro_obs: default the JSON
// output to BENCH_online.json so bench_check needs no flag plumbing.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  std::string out_flag = "--benchmark_out=BENCH_online.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int nargs = static_cast<int>(args.size());
  benchmark::Initialize(&nargs, args.data());
  if (benchmark::ReportUnrecognizedArguments(nargs, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
}
