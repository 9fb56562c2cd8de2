// Figure 2 — "The probing stream duration controls the averaging time
// scale tau."
//
// Paper setup: single hop, Ct = 50 Mb/s, Poisson cross traffic with mean
// avail-bw 25 Mb/s, direct probing at Ri = 40 Mb/s.  For stream durations
// {25, 50, 100, 150, 200} ms, compare the standard deviation of 100
// direct-probing avail-bw samples with the POPULATION standard deviation
// of A_tau (from the packet trace) at the matching tau.  The two curves
// should coincide: the stream duration IS the averaging time scale.
//
// This doubles as the ablation for the stream-duration design knob.
#include <cstdio>
#include <iostream>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "stats/moments.hpp"
#include "trace/availbw_process.hpp"
#include "trace/packet_trace.hpp"

int main() {
  using namespace abw;
  core::print_header(std::cout,
                     "Figure 2: stream duration vs averaging time scale",
                     "Jain & Dovrolis IMC'04, Fig. 2");
  std::printf("workload: single hop, Ct=50 Mbps, Poisson cross 25 Mbps, "
              "direct probing at Ri=40 Mbps, 100 samples per duration\n\n");

  const double durations_ms[] = {25, 50, 100, 150, 200};

  core::Table table({"stream duration", "sample stddev", "population stddev",
                     "ratio"});
  bool all_close = true;
  double prev_sample_sd = 1e18;
  bool monotone = true;

  for (double dur_ms : durations_ms) {
    core::SingleHopConfig cfg;
    cfg.model = core::CrossModel::kPoisson;
    cfg.seed = 7 + static_cast<std::uint64_t>(dur_ms);
    auto sc = core::Scenario::single_hop(cfg);
    sim::SimTime tau = sim::from_millis(dur_ms);

    // Record the OFFERED cross-traffic process (arrivals are open-loop,
    // so the probing load cannot distort them) — the paper derives the
    // population statistics "from the simulation packet trace" too.
    trace::LinkTraceRecorder cross_trace(sc.path().link(0),
                                         sim::PacketType::kCross);

    // 100 direct-probing samples of this duration.
    auto samples = core::collect_direct_samples(sc, cfg.capacity_bps, 40e6, tau,
                                                1500, 100, 30 * sim::kMillisecond);
    double sample_sd = stats::stddev(samples);

    // Population stddev of A_tau from the offered cross traffic.
    trace::AvailBwProcess proc(cross_trace.trace());
    double pop_sd = stats::stddev(proc.series(tau));

    char dur_s[16];
    std::snprintf(dur_s, sizeof dur_s, "%.0f ms", dur_ms);
    char ratio_s[16];
    std::snprintf(ratio_s, sizeof ratio_s, "%.2f", sample_sd / pop_sd);
    table.row({dur_s, core::mbps(sample_sd, 2), core::mbps(pop_sd, 2), ratio_s});

    if (sample_sd / pop_sd > 1.6 || sample_sd / pop_sd < 0.6) all_close = false;
    if (sample_sd > prev_sample_sd * 1.15) monotone = false;
    prev_sample_sd = sample_sd;
  }
  table.print(std::cout);

  const bool match = core::print_check(
      std::cout,
      "population and sample standard deviations are almost equal; both "
      "decrease with the stream duration",
      all_close ? "sample/population ratios stay near 1 and the stddev "
                  "falls with duration"
                : "curves diverged",
      all_close && monotone);
  std::printf("\nconclusion: the probing duration is not an implementation "
              "detail — it is the knob\nthat selects the averaging time "
              "scale of the reported avail-bw.\n");
  return match ? 0 : 1;
}
