// Figure 5 — "OWDs for two probing streams of 160 packets."
//
// Paper setup: avail-bw A = 25 Mb/s.  Two streams are shown:
//   * Ri = 27 Mb/s (> A): a clearly increasing OWD trend; both the trend
//     and Ro/Ri correctly infer Ri > A.
//   * Ri = 19 Mb/s (< A): Ro < Ri because of a cross-traffic burst at the
//     very end of the stream, yet the OWD series has NO increasing trend —
//     the rate ratio misleads, the delay statistics do not.
//
// We reproduce both, print the relative-OWD series, and run the PCT/PDT
// statistics on each.
// With `--trace=FILE` every packet event and stream boundary of the
// search goes to a JSONL trace (obs/), which is how the EXPERIMENTS.md
// traced rows for this figure were produced.
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "obs/trace.hpp"
#include "runner/cli.hpp"
#include "stats/trend.hpp"

using namespace abw;

namespace {

void show_stream(const char* label, const probe::StreamResult& res) {
  auto owds = res.relative_owds_ms();
  std::printf("%s: Ri=%s  Ro=%s  Ro/Ri=%.3f\n", label,
              core::mbps(res.input_rate_bps()).c_str(),
              core::mbps(res.output_rate_bps()).c_str(), res.rate_ratio());
  auto abs_owds = res.owds_seconds();
  std::printf("  PCT=%.3f  PDT=%.3f  => trend: %s\n",
              stats::pct_statistic(abs_owds), stats::pdt_statistic(abs_owds),
              stats::to_string(stats::combined_trend(abs_owds)));
  std::printf("%s", core::ascii_plot(owds, 10, 76).c_str());
  std::printf("  (y: relative OWD in ms; x: packet 0..%zu)\n\n", owds.size() - 1);
}

}  // namespace

int main(int argc, char** argv) {
  core::print_header(std::cout, "Figure 5: OWD trends vs the Ro/Ri ratio",
                     "Jain & Dovrolis IMC'04, Fig. 5");
  std::printf("workload: single hop, Ct=50 Mbps, bursty cross (Pareto "
              "ON-OFF), A=25 Mbps;\nstreams of 160 x 1500B packets\n\n");

  core::SingleHopConfig cfg;
  cfg.model = core::CrossModel::kParetoOnOff;
  cfg.seed = 5;
  auto sc = core::Scenario::single_hop(cfg);

  std::string trace_path;
  try {
    trace_path = runner::parse_string_flag(argc, argv, "trace", "");
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  std::unique_ptr<obs::JsonlTraceSink> trace;
  if (!trace_path.empty()) {
    trace = std::make_unique<obs::JsonlTraceSink>(trace_path);
    sc.set_trace(trace.get());
  }

  // Stream A: Ri = 27 > A.  Expect increasing trend AND Ro < Ri.
  probe::StreamResult above;
  bool found_above = false;
  for (int i = 0; i < 300 && !found_above; ++i) {
    above = sc.transport().send_stream(
        probe::StreamSpec::periodic(27e6, 1500, 160));
    if (!above.complete()) continue;
    found_above = stats::combined_trend(above.owds_seconds()) ==
                      stats::Trend::kIncreasing &&
                  above.rate_ratio() < 0.99;
  }

  // Stream B: Ri = 19 < A, but a burst depressed Ro anyway, while the OWD
  // trend stays non-increasing (the paper's lower time series).
  probe::StreamResult below;
  bool found_below = false;
  for (int i = 0; i < 500 && !found_below; ++i) {
    below = sc.transport().send_stream(
        probe::StreamSpec::periodic(19e6, 1500, 160));
    if (!below.complete()) continue;
    found_below = stats::combined_trend(below.owds_seconds()) ==
                      stats::Trend::kNonIncreasing &&
                  below.rate_ratio() < 0.99;
  }

  if (found_above) show_stream("stream A (Ri=27 Mbps > A)", above);
  if (found_below) show_stream("stream B (Ri=19 Mbps < A)", below);

  if (trace) {
    trace->flush();
    std::printf("trace: %llu JSONL events -> %s\n\n",
                static_cast<unsigned long long>(trace->lines()),
                trace_path.c_str());
  }

  const bool match = core::print_check(
      std::cout,
      "a stream can show Ro < Ri without any increasing OWD trend (cross "
      "burst near the end); OWD statistics carry more information than the "
      "single number Ro/Ri",
      found_below
          ? "found a below-avail-bw stream whose Ro/Ri says 'congested' while "
            "PCT/PDT correctly say 'not congested'; the above-avail-bw stream "
            "shows both signals agreeing"
          : "no contradictory stream found",
      found_above && found_below);
  return match ? 0 : 1;
}
