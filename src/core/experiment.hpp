// Reusable experiment procedures shared by the benches, examples, and
// integration tests: Ro/Ri response curves (Figs. 3-4), per-stream
// avail-bw sampling (Fig. 2, Table 1), and OWD captures (Fig. 5).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/scenario.hpp"
#include "probe/stream_result.hpp"

namespace abw::core {

/// One point of an Ro/Ri-vs-Ri response curve.
struct RatioPoint {
  double rate_bps = 0.0;    ///< offered input rate Ri
  double mean_ratio = 0.0;  ///< average Ro/Ri over the streams
  double std_ratio = 0.0;   ///< stddev across streams
  std::size_t streams = 0;  ///< usable streams measured
};

/// Parameters of a response-curve measurement.
struct RatioCurveConfig {
  std::vector<double> rates_bps;       ///< offered rates to sweep
  std::size_t streams_per_rate = 100;  ///< the paper's figures use 500
  std::uint32_t packet_size = 1500;
  std::size_t packets_per_stream = 100;
  sim::SimTime inter_stream_gap = 20 * sim::kMillisecond;
};

/// Measures the average output/input rate ratio at each offered rate —
/// the paper's Figs. 3 and 4 y-axis.  Throws std::logic_error if the
/// measurement would outlive the scenario's cross-traffic horizon (probing
/// a silent link produces ratio ~1 and silently corrupts the curve).
std::vector<RatioPoint> measure_ratio_curve(Scenario& sc,
                                            const RatioCurveConfig& cfg);

/// Long-sweep variant: builds a FRESH scenario per offered rate via
/// `make_scenario(seed)`, so hundreds of streams per rate cannot exhaust
/// one scenario's traffic horizon.  Seeds are 1, 2, ... per rate point.
///
/// Rate points are independent worlds, so they execute on a
/// runner::BatchRunner with `jobs` threads (0 = runner::default_jobs(),
/// i.e. $ABW_JOBS or hardware_concurrency).  Results are aggregated in
/// rate order, so the curve is bit-identical for every thread count.
std::vector<RatioPoint> measure_ratio_curve_fresh(
    const std::function<Scenario(std::uint64_t seed)>& make_scenario,
    const RatioCurveConfig& cfg, std::size_t jobs = 0);

/// Collects `count` direct-probing avail-bw samples (Eq. 9) of the given
/// stream duration.  `tight_capacity_bps` is Ct in the equation.  Streams
/// that fail to congest the link are skipped (and re-sent up to 3x the
/// count).  Used by Fig. 2 and, with packet pairs, Table 1.
std::vector<double> collect_direct_samples(Scenario& sc, double tight_capacity_bps,
                                           double input_rate_bps,
                                           sim::SimTime stream_duration,
                                           std::uint32_t packet_size,
                                           std::size_t count,
                                           sim::SimTime inter_stream_gap);

/// Collects `count` per-pair avail-bw samples with Spruce's gap formula.
std::vector<double> collect_pair_samples(Scenario& sc, double tight_capacity_bps,
                                         std::uint32_t packet_size,
                                         std::size_t count,
                                         sim::SimTime mean_pair_gap);

/// Ground-truth A_tau(t) series of the tight link over [t0, t1),
/// excluding measurement traffic — works in both simulation modes (in
/// hybrid mode it first syncs the fluid accounting through t1, which is
/// what makes meter-based ground truth the mode-independent source; the
/// Fig. 1 bench reads it instead of a per-packet trace).
std::vector<double> ground_truth_series(Scenario& sc, sim::SimTime t0,
                                        sim::SimTime t1, sim::SimTime tau);

}  // namespace abw::core
