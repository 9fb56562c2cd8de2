// pathChirp (Ribeiro, Riedi, Baraniuk, Navratil & Cottrell, PAM 2003):
// iterative probing with "chirps" — trains whose inter-packet gaps shrink
// exponentially, so one N-packet chirp probes N-1 rates at once (the
// efficiency the paper's classification section highlights).
//
// Per-chirp analysis is the excursion-segmentation algorithm: the
// queueing-delay signature q_k of the chirp is segmented into excursions
// (q rises above zero and returns).  Rules, per the original paper:
//   (a) packets in the rising phase of a qualifying excursion contribute
//       E_k = R_k (their instantaneous probing rate);
//   (b) if the final excursion never terminates (delays keep growing to
//       the chirp's end), every packet from its start i* contributes
//       E_k = R_{i*};
//   (c) packets outside excursions contribute E_k = R_N-1, the chirp's
//       top rate (no queue buildup even at the highest rate probed).
// The chirp estimate is the interarrival-weighted average of E_k; the
// tool's output averages several chirps.
#pragma once

#include "est/estimator.hpp"

namespace abw::est {

/// Parameters of pathChirp.
struct PathChirpConfig {
  double low_rate_bps = 2e6;    ///< rate probed by the first (widest) gap
  double spread_factor = 1.2;   ///< gamma: consecutive-gap shrink ratio
  std::uint32_t packet_size = 1000;
  std::size_t packets_per_chirp = 24;  ///< probes low * gamma^(N-2) at the top
  std::size_t chirps = 16;             ///< chirps averaged per estimate
  sim::SimTime inter_chirp_gap = 40 * sim::kMillisecond;
  std::size_t min_excursion_len = 3;   ///< packets for a qualifying excursion
  double busy_threshold_fraction = 0.05;  ///< of max q to call "queueing"
  /// Packets to pull the detected congestion onset BACK by.  A causal
  /// smoothing filter (S-chirp) delays every threshold crossing by up to
  /// its window length, so the final excursion appears to start late;
  /// smoothed variants set this to window-1 to compensate.
  std::size_t onset_backoff_packets = 0;
};

/// The pathChirp estimator.
class PathChirp final : public Estimator {
 public:
  explicit PathChirp(const PathChirpConfig& cfg);

  std::string_view name() const override { return "pathchirp"; }
  ProbingClass probing_class() const override { return ProbingClass::kIterative; }

  /// Analyzes one chirp's OWD signature given the probed instantaneous
  /// rates; returns the chirp's weighted avail-bw estimate, or 0 if the
  /// chirp was unusable.  Exposed for unit tests of the excursion rules.
  double analyze_chirp(const std::vector<double>& owds_seconds,
                       const std::vector<double>& rates_bps,
                       const std::vector<double>& gaps_seconds) const;

 protected:
  Estimate do_estimate(probe::Transport& transport) override;

 private:
  PathChirpConfig cfg_;
  std::vector<double> chirp_estimates_;
};

}  // namespace abw::est
