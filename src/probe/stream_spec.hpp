// Probing-stream descriptions: the shapes the classified tools send.
//
//  * periodic trains  — Pathload, PTR, TOPP rates, direct probing
//  * packet pairs     — TOPP, Spruce (with exponential pair spacing)
//  * chirps           — pathChirp (exponentially shrinking gaps)
//
// A StreamSpec is just a list of (send offset, size); the factories below
// encode each tool's geometry.  Rates are always *input* rates Ri in the
// paper's sense: Ri = 8 L / gap for a periodic stream.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "stats/rng.hpp"

namespace abw::probe {

/// One probe packet within a stream, at `offset` from the stream start.
struct ProbePacketSpec {
  sim::SimTime offset;
  std::uint32_t size_bytes;
};

/// A fully specified probing stream.
struct StreamSpec {
  std::vector<ProbePacketSpec> packets;

  /// Nominal input rate Ri in bits/s: total bits after the first packet's
  /// divided by the send-span (the standard (N-1)L/span for equal sizes).
  /// Returns 0 for streams with fewer than 2 packets.
  double nominal_rate_bps() const;

  /// Duration from first to last send offset.
  sim::SimTime span() const;

  std::size_t size() const { return packets.size(); }

  /// Throws std::invalid_argument unless the stream can be sent: it has
  /// a packet, and its offsets are >= 0 and never decrease.  Every
  /// transport checks this before it changes any state.
  void validate() const;

  /// Periodic train of `count` packets of `size` bytes at `rate_bps`.
  static StreamSpec periodic(double rate_bps, std::uint32_t size, std::size_t count);

  /// A single back-to-back-at-`rate_bps` packet pair.
  static StreamSpec packet_pair(double rate_bps, std::uint32_t size);

  /// Spruce/TOPP-style train of `pairs` packet pairs: the two packets of a
  /// pair are spaced at `intra_rate_bps`; pair starts are separated by
  /// exponential gaps with mean `mean_pair_gap` (Poisson sampling), drawn
  /// from `rng`.
  static StreamSpec pair_train(double intra_rate_bps, std::uint32_t size,
                               std::size_t pairs, sim::SimTime mean_pair_gap,
                               stats::Rng& rng);

  /// pathChirp chirp: `count` packets whose consecutive gaps shrink by the
  /// spread factor `gamma` (> 1), starting from the gap of `low_rate_bps`.
  /// Packet k..k+1 probes instantaneous rate low_rate * gamma^k.
  static StreamSpec chirp(double low_rate_bps, double gamma, std::uint32_t size,
                          std::size_t count);

  /// Instantaneous rate probed by the gap before packet k (k >= 1):
  /// 8*size / (offset[k] - offset[k-1]).
  double instantaneous_rate(std::size_t k) const;
};

}  // namespace abw::probe
