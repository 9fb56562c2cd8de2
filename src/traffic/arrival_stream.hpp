// Chunked arrival stream: bulk (time, size) arrays produced by
// Generator::fill().  Both simulation modes consume arrivals in chunks:
// the fluid fast path absorbs whole chunks analytically, and a started
// generator injects them one packet event at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace abw::traffic {

/// A batch of packet arrivals in struct-of-arrays form: `times[i]` is the
/// arrival instant of a packet of `sizes[i]` bytes.  Times are
/// non-decreasing within a chunk: a drawn gap under 0.5 ns rounds to 0,
/// and a replayed trace may repeat a timestamp.
struct ArrivalChunk {
  std::vector<sim::SimTime> times;
  std::vector<std::uint32_t> sizes;

  std::size_t size() const { return times.size(); }
  bool empty() const { return times.empty(); }

  void clear() {
    times.clear();
    sizes.clear();
  }

  void reserve(std::size_t n) {
    times.reserve(n);
    sizes.reserve(n);
  }

  void push_back(sim::SimTime t, std::uint32_t s) {
    times.push_back(t);
    sizes.push_back(s);
  }
};

}  // namespace abw::traffic
