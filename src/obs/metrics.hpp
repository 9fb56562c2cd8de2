// MetricsRegistry: named counters / gauges / histograms / timers.
//
// One registry per run (or per BatchRunner cell).  Components register
// metrics lazily by name; references returned by counter()/gauge()/
// histogram() stay stable for the registry's lifetime (node-based map),
// so hot loops can cache the pointer and pay nothing for the lookup.
//
// Determinism: names are stored sorted, so to_json() output is a stable
// function of the recorded values.  Wall-clock timers are the one
// nondeterministic family — `to_json(/*include_timers=*/false)` excludes
// them, which is what golden tests and cross-thread-count byte-identity
// comparisons use.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>

#include "stats/histogram.hpp"

namespace abw::obs {

/// Monotonic event count.
struct Counter {
  std::uint64_t value = 0;
  void add(std::uint64_t n = 1) { value += n; }
  void set(std::uint64_t v) { value = v; }
};

/// Last-written point-in-time value.
struct Gauge {
  double value = 0.0;
  void set(double v) { value = v; }
};

/// Accumulated wall-clock time of a named code region (see ScopedTimer).
struct TimerStat {
  std::uint64_t count = 0;    ///< completed intervals
  double total_seconds = 0.0;
  double max_seconds = 0.0;

  void record(double seconds) {
    ++count;
    total_seconds += seconds;
    if (seconds > max_seconds) max_seconds = seconds;
  }
};

class MetricsRegistry {
 public:
  /// Finds or creates; the reference is stable for the registry lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  TimerStat& timer(std::string_view name);

  /// Finds or creates with the given shape.  The shape of an existing
  /// histogram is never changed by a later call.
  stats::Histogram& histogram(std::string_view name, double lo, double hi,
                              std::size_t bins);

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty() &&
           timers_.empty();
  }

  /// Single sorted JSON object:
  ///   {"counters":{...},"gauges":{...},"histograms":{...},"timers":{...}}
  /// Histograms serialize as {"lo","hi","underflow","overflow","total",
  /// "counts":[...]}.  With include_timers == false the "timers" section
  /// is omitted entirely — the remaining output is deterministic for a
  /// seeded run.
  std::string to_json(bool include_timers = false) const;

  /// to_json() followed by a newline, written to `out`.
  void write_json(std::ostream& out, bool include_timers = false) const;

 private:
  // std::less<> enables lookup by string_view without a temporary string.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, stats::Histogram, std::less<>> histograms_;
  std::map<std::string, TimerStat, std::less<>> timers_;
};

/// RAII wall-clock timer: records elapsed seconds into a TimerStat on
/// destruction.  A null stat makes both constructor and destructor no-ops
/// (no clock read), so always-on call sites cost one branch when
/// profiling is disabled.
class ScopedTimer {
 public:
  /// Records into `stat`.  Hot paths resolve it once per attached
  /// registry instead of looking it up by name on every call.
  explicit ScopedTimer(TimerStat* stat) : stat_(stat) {
    if (stat_) start_ns_ = steady_ns();
  }

  ~ScopedTimer() {
    if (stat_) stat_->record(static_cast<double>(steady_ns() - start_ns_) * 1e-9);
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  static std::uint64_t steady_ns();  // the monotonic clock, in ns

  TimerStat* stat_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

}  // namespace abw::obs
