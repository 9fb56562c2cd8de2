// Shared arithmetic and result plumbing of the repository benchmark.
//
// Every workload reports through one Outcome: correctness checks, the
// attempted/failed tally, end-to-end metrics (untraced run) and
// per-layer metrics (traced run).  The arithmetic the metrics rest on —
// median, the tail-percentile rule, stream overhead, failure fractions —
// lives here so tests/perfbench_test.cpp can pin it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probe/stream_spec.hpp"
#include "sim/time.hpp"

namespace perfbench {

/// Monotonic wall clock, seconds.
double now_s();

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
double median(std::vector<double> v);

/// A timing's tail: the highest percentile that still has at least
/// `kTailBeyond` samples above it, with the sample count it came from.
struct Tail {
  double percentile = 0.0;  ///< in (0, 100]
  double value = 0.0;
  std::size_t count = 0;
};
inline constexpr std::size_t kTailBeyond = 10;

/// Sorts `v` and returns the sample at index n - 1 - kTailBeyond, whose
/// percentile is 100 * (index + 1) / n.  With too few samples for any
/// percentile to qualify, returns the maximum at percentile 100.
Tail tail(std::vector<double> v);

/// Time a live stream spends beyond its own schedule: the wall time of
/// Transport::send_stream minus the lead-in minus StreamSpec::span().
/// What is left is handshake, pacing slip and report turnaround.
double stream_overhead_ms(double send_wall_s, abw::sim::SimTime lead_in,
                          const abw::probe::StreamSpec& spec);

/// Failures counted against attempts: every operation tried adds to
/// `attempted`, whether it succeeded or not.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// FNV-1a over 64-bit words / strings: the result digests that traced and
/// untraced runs of one seed must agree on.
std::uint64_t fnv(std::uint64_t h, std::uint64_t v);
std::uint64_t fnv(std::uint64_t h, const std::string& s);
inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The command-line arguments every workload receives.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one workload run produced.
struct Outcome {
  bool correct = true;
  std::vector<std::string> problems;
  Tally tally;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// The workload-specific names behind the uniform end-to-end metrics
  /// (estimates_per_s, overhead_ms_p50, ...) plus accuracy figures;
  /// printed for people, not part of the result line.
  std::vector<std::pair<std::string, Metric>> notes;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    problems.push_back(what);
  }
  void note(const std::string& name, double value, const std::string& unit) {
    notes.push_back({name, {value, unit}});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
};

/// One timed pass of a workload.  A round is the workload's unit of
/// deterministic work (one scenario's nine estimates, one rate sweep, one
/// live session, one mesh resolution); an op is what op_ms_* times.
struct Pass {
  double start_s = now_s();
  double elapsed_s = 0.0;
  double ops = 0.0;  ///< throughput units completed (estimates, pairs, ...)
  std::vector<std::uint64_t> round_digests;
  std::vector<double> round_end_s, round_ops;
  std::vector<double> op_end_s, op_ms;

  void op(double ms) {
    op_end_s.push_back(now_s());
    op_ms.push_back(ms);
  }
  void round(double ops_done, std::uint64_t digest = 0) {
    round_end_s.push_back(now_s());
    round_ops.push_back(ops_done);
    round_digests.push_back(digest);
    ops += ops_done;
  }
  void finish() { elapsed_s = now_s() - start_s; }
  double ops_per_s() const { return elapsed_s > 0.0 ? ops / elapsed_s : 0.0; }
};

/// Throughput and median op latency robust to a noisy host: the pass is
/// cut into consecutive chunks of whole rounds, each at least kChunkS
/// long, and each figure is the median over chunks of the chunk's value
/// (ops / chunk wall time; median latency of the ops ending in it).  A
/// short trailing chunk is dropped unless it is the only one.  Rounds
/// must be logged in completion order.
struct Steady {
  double ops_per_s = 0.0;
  double op_ms_p50 = 0.0;
  std::size_t chunks = 0;
};
inline constexpr double kChunkS = 1.0;
Steady steady(const Pass& p);

/// Fills the uniform end-to-end metrics (setup_s, ops_per_s) from the
/// reported pass and notes them under the workload's own names:
/// `<rate_name>` for throughput, and `<op_name>_p50` / `<op_name>_tail`
/// (with its percentile and sample count) for op latency.  Op latency is
/// printed, not bounded: on a shared host its run-to-run spread, the
/// live overhead's above all, exceeds any useful bound.  Reads failed_frac from out.tally, so set
/// that first.
void report_end_to_end(Outcome& out, const Pass& p, double setup_s,
                       const std::string& rate_name, const std::string& op_name);

/// Set-up repetitions per run; set-up time is their median.
inline constexpr int kSetupReps = 9;

/// Seed of the warm-up work in a set-up: fixed, not the run's seed, so
/// every run's set-up does the same work and setup_s varies only with
/// the host.
inline constexpr std::uint64_t kWarmupSeed = 0x5e7;

/// Runs `setup(rep)` `reps` times and returns the median wall time, so
/// set-up cost is measured as steadily as the work it precedes.
template <typename SetupFn>
double median_setup_s(int reps, SetupFn&& setup) {
  std::vector<double> s;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_s();
    setup(rep);
    s.push_back(now_s() - t0);
  }
  return median(s);
}

/// Runs the measured phase.  Untraced: one pass of `cfg.seconds`.
/// Traced: an untraced and a traced pass of half the time each, both from
/// round 0 of the same seed; their common rounds must digest identically
/// (tracing must not perturb results) and the throughput difference is
/// reported as obs.trace_overhead_frac.  Returns the pass whose metrics
/// the run reports.  `deterministic` is false for live traffic, whose
/// results depend on real time and are not compared.
template <typename PassFn>
auto run_passes(const RunConfig& cfg, Outcome& out, bool deterministic,
                PassFn&& pass) -> decltype(pass(0.0, false)) {
  if (!cfg.trace) return pass(cfg.seconds, false);
  Pass plain = pass(cfg.seconds / 2, false);
  auto traced = pass(cfg.seconds / 2, true);
  std::size_t common =
      std::min(plain.round_digests.size(), traced.round_digests.size());
  if (deterministic) {
    out.check(common > 0, "no round completed in both traced and untraced passes");
    for (std::size_t i = 0; i < common; ++i)
      out.check(plain.round_digests[i] == traced.round_digests[i],
                "traced round " + std::to_string(i) +
                    " digest differs from the untraced one");
  }
  const double plain_rate = steady(plain).ops_per_s;
  out.layer("obs.trace_overhead_frac",
            plain_rate > 0.0 ? 1.0 - steady(traced).ops_per_s / plain_rate : 0.0,
            "ratio");
  return traced;
}

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// CPU time (user + system) of thread `tid` of this process, seconds.
double thread_cpu_s(long tid);

/// Thread ids currently in /proc/self/task.
std::vector<long> task_ids();

}  // namespace perfbench
