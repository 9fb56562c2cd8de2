// The simulation kernel: a clock plus a scheduler plus packet-id issuance.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace abw::sim {

/// Owns simulated time.  All components keep a reference to the Simulator
/// and schedule their work through it.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (>= now()).  Accepts any
  /// `void()` callable; it is constructed directly into a pooled event
  /// slot, and captures up to SmallCallback::kInlineSize bytes are stored
  /// inline (no heap allocation, no callback move).
  template <typename F>
  void at(SimTime t, F&& cb) {
    if (t < now_) throw std::logic_error("Simulator::at: time in the past");
    scheduler_.schedule_emplace(t, std::forward<F>(cb));
  }

  /// Schedules `cb` `delay` nanoseconds from now (delay >= 0).
  template <typename F>
  void after(SimTime delay, F&& cb) {
    if (delay < 0) throw std::logic_error("Simulator::after: negative delay");
    scheduler_.schedule_emplace(now_ + delay, std::forward<F>(cb));
  }

  /// Runs events until the queue is empty or the next event is past `t`;
  /// the clock is left at min(t, last event time processed ... t).
  void run_until(SimTime t);

  /// Runs until no events remain.
  void run_until_idle();

  /// Runs events until `done()` returns true, the next event is past
  /// `t_max`, or the queue empties.  `done` is checked after each event.
  /// Returns true when the predicate was satisfied.
  bool run_until_condition(SimTime t_max, const std::function<bool()>& done);

  /// True when no events are pending.
  bool idle() const { return scheduler_.empty(); }

  /// Issues a fresh globally unique packet id.
  std::uint64_t next_packet_id() { return next_packet_id_++; }

  /// Total events processed (for micro-benchmarks and sanity checks).
  std::uint64_t events_processed() const { return events_processed_; }

  /// High-water mark of concurrently pending events — the working-set
  /// size of the event queue (reported in BENCH_core.json).
  std::size_t peak_event_count() const { return scheduler_.peak_size(); }

  /// Pooled callback slots created so far; constant at steady state.
  std::size_t event_pool_capacity() const { return scheduler_.pool_capacity(); }

  /// Pre-sizes the event queue for `n` concurrent events.
  void reserve_events(std::size_t n) { scheduler_.reserve(n); }

  /// Attaches a metrics registry: the drain loops (run_until*) then time
  /// themselves under "sim.drain", event counts are snapshotted into
  /// "sim.events" on each drain, and FluidQueue::absorb() times itself
  /// under "fluid.absorb".  Each entry is looked up once per attached
  /// registry, never per call.  nullptr (the default) disables profiling
  /// at the cost of one branch per drain or absorb call — never per
  /// event.  Not owned.
  void set_metrics(obs::MetricsRegistry* m);

  /// The attached registry's "fluid.absorb" timer, or nullptr when none
  /// is attached.  Created on first use, so packet-mode runs never add
  /// it.
  obs::TimerStat* absorb_timer() {
    if (!metrics_) return nullptr;
    if (!absorb_timer_) absorb_timer_ = &metrics_->timer("fluid.absorb");
    return absorb_timer_;
  }

 private:
  template <typename>
  friend class EventLine;  // the only user of the scheduler's reserved keys

  void step();  // pop one event, advance the clock, run the callback

  Scheduler scheduler_;
  SimTime now_ = 0;
  std::uint64_t next_packet_id_ = 1;
  std::uint64_t events_processed_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;  // not owned; nullptr = off
  // metrics_'s entries, resolved by set_metrics() (the absorb timer on
  // first use); all nullptr while detached.
  obs::TimerStat* drain_timer_ = nullptr;
  obs::Counter* events_counter_ = nullptr;
  obs::TimerStat* absorb_timer_ = nullptr;
};

}  // namespace abw::sim
