#include "sim/simulator.hpp"

#include <utility>

namespace abw::sim {

namespace {
// Shared timer key so every drain loop accumulates into one TimerStat.
constexpr std::string_view kDrainTimer = "sim.drain";
}  // namespace

void Simulator::step() {
  // The callback runs in place in its pooled slot; the clock advances
  // BEFORE it runs (the on_pop hook fires between queue update and call).
  scheduler_.pop_and_run([this](SimTime t) {
    now_ = t;
    ++events_processed_;
  });
}

void Simulator::run_until(SimTime t) {
  obs::ScopedTimer timer(metrics_, kDrainTimer);
  while (!scheduler_.empty() && scheduler_.next_time_unchecked() <= t) step();
  if (now_ < t) now_ = t;
  if (metrics_) metrics_->counter("sim.events").set(events_processed_);
}

bool Simulator::run_until_condition(SimTime t_max,
                                    const std::function<bool()>& done) {
  obs::ScopedTimer timer(metrics_, kDrainTimer);
  bool satisfied = done();
  while (!satisfied && !scheduler_.empty() &&
         scheduler_.next_time_unchecked() <= t_max) {
    step();
    satisfied = done();
  }
  if (metrics_) metrics_->counter("sim.events").set(events_processed_);
  return satisfied;
}

void Simulator::run_until_idle() {
  obs::ScopedTimer timer(metrics_, kDrainTimer);
  while (!scheduler_.empty()) step();
  if (metrics_) metrics_->counter("sim.events").set(events_processed_);
}

}  // namespace abw::sim
