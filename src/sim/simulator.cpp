#include "sim/simulator.hpp"

#include <utility>

namespace abw::sim {

void Simulator::step() {
  // The callback runs in place in its pooled slot; the clock advances
  // BEFORE it runs (the on_pop hook fires between queue update and call).
  scheduler_.pop_and_run([this](SimTime t) {
    now_ = t;
    ++events_processed_;
  });
}

void Simulator::set_metrics(obs::MetricsRegistry* m) {
  metrics_ = m;
  drain_timer_ = m ? &m->timer("sim.drain") : nullptr;
  events_counter_ = m ? &m->counter("sim.events") : nullptr;
  absorb_timer_ = nullptr;
}

void Simulator::run_until(SimTime t) {
  obs::ScopedTimer timer(drain_timer_);
  while (!scheduler_.empty() && scheduler_.next_time_unchecked() <= t) step();
  if (now_ < t) now_ = t;
  if (events_counter_) events_counter_->set(events_processed_);
}

bool Simulator::run_until_condition(SimTime t_max,
                                    const std::function<bool()>& done) {
  obs::ScopedTimer timer(drain_timer_);
  bool satisfied = done();
  while (!satisfied && !scheduler_.empty() &&
         scheduler_.next_time_unchecked() <= t_max) {
    step();
    satisfied = done();
  }
  if (events_counter_) events_counter_->set(events_processed_);
  return satisfied;
}

void Simulator::run_until_idle() {
  obs::ScopedTimer timer(drain_timer_);
  while (!scheduler_.empty()) step();
  if (events_counter_) events_counter_->set(events_processed_);
}

}  // namespace abw::sim
