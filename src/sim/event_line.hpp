// Event lines: a FIFO of future events from one source that keeps one
// entry in the scheduler's queue, however many events it holds.
//
// A probe stream plans all its sends when it starts, and bfind plans a
// whole step of delay samples.  Scheduled one by one, each such event
// would sit in the scheduler's queue until due, and every other insert
// and pop would pay for it.  A line holds them in arrival order instead
// and shows the scheduler only its head.
//
// The pop order does not change.  push() takes the scheduler's next
// sequence number at once, exactly as Simulator::at() would, and the
// times of a line never decrease, so every entry sorts after its
// predecessor.  When the head fires, the line arms the next entry under
// its reserved number before it runs the head.  So each entry is in the
// queue before any event that sorts after it could pop, and the simulator
// pops exactly the (time, seq) order it would pop had every entry been
// scheduled with at() at push time: the same events, the same ties, the
// same events_processed().
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "sim/ring_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace abw::sim {

/// A FIFO of future events from one source.  Each entry is a value of the
/// `void()` callable type `F`, run at its time: the line is a sequence of
/// Simulator::at(t, f) calls with nondecreasing t, held as one queue entry.
/// F must be default-constructible and copyable.  Not copyable or movable
/// (the armed head points at the line), and the line must outlive its
/// pending entries, like every component that schedules events on itself.
template <typename F>
class EventLine {
 public:
  explicit EventLine(Simulator& sim) : sim_(sim) {}

  EventLine(const EventLine&) = delete;
  EventLine& operator=(const EventLine&) = delete;

  /// Queues `f` to run at `t`, with the tie-break position of this call.
  /// Throws std::logic_error when `t` is before now or before the time of
  /// the previous push.
  void push(SimTime t, F f) {
    if (t < sim_.now()) throw std::logic_error("EventLine::push: time in the past");
    if (t < last_time_)
      throw std::logic_error("EventLine::push: time before the previous push");
    last_time_ = t;
    entries_.push_back(Entry{t, sim_.scheduler_.reserve_seq(), std::move(f)});
    if (entries_.size() == 1) arm();
  }

  /// True when no entry is pending.
  bool empty() const { return entries_.empty(); }

  /// Pending entries, the armed head included.
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    SimTime time = 0;
    std::uint64_t seq = 0;
    F fn{};
  };

  void arm() {
    const Entry& head = entries_.front();
    sim_.scheduler_.schedule_reserved(head.time, head.seq, [this] { fire(); });
  }

  void fire() {
    // Copy the head out first: running it may push onto this line and
    // grow the ring under a reference.
    F fn = std::move(entries_.front().fn);
    entries_.pop_front();
    if (!entries_.empty()) arm();
    fn();
  }

  Simulator& sim_;
  RingQueue<Entry> entries_;
  SimTime last_time_ = 0;
};

}  // namespace abw::sim
