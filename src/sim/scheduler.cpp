#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace abw::sim {

void Scheduler::throw_past_event() {
  throw std::logic_error("Scheduler::schedule: event in the past");
}

void Scheduler::throw_bad_reserved() {
  throw std::logic_error(
      "Scheduler::schedule_reserved: key not after the last popped event, "
      "or sequence number not reserved");
}

void Scheduler::throw_seq_overflow() {
  throw std::length_error("Scheduler: event sequence number overflow");
}

std::uint32_t Scheduler::acquire_fresh_slot() {
  if (next_fresh_slot_ >= kSlotCapacity)
    throw std::length_error("Scheduler: > 2^24 concurrently pending events");
  if ((next_fresh_slot_ >> kChunkShift) == chunks_.size())
    chunks_.push_back(std::make_unique<Callback[]>(kChunkSize));
  return next_fresh_slot_++;
}

SimTime Scheduler::next_time() const {
  if (empty()) throw std::logic_error("Scheduler::next_time: empty");
  return heap_[head_].time;
}

void Scheduler::throw_pop_empty() {
  throw std::logic_error("Scheduler::pop: empty");
}

void Scheduler::to_heap() {
  // An array sorted by key is already a valid min-heap: every parent
  // index is below its children's.
  compact();
  sorted_ = false;
}

Scheduler::Entry Scheduler::remove_heap_top() {
  Entry top = heap_.front();
  Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_.front() = last;
    sift_down(0);
  }
  if (heap_.size() <= kSortedMin) {  // drained: back to a sorted run
    std::sort(heap_.begin(), heap_.end(), before);
    sorted_ = true;
  }
  return top;
}

Scheduler::Event Scheduler::pop() {
  Entry top = remove_top();
  Event ev{top.time, top.seq(), std::move(slot_ref(top.slot()))};
  free_slots_.push_back(top.slot());
  return ev;
}

void Scheduler::reserve(std::size_t n) {
  heap_.reserve(n);
  free_slots_.reserve(n);
  while (pool_capacity() < n)
    chunks_.push_back(std::make_unique<Callback[]>(kChunkSize));
}

void Scheduler::sift_down(std::size_t i) {
  // Bottom-up heapify (Wegener): the element being sifted is the old
  // *last leaf*, which almost always belongs near the bottom — so first
  // walk the hole all the way down along the min-child path (no
  // compare-against-v per level, saving a data-dependent branch), then
  // sift v back up the few (usually zero) levels it needs.  Any valid
  // heap arrangement pops the same strict (time, seq) order, so results
  // are bit-identical to the classic top-down sift.
  const std::size_t n = heap_.size();
  Entry v = heap_[i];
  std::size_t first;
  while ((first = i * kArity + 1) + kArity <= n) {
    // Full child group: pick the min by pairwise tournament.  A linear
    // "scan for min" makes each load/compare depend on the previous
    // one; the tournament issues all four (independent, contiguous)
    // loads at once and is latency-bound on only two compare levels.
    std::size_t a = first + (before(heap_[first + 1], heap_[first]) ? 1 : 0);
    std::size_t b =
        first + 2 + (before(heap_[first + 3], heap_[first + 2]) ? 1 : 0);
    std::size_t best = before(heap_[b], heap_[a]) ? b : a;
    heap_[i] = heap_[best];
    i = best;
  }
  if (first < n) {  // partial group at the bottom edge
    std::size_t best = first;
    for (std::size_t c = first + 1; c < n; ++c)
      if (before(heap_[c], heap_[best])) best = c;
    heap_[i] = heap_[best];
    i = best;
  }
  while (i > 0) {
    std::size_t parent = (i - 1) / kArity;
    if (!before(v, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = v;
}

}  // namespace abw::sim
