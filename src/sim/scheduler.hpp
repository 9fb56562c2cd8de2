// Event scheduler: a time-ordered queue of callbacks.  Ties are broken by
// insertion order so simulations are fully deterministic.
//
// Hot-path layout (PR 2): callbacks live in a chunked slab of pooled
// slots recycled through a free list.  Chunks are never reallocated, so
// slot addresses are stable — events are emplaced directly into their
// slot when scheduled and executed in place when popped, with zero heap
// allocations and zero callback moves at steady state (the callback type
// stores its capture inline; see callback.hpp).  Ordering lives in a
// separate array of plain 16-byte (time, seq·slot) records: a sorted run
// while few events are pending, a 4-ary min-heap while many are.  The
// observable behavior — FIFO tie-breaks, the schedule-in-the-past
// contract — is bit-identical to the previous std::function binary-heap
// implementation (pinned by tests/golden_determinism_test.cpp).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace abw::sim {

/// Minimal discrete-event scheduler.  Not thread-safe; the simulation is
/// single-threaded by design.  The owner (Simulator) pops an event,
/// advances its clock to the event time, and only then runs the callback —
/// so callbacks always observe the correct current time (see
/// pop_and_run(), whose on_pop hook runs between the two).
class Scheduler {
 public:
  using Callback = SmallCallback;

  /// An event popped from the queue (the pop() API; the Simulator run
  /// loop uses pop_and_run() instead, which never moves the callback).
  struct Event {
    SimTime time;
    std::uint64_t seq;  // FIFO tie-break
    Callback cb;
  };

  /// Schedules `cb` to fire at absolute time `t`.  `t` must not be earlier
  /// than the most recently popped event time; scheduling in the past is a
  /// causality bug, so it throws std::logic_error instead of silently
  /// reordering history.  `t` equal to the last popped time is allowed.
  void schedule(SimTime t, Callback cb) {
    std::uint32_t slot = acquire_slot(t);
    slot_ref(slot) = std::move(cb);
    push_entry(t, slot);
  }

  /// Same contract as schedule(), but constructs the callable directly in
  /// its pooled slot — the allocation- and move-free fast path.
  template <typename F>
  void schedule_emplace(SimTime t, F&& f) {
    std::uint32_t slot = acquire_slot(t);
    slot_ref(slot).emplace(std::forward<F>(f));
    push_entry(t, slot);
  }

  /// Takes the next sequence number without scheduling anything, so an
  /// event keeps the tie-break position of this moment while it is
  /// queued later, with schedule_reserved().  Only EventLine
  /// (sim/event_line.hpp) reserves.
  std::uint64_t reserve_seq() { return take_seq(); }

  /// Schedules `f` at `t` under `seq`, a number from reserve_seq() that
  /// no event carries yet.  The (t, seq) key must sort after the most
  /// recently popped event: a key at or before it throws
  /// std::logic_error, as does a number that was never reserved.
  template <typename F>
  void schedule_reserved(SimTime t, std::uint64_t seq, F&& f) {
    if (t < last_popped_ || (t == last_popped_ && seq < popped_seq_end_) ||
        seq >= next_seq_)
      throw_bad_reserved();
    std::uint32_t slot = acquire_slot(t);
    slot_ref(slot).emplace(std::forward<F>(f));
    insert(Entry{t, (seq << kSlotBits) | slot});
  }

  /// True when no events remain.
  bool empty() const { return heap_.size() == head_; }

  /// Time of the earliest pending event; throws std::logic_error when the
  /// queue is empty (like pop() — callers must check empty() first).
  SimTime next_time() const;

  /// next_time() without the empty check — for run loops that already
  /// test empty() every step and can't pay an out-of-line call per event.
  /// Precondition: !empty().
  SimTime next_time_unchecked() const { return heap_[head_].time; }

  /// Removes and returns the earliest event (does NOT run it).
  Event pop();

  /// Removes the earliest event and runs its callback in place (no move
  /// out of the pool).  `on_pop(time)` fires after the queue is updated
  /// but before the callback, so the owner can advance its clock first.
  /// Throws std::logic_error when empty.
  template <typename OnPop>
  void pop_and_run(OnPop&& on_pop) {
    Entry top = remove_top();
    on_pop(top.time);
    Callback& cb = slot_ref(top.slot());  // stable address: chunks never move
    cb();                                 // may schedule events re-entrantly
    cb.clear();
    free_slots_.push_back(top.slot());
  }

  /// Number of pending events.
  std::size_t size() const { return heap_.size() - head_; }

  /// High-water mark of pending events over the scheduler's lifetime.
  std::size_t peak_size() const { return peak_size_; }

  /// Number of pooled callback slots ever created; stops growing once the
  /// free list satisfies the steady-state churn.
  std::size_t pool_capacity() const { return chunks_.size() * kChunkSize; }

  /// Pre-sizes the heap, slot pool, and free list for `n` concurrent
  /// events.
  void reserve(std::size_t n);

 private:
  /// Heap record: the ordering key plus the slot holding the callback,
  /// packed to 16 bytes so a full 4-child group spans one cache line and
  /// sift operations move half as much memory.  The sequence number and
  /// slot id share one word: seq in the high 40 bits, slot in the low 24.
  /// Because seq values are unique, comparing the packed word compares
  /// seq — the FIFO tie-break is unchanged.  Limits (checked, not
  /// silent): 2^40 ≈ 1.1e12 events per Scheduler lifetime and 2^24 ≈
  /// 16.7M concurrently pending events.
  struct Entry {
    SimTime time;
    std::uint64_t seq_slot;

    std::uint64_t seq() const { return seq_slot >> kSlotBits; }
    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seq_slot & (kSlotCapacity - 1));
    }
  };
  static_assert(sizeof(Entry) == 16);

  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotCapacity = std::uint64_t{1} << kSlotBits;
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << 40;

  /// Growable Entry array whose logical index 0 sits 3 slots past a
  /// 64-byte-aligned base.  A 4-ary heap's child groups start at logical
  /// index 4i+1 — physical 4i+4, a multiple of four 16-byte entries — so
  /// every child group occupies exactly one cache line and each sift
  /// level touches one line instead of (on average) two.
  class EntryVec {
   public:
    EntryVec() = default;
    EntryVec(const EntryVec&) = delete;
    EntryVec& operator=(const EntryVec&) = delete;
    ~EntryVec() { std::free(raw_); }

    Entry& operator[](std::size_t i) { return base_[i]; }
    const Entry& operator[](std::size_t i) const { return base_[i]; }
    Entry& front() { return base_[0]; }
    const Entry& front() const { return base_[0]; }
    Entry& back() { return base_[size_ - 1]; }
    Entry* begin() { return base_; }
    Entry* end() { return base_ + size_; }
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    bool full() const { return size_ == cap_; }

    void push_back(const Entry& e) {
      if (size_ == cap_) grow(size_ + 1);
      base_[size_++] = e;
    }
    void pop_back() { --size_; }
    void clear() { size_ = 0; }
    // Drops the first k entries, moving the rest to the front.
    void drop_front(std::size_t k) {
      std::memmove(base_, base_ + k, (size_ - k) * sizeof(Entry));
      size_ -= k;
    }
    void reserve(std::size_t n) {
      if (n > cap_) grow(n);
    }

   private:
    void grow(std::size_t need) {
      std::size_t cap = cap_ != 0 ? cap_ * 2 : 61;  // 61+3 slots = 1 KiB
      if (cap < need) cap = need;
      std::size_t bytes = (((cap + kPad) * sizeof(Entry)) + 63) / 64 * 64;
      void* raw = std::aligned_alloc(64, bytes);
      if (raw == nullptr) throw std::bad_alloc();
      Entry* base = static_cast<Entry*>(raw) + kPad;
      if (size_ != 0) std::memcpy(base, base_, size_ * sizeof(Entry));
      std::free(raw_);
      raw_ = raw;
      base_ = base;
      cap_ = cap;
    }

    static constexpr std::size_t kPad = 3;  // phys = logical + 3
    void* raw_ = nullptr;
    Entry* base_ = nullptr;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
  };

  // Slots live in fixed-size chunks so growing the pool never moves
  // existing callbacks (an executing callback may grow the pool
  // re-entrantly) and pool growth is O(1), not an O(n) vector realloc.
  static constexpr std::size_t kChunkShift = 9;  // 512 slots = 32 KiB/chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  static bool before(const Entry& a, const Entry& b) {
    // seq_slot carries seq in its high bits; seqs are unique, so this is
    // exactly the (time, seq) lexicographic order.  Compared as one
    // 128-bit key: heap comparisons are coin flips, so the short-circuit
    // form mispredicts ~50% of the time — a branchless cmp/sbb pair made
    // the whole drain path ~40% faster.  Times are non-negative (the
    // schedule-in-the-past check enforces t >= last_popped_ >= 0), so the
    // signed->unsigned cast preserves order.
#if defined(__SIZEOF_INT128__)
    const auto key = [](const Entry& e) {
      return static_cast<unsigned __int128>(static_cast<std::uint64_t>(e.time))
                 << 64 |
             e.seq_slot;
    };
    return key(a) < key(b);
#else
    return a.time < b.time || (a.time == b.time && a.seq_slot < b.seq_slot);
#endif
  }

  Callback& slot_ref(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  // The schedule-side fast path is inline (one event = one of these per
  // packet); slow paths (chunk growth, overflow, the past-check throw)
  // stay out of line.
  std::uint32_t acquire_slot(SimTime t) {
    if (t < last_popped_) throw_past_event();
    if (!free_slots_.empty()) {
      std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    return acquire_fresh_slot();
  }

  std::uint64_t take_seq() {
    if (next_seq_ >= kSeqLimit) throw_seq_overflow();
    return next_seq_++;
  }

  void push_entry(SimTime t, std::uint32_t slot) {
    insert(Entry{t, (take_seq() << kSlotBits) | slot});
  }

  void insert(const Entry& e) {
    if (!sorted_ || size() >= kSortedMax) {
      if (sorted_) to_heap();
      heap_.push_back(e);
      sift_up(heap_.size() - 1);
    } else {
      // Walk in from the back: a new event usually falls due after most
      // of those pending (a delivery after propagation, a source's next
      // arrival), so it settles within a few steps.
      if (heap_.full() && head_ != 0) compact();
      std::size_t i = heap_.size();
      heap_.push_back(e);
      while (i > head_ && before(e, heap_[i - 1])) {
        heap_[i] = heap_[i - 1];
        --i;
      }
      heap_[i] = e;
    }
    if (size() > peak_size_) peak_size_ = size();
  }

  Entry remove_top() {  // pops the earliest entry, updates last_popped_
    if (empty()) throw_pop_empty();
#if defined(__GNUC__)
    // The callback slot is a data-dependent load; start it while the
    // heap below reshuffles.
    __builtin_prefetch(&slot_ref(heap_[head_].slot()));
#endif
    Entry top{};
    if (sorted_) {
      top = heap_[head_++];
      if (head_ == heap_.size()) {
        heap_.clear();
        head_ = 0;
      }
    } else {
      top = remove_heap_top();
    }
    last_popped_ = top.time;
    popped_seq_end_ = top.seq() + 1;
    return top;
  }

  void compact() {  // sorted run: move the live entries to the front
    heap_.drop_front(head_);
    head_ = 0;
  }

  void sift_up(std::size_t i) {
    Entry v = heap_[i];
    while (i > 0) {
      std::size_t parent = (i - 1) / kArity;
      if (!before(v, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = v;
  }

  [[noreturn]] static void throw_past_event();
  [[noreturn]] static void throw_seq_overflow();
  [[noreturn]] static void throw_bad_reserved();
  [[noreturn]] static void throw_pop_empty();
  std::uint32_t acquire_fresh_slot();  // free list empty: grow the slab
  void to_heap();                      // the sorted run becomes the heap
  Entry remove_heap_top();  // heap mode: pop the root, maybe sort again
  void sift_down(std::size_t i);

  static constexpr std::size_t kArity = 4;
  // Mode thresholds on the pending count.  A sorted run pops in O(1) and
  // inserts by a walk from the back, which stays short while few events
  // are pending; past kSortedMax a random insert would shift too much,
  // so the run becomes a heap.  The heap is sorted back into a run when
  // it drains to kSortedMin; the gap keeps a count that hovers near
  // either threshold from switching on every event.
  static constexpr std::size_t kSortedMax = 64;
  static constexpr std::size_t kSortedMin = 16;

  // The pending keys.  Sorted mode: heap_[head_, size) in (time, seq)
  // order, earliest first.  Heap mode: a 4-ary min-heap on (time, seq),
  // with head_ = 0 and child groups cache-line aligned.
  EntryVec heap_;
  std::size_t head_ = 0;
  bool sorted_ = true;
  std::vector<std::unique_ptr<Callback[]>> chunks_;  // stable slot slab
  std::vector<std::uint32_t> free_slots_;            // recycled slot ids
  std::uint32_t next_fresh_slot_ = 0;  // first never-used slot id
  std::uint64_t next_seq_ = 0;
  SimTime last_popped_ = 0;
  std::uint64_t popped_seq_end_ = 0;  // last popped seq + 1; 0 before any pop
  std::size_t peak_size_ = 0;
};

}  // namespace abw::sim
