// Growable ring-buffer FIFO for the link output queue.
//
// std::deque allocates and frees a storage block every ~10 packets as the
// queue head and tail cross block boundaries, so a saturated link mallocs
// on the steady-state path.  This ring grows geometrically (power-of-two
// capacity) and never shrinks: after warm-up, push/pop are branch-cheap
// index arithmetic with zero allocations.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace abw::sim {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  void push_back(const T& v) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & mask_] = v;
    ++count_;
  }

  void push_back(T&& v) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & mask_] = std::move(v);
    ++count_;
  }

  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }

  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --count_;
  }

  /// Pre-sizes the buffer to at least `n` slots (rounded up to a power of
  /// two); never shrinks.
  void reserve(std::size_t n) {
    while (buf_.size() < n) grow();
  }

 private:
  void grow() {
    std::size_t new_cap = buf_.empty() ? 16 : buf_.size() * 2;
    std::vector<T> next(new_cap);
    for (std::size_t i = 0; i < count_; ++i)
      next[i] = std::move(buf_[(head_ + i) & mask_]);
    buf_ = std::move(next);
    head_ = 0;
    mask_ = new_cap - 1;
  }

  std::vector<T> buf_;  // capacity always a power of two (or empty)
  std::size_t mask_ = 0;  // buf_.size() - 1 once allocated
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace abw::sim
