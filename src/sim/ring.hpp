// Grow-to-high-water FIFO ring.
//
// Two hot paths need a FIFO whose steady push/pop cycle never touches the
// heap: the vnet mux's per-port queues and the event queue's run lane. A
// std::deque pays a block allocation every time that cycle crosses a block
// boundary — a perpetual allocation trickle. This ring keeps one contiguous
// buffer of a power-of-two capacity, indexed through a mask. When full it
// unwraps into a buffer twice the size; capacity is kept when it drains, so
// a warmed ring never grows again. A slot is appended to the buffer the
// first time the ring reaches it, so, like a std::vector, the ring only
// touches memory it has used.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace decos::sim {

template <typename T>
class Ring {
 public:
  [[nodiscard]] bool empty() const { return len_ == 0; }
  [[nodiscard]] std::size_t size() const { return len_; }
  /// Slots reserved (0 or a power of two); kept when the ring drains.
  [[nodiscard]] std::size_t capacity() const { return cap_; }

  /// Oldest element. Requires !empty().
  [[nodiscard]] T& front() { return buf_[head_]; }
  [[nodiscard]] const T& front() const { return buf_[head_]; }

  /// Newest element. Requires !empty().
  [[nodiscard]] T& back() { return buf_[index(len_ - 1)]; }
  [[nodiscard]] const T& back() const { return buf_[index(len_ - 1)]; }

  void push_back(const T& v) {
    const std::size_t at = index(len_);
    if (len_ != cap_ && at != buf_.size()) {
      buf_[at] = v;
    } else {
      append(v);
    }
    ++len_;
  }

  /// Requires !empty().
  void pop_front() {
    head_ = index(1);
    --len_;
  }

 private:
  static constexpr std::size_t kFirstCapacity = 8;

  [[nodiscard]] std::size_t index(std::size_t offset) const {
    return (head_ + offset) & (cap_ - 1);
  }

  /// Writes `v` when the ring is full or reaches a slot for the first
  /// time. The write position only moves forward round the ring, so in
  /// both cases it is buf_.size(). Kept out of line so push_back stays
  /// small enough to inline at every call site.
  [[gnu::noinline]] void append(const T& v) {
    if (len_ == cap_) grow();
    buf_.push_back(v);
  }

  void grow() {
    // Full, so buf_ holds exactly the live entries: unwrap them in place,
    // oldest first, then double the reservation.
    std::rotate(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_),
                buf_.end());
    cap_ = cap_ == 0 ? kFirstCapacity : 2 * cap_;
    buf_.reserve(cap_);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;
  std::size_t len_ = 0;
};

}  // namespace decos::sim
