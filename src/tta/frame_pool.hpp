// Ref-counted frame pool: one sealed frame per transmission, shared by
// every receiver, copied only when a channel fault actually corrupts a
// receiver's copy (copy-on-corrupt).
//
// Bus::transmit used to clone the frame once per receiver so channel
// faults could stay receiver-local — N-1 payload copies (and, before the
// kernel rewrite, N-1 heap allocations) per round for a property that is
// only needed in the rare instant a fault fires. The pool inverts that:
// the master frame is copied exactly once into a slab slot, every
// delivery event holds an intrusive ref-counted handle to that slot, and
// a receiver whose channel fault mutates the bytes gets its own private
// slot at that moment. Slots recycle through a free list with their
// payload capacity intact, so the steady-state transmit path allocates
// nothing (E22).
//
// Each slot also caches its CRC verdict (unknown / ok / bad). A sender
// that builds its frame in a slot and seals it there (FrameHandle::seal())
// records `ok` at once: the CRC it just computed matches the bytes by
// construction, so a fault-free transmission is never CRC-checked on the
// receive side at all. Otherwise the first FrameHandle::crc_ok() on a slot
// runs the CRC and every later receiver of the same broadcast reads the
// cached verdict. acquire() and mutate() reset the verdict, and mutation
// is legal only on an unshared slot, so a shared slot's verdict can never
// go stale.
//
// Handles also pin the pool itself (shared_ptr), so a delivery event that
// is still queued when the cluster is torn down — or a receiver that still
// holds the frame of its open slot — destroys its handle safely regardless
// of destruction order.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "tta/frame.hpp"

namespace decos::tta {

class FramePool;

/// Intrusive ref-counted view of one pooled frame. Copying a handle is
/// two counter increments; destroying the last handle returns the slot to
/// the pool's free list (payload capacity kept).
class FrameHandle {
 public:
  FrameHandle() = default;
  FrameHandle(const FrameHandle& other);
  FrameHandle& operator=(const FrameHandle& other);
  FrameHandle(FrameHandle&& other) noexcept;
  FrameHandle& operator=(FrameHandle&& other) noexcept;
  ~FrameHandle();

  [[nodiscard]] explicit operator bool() const { return pool_ != nullptr; }
  [[nodiscard]] const Frame& operator*() const;
  [[nodiscard]] const Frame* operator->() const { return &**this; }

  /// Mutable access to the pooled frame. Legal only while this handle is
  /// the slot's sole owner (before it was shared with receivers) — the
  /// corrupt path must privatize first, never scribble on a shared slot.
  /// Resets the slot's cached CRC verdict, so do not keep writing through
  /// the returned reference after a later crc_ok(): call mutate() again.
  [[nodiscard]] Frame& mutate();

  /// Seals the frame in place (Frame::seal()) and records the slot's CRC
  /// verdict as ok, since the stored CRC now matches the bytes. Same
  /// ownership rule as mutate(); a later mutate() resets the verdict.
  void seal();

  /// The frame's CRC verdict (Frame::crc_ok()), computed on the slot's
  /// first call and served from the slot cache afterwards.
  [[nodiscard]] bool crc_ok() const;

  /// True when no other handle shares the slot.
  [[nodiscard]] bool unique() const;

  void reset();

 private:
  friend class FramePool;
  FrameHandle(std::shared_ptr<FramePool> pool, std::uint32_t slot)
      : pool_(std::move(pool)), slot_(slot) {}

  std::shared_ptr<FramePool> pool_;
  std::uint32_t slot_ = 0;
};

class FramePool : public std::enable_shared_from_this<FramePool> {
 public:
  /// `soft_cap` bounds the slot count the pool considers healthy. Demand
  /// beyond it is still served (correctness first) but counted as a
  /// fallback acquire — the observable signal of pool exhaustion.
  [[nodiscard]] static std::shared_ptr<FramePool> create(
      std::size_t soft_cap = 256);

  /// A recycled (or new) slot holding a default frame with an empty
  /// payload, for a sender to build and seal its frame in place. The
  /// payload keeps the slot's capacity, so steady state allocates nothing.
  [[nodiscard]] FrameHandle acquire();

  /// Copies `src` into a recycled (or new) slot and returns the owning
  /// handle. Steady state: free-list pop + field copy + payload byte copy
  /// into retained capacity — no allocation.
  [[nodiscard]] FrameHandle acquire(const Frame& src);

  /// Copy-on-corrupt: clones the frame behind `shared` into a private
  /// slot the caller may mutate.
  [[nodiscard]] FrameHandle acquire_copy(const FrameHandle& shared) {
    return acquire(*shared);
  }

  [[nodiscard]] std::size_t slots() const { return slots_.size(); }
  [[nodiscard]] std::size_t in_use() const { return in_use_; }
  [[nodiscard]] std::size_t soft_cap() const { return soft_cap_; }
  /// Acquires that had to grow the pool past the soft cap.
  [[nodiscard]] std::uint64_t fallback_acquires() const {
    return fallback_acquires_;
  }
  /// Private copies made because a fault actually corrupted a delivery.
  [[nodiscard]] std::uint64_t corrupt_copies() const { return corrupt_copies_; }
  void count_corrupt_copy() { ++corrupt_copies_; }
  /// CRC evaluations run by crc_ok() — cache misses only. A frame sealed
  /// in its slot is never counted (E22 gate: zero per fault-free
  /// transmission, however many receivers verify it).
  [[nodiscard]] std::uint64_t crc_checks() const { return crc_checks_; }

 private:
  friend class FrameHandle;
  explicit FramePool(std::size_t soft_cap) : soft_cap_(soft_cap) {}

  enum class CrcVerdict : std::uint8_t { kUnknown, kOk, kBad };

  struct Slot {
    Frame frame;
    std::uint32_t refs = 0;
    CrcVerdict crc_verdict = CrcVerdict::kUnknown;
  };

  void add_ref(std::uint32_t slot) { ++slots_[slot]->refs; }
  void release(std::uint32_t slot);
  [[nodiscard]] bool crc_ok(std::uint32_t slot);

  std::size_t soft_cap_;
  std::size_t in_use_ = 0;
  std::uint64_t fallback_acquires_ = 0;
  std::uint64_t corrupt_copies_ = 0;
  std::uint64_t crc_checks_ = 0;
  /// Stable addresses: handles cache nothing, but Frame payload capacity
  /// must survive free-list recycling.
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::uint32_t> free_;
};

inline FrameHandle::FrameHandle(const FrameHandle& other)
    : pool_(other.pool_), slot_(other.slot_) {
  if (pool_) pool_->add_ref(slot_);
}

inline FrameHandle& FrameHandle::operator=(const FrameHandle& other) {
  if (this == &other) return *this;
  reset();
  pool_ = other.pool_;
  slot_ = other.slot_;
  if (pool_) pool_->add_ref(slot_);
  return *this;
}

inline FrameHandle::FrameHandle(FrameHandle&& other) noexcept
    : pool_(std::move(other.pool_)), slot_(other.slot_) {
  other.pool_ = nullptr;
}

inline FrameHandle& FrameHandle::operator=(FrameHandle&& other) noexcept {
  if (this == &other) return *this;
  reset();
  pool_ = std::move(other.pool_);
  slot_ = other.slot_;
  other.pool_ = nullptr;
  return *this;
}

inline FrameHandle::~FrameHandle() { reset(); }

inline void FrameHandle::reset() {
  if (!pool_) return;
  pool_->release(slot_);
  pool_ = nullptr;
}

inline const Frame& FrameHandle::operator*() const {
  return pool_->slots_[slot_]->frame;
}

inline Frame& FrameHandle::mutate() {
  assert(unique() && "mutating a shared slot would stale its CRC verdict");
  FramePool::Slot& s = *pool_->slots_[slot_];
  s.crc_verdict = FramePool::CrcVerdict::kUnknown;
  return s.frame;
}

inline void FrameHandle::seal() {
  mutate().seal();
  pool_->slots_[slot_]->crc_verdict = FramePool::CrcVerdict::kOk;
}

inline bool FrameHandle::crc_ok() const { return pool_->crc_ok(slot_); }

inline bool FramePool::crc_ok(std::uint32_t slot) {
  Slot& s = *slots_[slot];
  if (s.crc_verdict == CrcVerdict::kUnknown) {
    ++crc_checks_;
    s.crc_verdict = s.frame.crc_ok() ? CrcVerdict::kOk : CrcVerdict::kBad;
  }
  return s.crc_verdict == CrcVerdict::kOk;
}

inline bool FrameHandle::unique() const {
  return pool_ != nullptr && pool_->slots_[slot_]->refs == 1;
}

}  // namespace decos::tta
