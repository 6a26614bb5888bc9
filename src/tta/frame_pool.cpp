#include "tta/frame_pool.hpp"

namespace decos::tta {

std::shared_ptr<FramePool> FramePool::create(std::size_t soft_cap) {
  auto pool = std::shared_ptr<FramePool>(new FramePool(soft_cap));
  // Pre-size the bookkeeping so steady-state acquire/release never grows
  // either vector (the slot frames themselves warm up their payload
  // capacity on first use).
  pool->slots_.reserve(soft_cap);
  pool->free_.reserve(soft_cap);
  return pool;
}

FrameHandle FramePool::acquire() {
  std::uint32_t idx = 0;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    if (slots_.size() >= soft_cap_) ++fallback_acquires_;
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::make_unique<Slot>());
  }
  Slot& s = *slots_[idx];
  // Reset field by field: clear() keeps the recycled payload capacity.
  s.frame.sender = kInvalidNode;
  s.frame.slot = 0;
  s.frame.round = 0;
  s.frame.membership = 0;
  s.frame.payload.clear();
  s.frame.crc = 0;
  s.refs = 1;
  s.crc_verdict = CrcVerdict::kUnknown;
  ++in_use_;
  return {shared_from_this(), idx};
}

FrameHandle FramePool::acquire(const Frame& src) {
  FrameHandle h = acquire();
  // Vector copy-assignment reuses the recycled slot's payload capacity, so
  // a warmed-up pool serves this without touching the allocator.
  slots_[h.slot_]->frame = src;
  return h;
}

void FramePool::release(std::uint32_t slot) {
  Slot& s = *slots_[slot];
  if (--s.refs == 0) {
    --in_use_;
    free_.push_back(slot);
  }
}

}  // namespace decos::tta
