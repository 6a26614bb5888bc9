#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace decos::sim {

namespace {

/// Smallest power of two >= n (n >= 1).
std::size_t ceil_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

EventQueue::EventQueue(std::uint32_t shards)
    : shards_(shards == 0 ? 1 : shards) {
  assert(shards >= 1);
  if (shards_.size() > 1) {
    leaves_ = ceil_pow2(shards_.size());
    tree_.assign(2 * leaves_, kNoShard);
  }
}

std::uint32_t EventQueue::acquire_slot(Shard& sh) {
  if (!sh.free.empty()) {
    const std::uint32_t slot = sh.free.back();
    sh.free.pop_back();
    return slot;
  }
  sh.pool.emplace_back();
  return static_cast<std::uint32_t>(sh.pool.size() - 1);
}

EventId EventQueue::finish_push(std::uint32_t shard, std::uint32_t slot,
                                SimTime when, EventPriority prio) {
  Shard& sh = shards_[shard];
  Node& n = sh.pool[slot];
  n.time = when;
  n.seq = next_seq_++;
  n.prio = prio;
  n.cancelled = false;
  const HeapEntry e{n.time, n.seq, slot, n.prio};
  // Sequence numbers only grow, so this reads "(time, prio) not before the
  // run's back": appending such an entry keeps the run sorted.
  if (sh.run.empty() || !fires_before(e, sh.run.back())) {
    sh.run.push_back(e);
  } else {
    sh.heap.push_back(e);
    std::push_heap(sh.heap.begin(), sh.heap.end(), Later{});
    ++heap_pushes_;
  }
  ++live_;
  // The tree only needs a replay when this entry became the shard's head
  // (or the shard was empty): interior entries cannot affect any match.
  if (shard_count() > 1 && sh.head().seq == e.seq) replay(shard);
  return EventId{slot, n.gen, shard};
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid() || id.shard >= shard_count()) return false;
  Shard& sh = shards_[id.shard];
  if (id.slot >= sh.pool.size()) return false;
  Node& n = sh.pool[id.slot];
  // A recycled slot has a bumped generation, so a stale handle can only
  // mismatch; an already-cancelled node is tombstoned exactly once.
  if (n.gen != id.gen || n.cancelled) return false;
  n.cancelled = true;
  n.fn.reset();  // release the capture right away
  assert(live_ > 0);
  --live_;
  // Tombstoning a lane front would leave next_time() or the tournament
  // tree reading a dead entry — collect it (and any tombstones it
  // uncovers) eagerly.
  if ((!sh.heap.empty() && sh.heap.front().slot == id.slot) ||
      (!sh.run.empty() && sh.run.front().slot == id.slot)) {
    drop_dead(id.shard);
    if (shard_count() > 1) replay(id.shard);
  }
  return true;
}

void EventQueue::free_slot(Shard& sh, std::uint32_t slot) {
  Node& n = sh.pool[slot];
  n.fn.reset();
  n.cancelled = false;
  if (++n.gen == 0) n.gen = 1;  // skip the reserved invalid generation
  sh.free.push_back(slot);
}

void EventQueue::drop_dead(std::uint32_t shard) {
  Shard& sh = shards_[shard];
  while (!sh.heap.empty() && sh.pool[sh.heap.front().slot].cancelled) {
    const std::uint32_t slot = sh.heap.front().slot;
    std::pop_heap(sh.heap.begin(), sh.heap.end(), Later{});
    sh.heap.pop_back();
    free_slot(sh, slot);
  }
  while (!sh.run.empty() && sh.pool[sh.run.front().slot].cancelled) {
    const std::uint32_t slot = sh.run.front().slot;
    sh.run.pop_front();
    free_slot(sh, slot);
  }
}

bool EventQueue::head_before(std::uint32_t a, std::uint32_t b) const {
  if (b == kNoShard) return true;
  if (a == kNoShard) return false;
  return fires_before(shards_[a].head(), shards_[b].head());
}

void EventQueue::replay(std::uint32_t shard) {
  std::size_t i = leaves_ + shard;
  tree_[i] = shards_[shard].idle() ? kNoShard : shard;
  while (i > 1) {
    i >>= 1;
    const std::uint32_t l = tree_[2 * i];
    const std::uint32_t r = tree_[2 * i + 1];
    tree_[i] = head_before(l, r) ? l : r;
  }
}

SimTime EventQueue::next_time() const {
  // The live-fronts invariant (drop_dead on every front mutation) means
  // the winner's head is the earliest live event — no lazy collection
  // needed here.
  const std::uint32_t w = winner();
  assert(w != kNoShard && !shards_[w].idle());
  return shards_[w].head().time;
}

EventQueue::Fired EventQueue::pop() {
  const std::uint32_t w = winner();
  Shard& sh = shards_[w];
  assert(!sh.idle());
  const bool from_run = sh.run_leads();
  const std::uint32_t slot =
      from_run ? sh.run.front().slot : sh.heap.front().slot;
  if (from_run) {
    sh.run.pop_front();
  } else {
    std::pop_heap(sh.heap.begin(), sh.heap.end(), Later{});
    sh.heap.pop_back();
  }
  Node& n = sh.pool[slot];
  assert(!n.cancelled);
  Fired fired{n.time, std::move(n.fn), w};
  free_slot(sh, slot);
  --live_;
  drop_dead(w);
  if (shard_count() > 1) replay(w);
  return fired;
}

}  // namespace decos::sim
