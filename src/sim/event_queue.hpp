// Pending-event set of the discrete-event kernel.
//
// Ordering is total: (time, priority, sequence). Sequence is the insertion
// order, so two events scheduled for the same instant at the same priority
// fire in the order they were scheduled — a property the TDMA bus model and
// the determinism tests both rely on.
//
// Storage is sharded: every shard owns a slab of free-listed event nodes
// and two lanes of (time, prio, seq, slot) entries — a binary heap and a
// *run*, a sim::Ring whose entries are in firing order. A push that fires
// at or after the run's back is appended to the run in O(1); only
// out-of-order pushes sift through the heap. Self-rescheduling chains (a
// vehicle's next epoch, a periodic tick) mostly arrive in firing order, so
// their entries never touch the heap: the one-bucket case of a calendar
// queue (Brown, CACM 31(10), 1988). The shard's head is the earlier of the
// run front and the heap top; since (time, prio, seq) has no ties, that is
// the shard minimum and the pop order is exactly a single heap's. Both
// lanes keep their capacity when drained, and every closure lives inline
// in its node (see event_fn.hpp), so the steady-state push/pop cycle
// allocates nothing and never touches another shard's memory.
//
// A fleet simulation gives each cluster its own shard: the cluster's
// events stay cache-local while the queue still yields one globally
// ordered stream. The shard heads are merged by a tournament (winner) tree
// — pop is O(log n_shard + log shards) — and because the sequence counter
// is global, the pop order is *identical for every shard assignment*:
// `shards = 1` reproduces the historical single-slab kernel bit for bit.
//
// Handles are generation-tagged: cancelling an event that already fired,
// was already cancelled, or whose slot has since been reused is a
// detectable no-op, and cancellation itself is O(1) — the node is
// tombstoned and its lane entry discarded lazily, except when it sits at
// the run front or the heap top, where it is collected eagerly so both
// fronts stay live and the tournament tree only ever compares live heads.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/ring.hpp"
#include "sim/time.hpp"

namespace decos::sim {

/// Priority classes for same-instant events. Lower fires first.
enum class EventPriority : std::uint8_t {
  kClock = 0,     // clock ticks / slot boundaries
  kTransport = 1, // frame delivery
  kApplication = 2,
  kFault = 3,     // fault activation/deactivation
  kDiagnosis = 4, // observers run after everything else at an instant
};

/// Handle to a scheduled event: shard + slot index + generation. The
/// generation is bumped every time the slot is recycled, so a stale handle
/// (fired, cancelled, or reused slot) can never hit a different event. The
/// default-constructed id is invalid and safe to cancel.
struct EventId {
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;
  std::uint32_t shard = 0;

  [[nodiscard]] constexpr bool valid() const { return gen != 0; }
  friend constexpr bool operator==(const EventId&, const EventId&) = default;
};

class EventQueue {
 public:
  /// A queue with `shards` independent shards (>= 1). Shard count is
  /// fixed for the queue's lifetime.
  explicit EventQueue(std::uint32_t shards = 1);

  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

  /// Adds an event to shard 0; returns its id. The callable's capture is
  /// stored inline in the event node — no heap allocation in steady state.
  template <typename F>
  EventId push(SimTime when, EventPriority prio, F&& fn) {
    return push_on(0, when, prio, std::forward<F>(fn));
  }

  /// Adds an event to the given shard. Requires shard < shard_count().
  template <typename F>
  EventId push_on(std::uint32_t shard, SimTime when, EventPriority prio,
                  F&& fn) {
    Shard& sh = shards_[shard];
    const std::uint32_t slot = acquire_slot(sh);
    sh.pool[slot].fn.emplace(std::forward<F>(fn));
    return finish_push(shard, slot, when, prio);
  }

  /// Cancels the event in O(1) (plus a tournament replay when the event
  /// sat at a lane front). Returns true iff the handle named a pending
  /// event; stale handles (already fired, already cancelled,
  /// default-constructed, or recycled slot) are rejected without touching
  /// any counter — empty()/size() stay truthful either way.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest live event across all shards. Requires !empty().
  [[nodiscard]] SimTime next_time() const;

  /// Removes and returns the earliest live event. Requires !empty().
  struct Fired {
    SimTime time;
    EventFn fn;
    std::uint32_t shard;
  };
  Fired pop();

  /// Pushes so far that arrived out of firing order and took a shard's
  /// heap lane instead of its run (a machine-independent work count).
  [[nodiscard]] std::uint64_t heap_pushes() const { return heap_pushes_; }

 private:
  /// One slab slot. Either holds a pending event (its slot is referenced
  /// by exactly one lane entry) or sits on the free list with its
  /// generation already bumped.
  struct Node {
    SimTime time;
    std::uint64_t seq = 0;
    EventFn fn;
    std::uint32_t gen = 1;  // 0 is reserved for the invalid EventId
    EventPriority prio = EventPriority::kApplication;
    bool cancelled = false;
  };
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    EventPriority prio;
  };
  /// The total firing order (time, prio, seq).
  static bool fires_before(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.prio != b.prio) return a.prio < b.prio;
    return a.seq < b.seq;
  }
  /// Heap comparator: the entry that fires last sorts first-removed-last.
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return fires_before(b, a);
    }
  };
  /// One shard: slab + free list + heap + run. Nothing in a shard is ever
  /// touched by operations on another shard.
  struct Shard {
    std::vector<Node> pool;
    std::vector<std::uint32_t> free;
    std::vector<HeapEntry> heap;
    /// Entries in firing order (see the file comment).
    Ring<HeapEntry> run;

    [[nodiscard]] bool idle() const { return heap.empty() && run.empty(); }
    /// True iff the shard's head is the run front (false when the run is
    /// empty): the earlier of the two lane fronts.
    [[nodiscard]] bool run_leads() const {
      return !run.empty() &&
             (heap.empty() || fires_before(run.front(), heap.front()));
    }
    /// The shard's earliest entry. Requires !idle().
    [[nodiscard]] const HeapEntry& head() const {
      return run_leads() ? run.front() : heap.front();
    }
  };

  static constexpr std::uint32_t kNoShard = 0xFFFFFFFFu;

  [[nodiscard]] std::uint32_t acquire_slot(Shard& sh);
  EventId finish_push(std::uint32_t shard, std::uint32_t slot, SimTime when,
                      EventPriority prio);
  /// Recycles a slot: bumps the generation (invalidating outstanding
  /// handles) and returns it to its shard's free list.
  void free_slot(Shard& sh, std::uint32_t slot);
  /// Discards tombstoned entries at the run front and the heap top of
  /// `shard`, restoring the live-fronts invariant the tournament tree and
  /// next_time() rely on.
  void drop_dead(std::uint32_t shard);
  /// Re-seeds leaf `shard` of the tournament tree from its head and
  /// replays the matches up to the root. No-op with a single shard.
  void replay(std::uint32_t shard);
  /// Shard whose head fires first (the tree root). Requires !empty().
  [[nodiscard]] std::uint32_t winner() const {
    return shard_count() == 1 ? 0 : tree_[1];
  }
  /// True iff shard `a`'s head fires before shard `b`'s (empty loses).
  [[nodiscard]] bool head_before(std::uint32_t a, std::uint32_t b) const;

  std::vector<Shard> shards_;
  /// Tournament winner tree over the shard heads: leaves_ + s holds shard
  /// s (or kNoShard when both its lanes are empty); internal node i holds
  /// the winner of its two children; tree_[1] is the overall winner. Sized
  /// once at construction — the merge allocates nothing. Empty when
  /// shard_count() == 1 (the degenerate case skips the tree entirely).
  std::vector<std::uint32_t> tree_;
  std::size_t leaves_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::uint64_t heap_pushes_ = 0;
};

}  // namespace decos::sim
