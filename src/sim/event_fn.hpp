// Allocation-free event callables.
//
// The kernel fires tens of millions of events per simulated second, and
// every one used to carry a std::function — one heap allocation per
// scheduled event for any capture list beyond a pointer or two. EventFn
// replaces it with a small-buffer-optimized move-only functor: captures up
// to kInlineCapacity bytes live inside the event node itself, and larger
// closures spill into a SpillArena, a size-class free-list allocator whose
// blocks are recycled forever — so the steady-state scheduling path touches
// the global heap zero times (see bench_kernel_hotpath, E18).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace decos::sim {

/// Size-class free-list allocator backing oversized event closures.
///
/// Blocks are carved out of 4 KiB chunks and returned to a per-class free
/// list on release, never to the global heap — after warm-up, spilling a
/// closure is a pointer pop. Closures beyond the largest class fall back to
/// operator new (none exist in the tree today; the fallback keeps the
/// kernel correct if one appears). Single-threaded, like the simulator
/// that owns it.
class SpillArena {
 public:
  SpillArena() = default;
  SpillArena(const SpillArena&) = delete;
  SpillArena& operator=(const SpillArena&) = delete;
  ~SpillArena();

  [[nodiscard]] void* allocate(std::size_t size);
  void release(void* p, std::size_t size) noexcept;

  /// Chunks fetched from the heap so far (a warm arena stops growing).
  [[nodiscard]] std::size_t chunks() const { return chunks_.size(); }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };
  static constexpr std::size_t kClassSize[4] = {64, 128, 256, 512};
  static constexpr std::size_t kChunkBytes = 4096;

  /// Smallest class fitting `size`, or -1 for oversize.
  [[nodiscard]] static int size_class(std::size_t size) noexcept;

  FreeBlock* free_[4] = {nullptr, nullptr, nullptr, nullptr};
  std::vector<std::unique_ptr<unsigned char[]>> chunks_;
};

/// Move-only `void()` callable with inline storage for small captures and
/// arena-backed spill for large ones. Filled only by the event queue, in
/// place via emplace() (which takes the shard's arena); events and timers
/// hand plain lambdas to Simulator::schedule_* exactly as before.
class EventFn {
 public:
  /// Inline capture budget. Covers every closure on the simulation hot
  /// path (slot chains, timer ticks, frame deliveries capture well under
  /// this); bigger closures still work, they just spill to the arena.
  static constexpr std::size_t kInlineCapacity = 48;

  EventFn() = default;

  EventFn(EventFn&& other) noexcept { steal(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  /// Constructs the callable directly in this functor's storage (after
  /// destroying any previous one), so an event node is filled without a
  /// temporary EventFn and its relocate.
  template <typename F>
  void emplace(F&& f, SpillArena* arena) {
    using Fn = std::decay_t<F>;
    reset();
    static_assert(std::is_invocable_v<Fn&>,
                  "event callable must be invocable with no arguments");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned event closures are not supported");
    if constexpr (sizeof(Fn) <= kInlineCapacity &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    } else {
      void* p = arena->allocate(sizeof(Fn));
      ::new (p) Fn(std::forward<F>(f));
      heap_ = p;
      arena_ = arena;
    }
    ops_ = &OpsFor<Fn>::kOps;
  }

  void operator()() { ops_->invoke(target()); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Whether the capture lives in the arena rather than inline.
  [[nodiscard]] bool spilled() const { return arena_ != nullptr; }

  /// Destroys the capture (returning any spill block to its arena) and
  /// leaves the functor empty.
  void reset() noexcept {
    if (!ops_) return;
    ops_->destroy(target());
    if (arena_) arena_->release(heap_, ops_->size);
    ops_ = nullptr;
    arena_ = nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
    std::size_t size;
  };

  template <typename Fn>
  struct OpsFor {
    static void invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
      static_cast<Fn*>(src)->~Fn();
    }
    static void destroy(void* p) noexcept { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops kOps{&invoke, &relocate, &destroy, sizeof(Fn)};
  };

  [[nodiscard]] void* target() { return arena_ ? heap_ : buf_; }

  void steal(EventFn& other) noexcept {
    ops_ = other.ops_;
    arena_ = other.arena_;
    if (ops_) {
      if (arena_) {
        heap_ = other.heap_;
      } else {
        ops_->relocate(buf_, other.buf_);
      }
    }
    other.ops_ = nullptr;
    other.arena_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  SpillArena* arena_ = nullptr;  // non-null iff the capture spilled
  union {
    void* heap_ = nullptr;
    alignas(alignof(std::max_align_t)) unsigned char buf_[kInlineCapacity];
  };
};

}  // namespace decos::sim
