// Allocation-free event callables.
//
// The kernel fires tens of millions of events per simulated second, and
// every one used to carry a std::function — one heap allocation per
// scheduled event for any capture list beyond a pointer or two. EventFn
// replaces it with a move-only functor whose capture lives inside the
// event node itself, in a kInlineCapacity-byte buffer, so the scheduling
// path touches the global heap zero times (see bench_kernel_hotpath, E18).
// A closure that does not fit, or whose move can throw, fails to compile:
// capture a pointer to bigger state instead.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace decos::sim {

/// Move-only `void()` callable with inline storage. Filled only by the
/// event queue, in place via emplace(); events and timers hand plain
/// lambdas to Simulator::schedule_*.
class EventFn {
 public:
  /// Inline capture budget. Covers every closure in the tree (slot
  /// chains, timer ticks, frame deliveries capture well under this).
  static constexpr std::size_t kInlineCapacity = 48;

  /// Whether emplace() accepts a closure of type `F`: invocable with no
  /// arguments, at most kInlineCapacity bytes, not over-aligned, and
  /// nothrow-movable (a node's capture is relocated when the slab grows).
  template <typename F, typename Fn = std::decay_t<F>>
  static constexpr bool fits_inline =
      std::is_invocable_v<Fn&> && sizeof(Fn) <= kInlineCapacity &&
      alignof(Fn) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<Fn>;

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
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(fits_inline<F>,
                  "event closures must be invocable with no arguments, fit "
                  "EventFn::kInlineCapacity bytes and move without throwing");
    reset();
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::kOps;
  }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Destroys the capture and leaves the functor empty.
  void reset() noexcept {
    if (!ops_) return;
    ops_->destroy(buf_);
    ops_ = nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  struct OpsFor {
    static void invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
      static_cast<Fn*>(src)->~Fn();
    }
    static void destroy(void* p) noexcept { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops kOps{&invoke, &relocate, &destroy};
  };

  void steal(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_) ops_->relocate(buf_, other.buf_);
    other.ops_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  alignas(alignof(std::max_align_t)) unsigned char buf_[kInlineCapacity];
};

}  // namespace decos::sim
