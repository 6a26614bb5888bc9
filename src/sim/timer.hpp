// First-class simulation timer.
//
// It replaces the old `schedule_periodic` free function, whose repeating
// tick was a shared_ptr-owned closure chain: every tick heap-allocated a
// fresh wrapper around the shared callback. A timer object owns its
// callback once; the event scheduled per firing captures only `this`
// (8 bytes, inline in the event node), so re-arming is allocation-free and
// the pending firing is cancellable at any time through the owning object —
// including from inside its own callback.
//
// Timers are intrusive: the object must outlive its pending event, which
// in practice means the timer is a member of the component that owns the
// behavior (see maintenance::MaintenanceExecutor::poll_timer_ or the
// fault-injector chains). Destruction cancels.
#pragma once

#include <functional>
#include <optional>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace decos::sim {

/// Repeating timer whose callback chooses the gap to its next firing —
/// a fixed period (the maintenance executor's poll loop, E18's ticks) or
/// a fault-specific interval (the fault injector's episode chains). The
/// callback returns the delay to the next firing, or nullopt to stop.
/// start() on a running timer restarts it.
class Timer {
 public:
  using NextFn = std::function<std::optional<Duration>()>;

  Timer() = default;
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() { cancel(); }

  /// Arms the timer: first firing at `first`; each firing schedules the
  /// next after the returned delay. Restarting from inside the callback is
  /// safe: the replacement callback is staged and swapped in at its first
  /// firing (the executing closure stays intact), and the restart
  /// overrides the old callback's return value.
  void start(Simulator& sim, SimTime first, NextFn fn,
             EventPriority prio = EventPriority::kApplication);

  /// Stops the timer. Returns true iff a pending firing was cancelled.
  /// Safe to call from inside the callback (the re-arm is skipped).
  bool cancel();

  [[nodiscard]] bool active() const { return sim_ != nullptr; }

 private:
  void on_fire();

  Simulator* sim_ = nullptr;
  NextFn fn_;
  /// Replacement callback from a start() issued inside the running
  /// callback; installed at the next firing so the executing closure is
  /// never destroyed under its own frame.
  std::optional<NextFn> staged_fn_;
  EventPriority prio_ = EventPriority::kApplication;
  EventId pending_{};
  bool in_tick_ = false;
};

}  // namespace decos::sim
