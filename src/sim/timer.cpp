#include "sim/timer.hpp"

#include <cassert>
#include <utility>

namespace decos::sim {

void Timer::start(Simulator& sim, SimTime first, NextFn fn,
                  EventPriority prio) {
  cancel();
  sim_ = &sim;
  prio_ = prio;
  if (in_tick_) {
    // The executing callback owns fn_'s frame right now; stage the
    // replacement and let on_fire() install it at the new first firing.
    staged_fn_ = std::move(fn);
  } else {
    fn_ = std::move(fn);
    staged_fn_.reset();
  }
  pending_ = sim_->schedule_at(first, [this] { on_fire(); }, prio_);
}

bool Timer::cancel() {
  if (!sim_) return false;
  // fn_ is deliberately left alone: cancel() may run from inside the
  // callback, and destroying the currently-executing std::function would
  // pull the frame out from under it. It is released on restart/dtor.
  const bool had = pending_.valid() && sim_->cancel(pending_);
  sim_ = nullptr;
  pending_ = {};
  return had;
}

void Timer::on_fire() {
  if (staged_fn_) {
    fn_ = std::move(*staged_fn_);
    staged_fn_.reset();
  }
  pending_ = {};
  in_tick_ = true;
  const std::optional<Duration> next = fn_();
  in_tick_ = false;
  // The callback may have cancelled or restarted this timer from within;
  // in either case the re-arm is no longer ours to do (and a restart
  // overrides the old callback's return value).
  if (staged_fn_ || pending_.valid() || !sim_) return;
  if (!next) {
    sim_ = nullptr;
    return;
  }
  assert(next->ns() >= 0);
  pending_ = sim_->schedule_after(*next, [this] { on_fire(); }, prio_);
}

}  // namespace decos::sim
