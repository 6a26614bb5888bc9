#include "sim/simulator.hpp"

#include <cassert>
#include <chrono>
#include <stdexcept>

namespace decos::sim {

Simulator::Simulator(std::uint64_t seed, std::uint32_t shards)
    : queue_(shards),
      master_rng_(seed),
      seed_(seed),
      events_counter_(metrics_.counter("sim.events_executed")),
      queue_depth_hwm_(metrics_.gauge("sim.queue_depth_hwm")),
      events_per_sec_(metrics_.gauge("sim.events_per_sec")) {}

void Simulator::execute_one() {
  const std::size_t depth = queue_.size();
  if (depth > queue_hwm_) {
    queue_hwm_ = depth;
    queue_depth_hwm_.set(static_cast<double>(depth));
  }
  auto fired = queue_.pop();
  assert(fired.time >= now_);
  now_ = fired.time;
  current_shard_ = fired.shard;
  ++events_executed_;
  events_counter_.inc();
  if (events_executed_ > event_limit_) {
    throw std::runtime_error("simulator event limit exceeded (runaway schedule?)");
  }
  fired.fn();
}

std::uint64_t Simulator::run_until(SimTime until) {
  const auto wall_start = std::chrono::steady_clock::now();
  std::uint64_t n = 0;
  while (!queue_.empty() && queue_.next_time() <= until) {
    execute_one();
    ++n;
  }
  if (now_ < until) now_ = until;
  record_run_rate(n, wall_start);
  return n;
}

std::uint64_t Simulator::run_all() {
  const auto wall_start = std::chrono::steady_clock::now();
  std::uint64_t n = 0;
  while (!queue_.empty()) {
    execute_one();
    ++n;
  }
  record_run_rate(n, wall_start);
  return n;
}

void Simulator::record_run_rate(
    std::uint64_t events, std::chrono::steady_clock::time_point wall_start) {
  // Sustained rate over every run call so far: a caller stepping one
  // round per call must read the same rate as one long call, not the
  // rate of whichever call happened to be slow.
  run_events_ += events;
  run_wall_s_ += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - wall_start)
                     .count();
  if (run_wall_s_ > 0.0) {
    events_per_sec_.set(static_cast<double>(run_events_) / run_wall_s_);
  }
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  execute_one();
  return true;
}

}  // namespace decos::sim
