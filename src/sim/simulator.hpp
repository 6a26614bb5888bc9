// Discrete-event simulation kernel.
//
// Single-threaded and deterministic by construction: one event queue with a
// total order and one master RNG from which every stochastic entity forks a
// named stream. The kernel hosts the run's two recorders: the metrics
// registry counts what happened, and the (opt-in) provenance tracer keeps
// each fault's causal timeline from injection to verdict to repair. This is
// the substrate for the synthetic TTA-like cluster the DECOS reproduction
// runs on — the paper's diagnostic architecture only needs an observable,
// consistently-timed distributed state, which a sequential kernel provides
// exactly.
#pragma once

#include <cassert>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace decos::sim {

class Simulator {
 public:
  /// A kernel with `shards` independent event-queue shards (see
  /// event_queue.hpp). The default single shard is the historical kernel;
  /// a fleet simulation gives each cluster instance its own shard so its
  /// events stay cache-local while the global (time, prio, seq) order —
  /// and therefore every trajectory — is independent of the shard count.
  explicit Simulator(std::uint64_t seed = 1, std::uint32_t shards = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  [[nodiscard]] std::uint32_t shard_count() const {
    return queue_.shard_count();
  }
  /// Shard that schedule_at/schedule_after target. While an event
  /// executes, this is the shard it fired from, so everything an entity
  /// schedules from inside its own callbacks stays in its shard without
  /// any call-site changes; during setup, a fleet builder selects the
  /// shard before constructing each cluster instance.
  [[nodiscard]] std::uint32_t current_shard() const { return current_shard_; }
  void set_current_shard(std::uint32_t shard) {
    assert(shard < queue_.shard_count());
    current_shard_ = shard;
  }

  /// Master RNG fork for a named entity. Call once per entity at setup.
  [[nodiscard]] Rng fork_rng(std::string_view stream) const {
    return master_rng_.fork(stream);
  }

  /// Schedules `fn` at the absolute instant `when` (>= now()). The capture
  /// is stored allocation-free in the event node (see event_fn.hpp).
  template <typename F>
  EventId schedule_at(SimTime when, F&& fn,
                      EventPriority prio = EventPriority::kApplication) {
    assert(when >= now_ && "cannot schedule into the past");
    return queue_.push_on(current_shard_, when, prio, std::forward<F>(fn));
  }

  /// Schedules `fn` after the given delay (>= 0).
  template <typename F>
  EventId schedule_after(Duration delay, F&& fn,
                         EventPriority prio = EventPriority::kApplication) {
    assert(delay.ns() >= 0);
    return queue_.push_on(current_shard_, now_ + delay, prio,
                          std::forward<F>(fn));
  }

  /// Cancels a previously scheduled event in O(1). Returns true iff the
  /// handle named a still-pending event; stale handles are rejected.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs events until the queue is empty or `until` is passed. Events at
  /// exactly `until` still fire. Returns the number of events executed.
  std::uint64_t run_until(SimTime until);

  /// Runs until the queue drains completely.
  std::uint64_t run_all();

  /// Executes at most one event; returns false if none was pending.
  bool step();

  /// Hard safety valve: run_* aborts (throws std::runtime_error) after this
  /// many events, catching accidental infinite self-rescheduling.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }

  [[nodiscard]] std::uint64_t events_executed() const { return events_executed_; }

  /// Schedules that arrived out of firing order and took an event-queue
  /// heap; the rest were O(1) appends to a run (see event_queue.hpp).
  [[nodiscard]] std::uint64_t heap_pushes() const {
    return queue_.heap_pushes();
  }

  /// Metrics registry shared by every layer of this simulation: each
  /// subsystem registers its counters/histograms here at setup, so one
  /// snapshot captures the whole run (see obs/metrics.hpp).
  [[nodiscard]] obs::Registry& metrics() { return metrics_; }
  [[nodiscard]] const obs::Registry& metrics() const { return metrics_; }

  /// Causal provenance tracer (disabled by default; see obs/provenance.hpp).
  /// Instrumented layers grab this reference at setup — calls are
  /// single-branch no-ops until enable_provenance().
  [[nodiscard]] obs::ProvenanceTracer& provenance() { return provenance_; }
  [[nodiscard]] const obs::ProvenanceTracer& provenance() const {
    return provenance_;
  }

  /// Arms journey tracing: enables the tracer, stamps spans with simulated
  /// time, and registers prov.* metrics on this simulation's registry.
  void enable_provenance(std::size_t span_cap = 1 << 16) {
    provenance_.enable(span_cap);
    provenance_.set_clock([this] { return now_.ns(); });
    provenance_.bind_metrics(metrics_);
  }

 private:
  void execute_one();
  void record_run_rate(std::uint64_t events,
                       std::chrono::steady_clock::time_point wall_start);

  SimTime now_ = SimTime::zero();
  EventQueue queue_;
  std::uint32_t current_shard_ = 0;
  Rng master_rng_;
  std::uint64_t seed_;
  obs::ProvenanceTracer provenance_;
  std::uint64_t events_executed_ = 0;
  std::uint64_t event_limit_ = 500'000'000;
  obs::Registry metrics_;
  obs::Counter events_counter_;
  obs::Gauge queue_depth_hwm_;
  obs::Gauge events_per_sec_;
  /// Events and wall seconds summed over every run_until/run_all call:
  /// `sim.events_per_sec` is their ratio.
  std::uint64_t run_events_ = 0;
  double run_wall_s_ = 0.0;
  std::size_t queue_hwm_ = 0;  // cached so the hot path is one compare
};

}  // namespace decos::sim
