// One vehicle of the fleet: a statistical cluster model.
//
// A fleet of 100k vehicles cannot each carry a full Fig. 10 rig; what the
// fleet layer needs from a vehicle is the *maintenance-relevant* behaviour
// — when does hardware fail (bathtub physics from its production cohort),
// when does software misbehave (shared design faults, 20-80 skewed across
// modules), when does the environment raise a false alarm — and what each
// maintenance strategy does about it at the depot. Every stochastic draw
// comes from the vehicle's own named RNG stream forked from the fleet
// seed, so a vehicle's life history is a pure function of
// (fleet seed, global id, cohort physics) — independent of batch
// boundaries, shard count and worker count. The per-epoch hazard model
// is fixed (constants in vehicle.cpp); a million vehicles share it, so a
// vehicle carries only its own state.
#pragma once

#include <cstdint>

#include "analysis/fleet.hpp"
#include "fleet/cohort.hpp"
#include "sim/rng.hpp"

namespace decos::fleet {

class Vehicle {
 public:
  /// `local_id` indexes the vehicle inside its batch (module cells are
  /// recorded batch-local; FleetAggregate re-bases them on merge);
  /// `global_id` is fleet-wide and alone determines the RNG stream.
  Vehicle(std::uint32_t local_id, std::uint32_t global_id,
          const CohortSet& cohorts, std::uint64_t fleet_seed,
          const analysis::FleetGrid& grid);

  /// Simulates one drive epoch plus the depot visit it may trigger,
  /// tallying into `out` (whose grid must be the ctor's). `window` is the
  /// service window the epoch falls into (spare-pool bucketing).
  void run_epoch(std::uint32_t window, analysis::FleetBatchCounts& out);

  [[nodiscard]] std::uint32_t global_id() const { return global_id_; }
  [[nodiscard]] std::uint32_t cohort() const { return cohort_; }
  [[nodiscard]] std::uint32_t depot() const { return depot_; }
  [[nodiscard]] double age_hours() const { return age_hours_; }

 private:
  /// One depot visit: scores both strategies against the truth and books
  /// spare-pool demand for the guided flow's removals.
  void visit(fault::FaultClass truth, bool hw_symptom, std::uint32_t window,
             analysis::FleetBatchCounts& out);
  /// Software module hit by a design fault: cubic skew concentrates
  /// failures in the low module ids fleet-wide (the 20-80 head).
  [[nodiscard]] std::uint32_t pick_module(std::uint32_t modules);

  sim::Rng rng_;
  const fault::WearoutCurve* curve_;
  std::uint32_t local_id_;
  std::uint32_t global_id_;
  std::uint32_t cohort_;
  std::uint32_t depot_;
  double age_hours_;
};

// The fleet's memory scales with this size: a batch holds every vehicle.
static_assert(sizeof(Vehicle) <= 64);

}  // namespace decos::fleet
