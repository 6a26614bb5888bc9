// FleetSimulator: one sharded kernel stepping a batch of vehicles.
//
// Tens of thousands of vehicles share a single discrete-event kernel;
// each vehicle is pinned to one shard of the kernel's sharded pending-event
// set (sim/event_queue.hpp), so its drive epochs push and pop on a
// cache-local slab and run (they arrive in firing order, so none takes the
// heap) and never allocate across shards. Because the kernel's pop order
// is shard-assignment-invariant, the batch's tallies — down to the append
// order of sparse module cells — are bit-identical for every shard count;
// the tests pin that.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/fleet.hpp"
#include "fleet/cohort.hpp"
#include "fleet/vehicle.hpp"
#include "sim/simulator.hpp"

namespace decos::fleet {

/// One batch: vehicles [first_vehicle, first_vehicle + vehicles) of the
/// fleet, stepped through `epochs` drive epochs.
struct FleetBatchConfig {
  std::uint32_t first_vehicle = 0;
  std::uint32_t vehicles = 1'000;
  std::uint64_t epochs = 12;
  std::uint32_t shards = 1;
  std::uint64_t seed = 2026;
  analysis::FleetGrid grid;
};

class FleetSimulator {
 public:
  explicit FleetSimulator(const FleetBatchConfig& cfg);

  /// Steps every vehicle through every epoch (one event per vehicle per
  /// epoch; each vehicle reschedules itself from inside its own callback,
  /// so the chain stays on its shard) and returns the batch tallies.
  [[nodiscard]] analysis::FleetBatchCounts run();

  /// run() into a caller-owned tally (grid must match; throws otherwise).
  /// Adds one full pass of counts — callable repeatedly on the same
  /// simulator, where later passes reuse the warmed slabs/heaps/runs and
  /// continue each vehicle's life from its current age. The allocation
  /// gate (bench_fleet, E23) relies on a second pass being steady-state:
  /// with `out`'s sparse cells pre-reserved it must allocate nothing.
  void run_into(analysis::FleetBatchCounts& out);

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] std::uint32_t vehicle_count() const {
    return static_cast<std::uint32_t>(vehicles_.size());
  }

 private:
  void schedule_epoch(std::uint32_t i, std::uint64_t epoch,
                      analysis::FleetBatchCounts& out);

  FleetBatchConfig cfg_;
  sim::Simulator sim_;
  CohortSet cohorts_;
  std::vector<Vehicle> vehicles_;
};

}  // namespace decos::fleet
