// FleetCampaign: the 100k-vehicle cohort layer on the experiment runner.
//
// The fleet is cut into contiguous vehicle batches; each batch runs as one
// FleetSimulator (its own sharded kernel) as a closure on the
// exec::ExperimentRunner pool, and the per-batch tallies are folded into
// one analysis::FleetAggregate on the calling thread in submission order.
// Every vehicle's stochastic history is keyed off (fleet seed, global id)
// and every cohort's physics off (fleet seed, cohort id), so the merged
// aggregate is bit-identical for any --jobs value, any batch size and any
// shard count — the fleet determinism tests pin all three.
#pragma once

#include <cstdint>

#include "analysis/fleet.hpp"
#include "fleet/fleet_sim.hpp"

namespace decos::fleet {

struct FleetCampaignConfig {
  std::uint32_t vehicles = 10'000;
  /// Vehicles per kernel. 0 means one single batch.
  std::uint32_t batch_size = 2'000;
  std::uint64_t epochs = 12;
  /// Event-queue shards per kernel.
  std::uint32_t shards = 8;
  std::uint64_t seed = 2026;
  /// Worker threads (exec::ExperimentRunner); 1 = serial on the caller.
  unsigned jobs = 1;
  analysis::FleetGrid grid;
};

class FleetCampaign {
 public:
  explicit FleetCampaign(FleetCampaignConfig cfg) : cfg_(cfg) {}

  [[nodiscard]] const FleetCampaignConfig& config() const { return cfg_; }

  /// Runs every batch and returns the merged fleet verdict.
  [[nodiscard]] analysis::FleetAggregate run() const;

 private:
  FleetCampaignConfig cfg_;
};

}  // namespace decos::fleet
