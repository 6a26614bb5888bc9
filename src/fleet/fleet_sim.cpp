#include "fleet/fleet_sim.hpp"

#include <stdexcept>

#include "sim/time.hpp"

namespace decos::fleet {

FleetSimulator::FleetSimulator(const FleetBatchConfig& cfg)
    : cfg_(cfg),
      sim_(cfg.seed, cfg.shards == 0 ? 1 : cfg.shards),
      cohorts_(cfg.seed, cfg.grid.cohorts) {
  vehicles_.reserve(cfg_.vehicles);
  for (std::uint32_t i = 0; i < cfg_.vehicles; ++i) {
    vehicles_.emplace_back(i, cfg_.first_vehicle + i, cohorts_, cfg_.seed,
                           cfg_.grid);
  }
}

analysis::FleetBatchCounts FleetSimulator::run() {
  analysis::FleetBatchCounts out(cfg_.grid);
  run_into(out);
  return out;
}

void FleetSimulator::run_into(analysis::FleetBatchCounts& out) {
  if (!(out.grid == cfg_.grid)) {
    throw std::invalid_argument("fleet tally grid does not match batch");
  }
  out.first_vehicle = cfg_.first_vehicle;
  out.vehicles = static_cast<std::uint32_t>(vehicles_.size());
  for (const Vehicle& v : vehicles_) out.vehicles_by_cohort[v.cohort()] += 1;

  // Seed every vehicle's epoch chain on its shard. Epoch k+1 is scheduled
  // from inside epoch k's callback, so the kernel keeps the chain on the
  // firing shard without any further pinning.
  for (std::uint32_t i = 0; i < vehicles_.size(); ++i) {
    sim_.set_current_shard(i % sim_.shard_count());
    schedule_epoch(i, 0, out);
  }
  sim_.set_current_shard(0);
  sim_.run_all();
}

void FleetSimulator::schedule_epoch(std::uint32_t i, std::uint64_t epoch,
                                    analysis::FleetBatchCounts& out) {
  // Relative scheduling so a later pass continues from the clock where the
  // previous drain stopped. `out` lives in the caller's frame for the
  // whole drain; the capture fits the event node inline (see
  // event_fn.hpp), so scheduling allocates nothing.
  sim_.schedule_after(
      sim::milliseconds(epoch == 0 ? 0 : 1), [this, i, epoch, &out] {
        const auto window = static_cast<std::uint32_t>(
            epoch * out.grid.windows / (cfg_.epochs == 0 ? 1 : cfg_.epochs));
        vehicles_[i].run_epoch(window, out);
        if (epoch + 1 < cfg_.epochs) schedule_epoch(i, epoch + 1, out);
      });
}

}  // namespace decos::fleet
