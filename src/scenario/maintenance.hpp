// Closed-loop maintenance campaigns (experiment E17).
//
// The standard campaign of campaign.hpp injects, waits, and *grades the
// diagnosis*. This variant closes the loop: a MaintenanceExecutor runs
// inside every rig, consumes the maintenance report, executes the Fig. 11
// action, and verifies that trust reconverges — so the campaign measures
// recovery (time-to-recovery, repairs attempted/verified, measured NFF
// removals, spares consumed) instead of classification accuracy alone.
//
// Campaigns run on the campaign grid (run_grid) with worker-side
// harvesting and ordered merging: `--jobs N` output is bit-identical to
// serial. The executor's seven repair counters are one RepairTally, summed
// per archetype and per campaign by its one operator+=. The directed
// single-run scenario runs the campaign's own per-run body.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "maintenance/executor.hpp"
#include "obs/metrics.hpp"
#include "scenario/campaign.hpp"
#include "scenario/fig10.hpp"

namespace decos::scenario {

struct MaintenanceOptions {
  maintenance::MaintenanceExecutor::Params executor{};
  /// Extra simulated time past the archetype's classification horizon so
  /// the repair can be dispatched, verified and trust can reconverge.
  sim::Duration repair_grace = sim::seconds(4);
};

/// The MaintenanceExecutor's repair counters: harvested per run and summed
/// per archetype and per campaign.
struct RepairTally {
  std::uint64_t repairs_attempted = 0;
  std::uint64_t repairs_verified = 0;
  std::uint64_t repairs_failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t nff_removals = 0;
  std::uint64_t spares_consumed = 0;
  std::uint64_t quarantines = 0;

  RepairTally& operator+=(const RepairTally& other);
};

/// Everything one closed-loop run hands back to the merge thread.
struct MaintenanceRun : RepairTally {
  /// True class of the first injected fault (the run's subject).
  fault::FaultClass truth = fault::FaultClass::kNone;
  /// Final trust of the true FRU, and whether it ended above the
  /// executor's conformance threshold (recovered — by repair or, for
  /// transient faults with kNoAction, by itself).
  double final_trust = 1.0;
  bool recovered = false;
  /// Time-to-recovery of the true FRU's first verified work order,
  /// microseconds (order opened -> repair verified); -1 if none closed.
  std::int64_t ttr_us = -1;
  /// Action trajectory of the true FRU's first work order (the
  /// wrong-action-then-retry record when the first visit mis-judged).
  std::vector<fault::MaintenanceAction> trajectory;
  /// Whether the true FRU's order pulled hardware that retests OK.
  bool nff_on_subject = false;
  obs::Snapshot metrics;
};

struct MaintenanceCampaignResult : RepairTally {
  struct PerArchetype : RepairTally {
    std::string name;
    fault::FaultClass truth = fault::FaultClass::kNone;
    std::size_t runs = 0;
    std::size_t recovered = 0;
    std::int64_t ttr_us_total = 0;
    std::size_t ttr_samples = 0;

    [[nodiscard]] double mean_ttr_ms() const {
      return ttr_samples == 0 ? 0.0
                              : static_cast<double>(ttr_us_total) /
                                    static_cast<double>(ttr_samples) / 1000.0;
    }
  };
  std::vector<PerArchetype> per_archetype;
  std::size_t runs = 0;
  std::size_t recovered = 0;
  obs::Snapshot metrics;
};

/// Sweeps archetypes x seeds on run_grid, each run a fresh Fig. 10 rig
/// with a live MaintenanceExecutor closing the loop.
[[nodiscard]] MaintenanceCampaignResult run_maintenance_campaign(
    const std::vector<Archetype>& archetypes,
    const std::vector<std::uint64_t>& seeds, MaintenanceOptions options = {},
    Fig10Options base_options = {}, unsigned jobs = 0);

/// One directed closed-loop run, for the failure modes a statistics-only
/// campaign cannot assert: pass the naive garage strategy to force a
/// measured NFF removal followed by a model-guided retry, or spares = 0 to
/// force quarantine and the `maintenance-degraded` meta-ONA. `run` is the
/// campaign's per-run harvest: it equals the one-run campaign's tallies.
struct MaintenanceScenarioOutcome {
  MaintenanceRun run;
  /// `maintenance-degraded` asserted on the subject's component row.
  bool degraded_ona = false;
  std::vector<platform::JobId> degraded_jobs;
};

[[nodiscard]] MaintenanceScenarioOutcome run_maintenance_scenario(
    const Archetype& archetype, std::uint64_t seed,
    MaintenanceOptions options = {}, Fig10Options base_options = {});

}  // namespace decos::scenario
