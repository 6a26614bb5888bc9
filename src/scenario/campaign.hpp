// Fault-injection campaigns (Section V-B).
//
// "In order to derive the fault patterns for prevalent fault types ... a
// thorough analysis of field data and fault injection techniques is
// necessary." This module is that loop as a library: a standard catalogue
// of injectable archetypes (one per taxonomy leaf, several per hardware
// class), the one campaign driver every campaign runs on (run_grid: the
// spec x seed grid on the experiment engine, folded in submission order),
// and the standard campaign, which diagnoses the affected FRU and
// accumulates the confusion matrix against the injector's ground truth.
// The chaos (E15), closed-loop maintenance (E17), bit-fault (E22) and
// hierarchy (E21) campaigns run on the same grid with their own per-run
// body and tally.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/confusion.hpp"
#include "exec/runner.hpp"
#include "scenario/fig10.hpp"

namespace decos::scenario {

struct Archetype {
  std::string name;
  fault::FaultClass truth;
  /// Simulated horizon needed for the pattern to become classifiable.
  sim::Duration horizon;
  /// Injects the fault into a fresh rig.
  std::function<void(Fig10System&)> inject;
  /// Diagnoses the affected FRU after the run.
  std::function<diag::Diagnosis(Fig10System&)> diagnose;
};

/// The standard catalogue: EMI (repeated bursts), SEU, connector, wearout,
/// permanent failure, quartz defect, brownout, babbling idiot, vnet
/// misconfiguration, Heisenbug, Bohrbug, software crash, sensor drift.
[[nodiscard]] std::vector<Archetype> standard_archetypes();

/// The campaign grid: calls `run(spec, seed)` once per (spec, seed) pair,
/// spec-major (the order of the historical serial loop), on up to `jobs`
/// exec::ExperimentRunner workers (0 = hardware concurrency, 1 = inline on
/// the caller). Each run must build its own rig and reduce it to a plain
/// value, so runs share no mutable state. The values are handed to
/// `merge(row, value)` on the calling thread in submission order, `row`
/// being the spec's index — every fold is bit-identical for every job
/// count. A failed run surfaces as exec::ExperimentError after all runs
/// finished, named by `label(row)` when one is given.
template <class Spec, class Run, class Merge>
void run_grid(const std::vector<Spec>& specs,
              const std::vector<std::uint64_t>& seeds, unsigned jobs,
              const Run& run, Merge&& merge,
              const std::function<std::string(std::size_t)>& label = {}) {
  using Outcome = std::invoke_result_t<const Run&, const Spec&, std::uint64_t>;
  std::vector<std::function<Outcome()>> runs;
  runs.reserve(specs.size() * seeds.size());
  for (const Spec& spec : specs) {
    for (const std::uint64_t seed : seeds) {
      runs.push_back([&run, &spec, seed] { return run(spec, seed); });
    }
  }
  exec::ExperimentRunner(jobs).run_and_merge<Outcome>(
      std::move(runs),
      [&merge, &seeds](std::size_t i, Outcome& outcome) {
        merge(i / seeds.size(), outcome);
      },
      [&label, &seeds](std::size_t i) {
        return label ? label(i / seeds.size()) : std::string();
      });
}

struct CampaignResult {
  analysis::ConfusionMatrix confusion;
  struct PerArchetype {
    std::string name;
    fault::FaultClass truth;
    std::size_t correct = 0;
    std::size_t runs = 0;
  };
  std::vector<PerArchetype> per_archetype;

  /// One empty row per archetype, in catalogue order.
  void open_rows(const std::vector<Archetype>& archetypes);
  /// Scores one run of row `row`'s archetype into the confusion matrix and
  /// the row; true when `predicted` is the archetype's true class.
  bool score(std::size_t row, fault::FaultClass predicted);
};

/// Runs every archetype across the seeds on run_grid, one fresh
/// Fig10System per run, and scores the diagnosed class.
[[nodiscard]] CampaignResult run_campaign(
    const std::vector<Archetype>& archetypes,
    const std::vector<std::uint64_t>& seeds, Fig10Options base_options = {},
    unsigned jobs = 0);

}  // namespace decos::scenario
