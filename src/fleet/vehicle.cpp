#include "fleet/vehicle.hpp"

#include <algorithm>
#include <string>

#include "analysis/nff.hpp"
#include "fault/taxonomy.hpp"

namespace decos::fleet {
namespace {

// Per-epoch hazard model. One drive epoch is kEpochHours of operation
// compressed into a single simulation event per vehicle.
constexpr double kEpochHours = 500.0;
/// Initial component age is uniform over [0, max) — the fleet on the road
/// is a mix of fresh deliveries and high-milage veterans.
constexpr double kMaxInitialAgeHours = 100'000.0;
/// Hours of operation per unit of WearoutCurve age (the curve's knees
/// live at fractions of 1.0; see fault/bitfault.hpp).
constexpr double kAgeScaleHours = 100'000.0;
/// Epoch hardware-failure probability = min(cap, BER * scale): the
/// cohort's bathtub BER is promoted to a per-epoch hazard.
constexpr double kHwPerEpochScale = 500.0;
constexpr double kHwPerEpochCap = 0.5;
/// Chance per epoch of a software failure / an environmental upset.
constexpr double kSwPerEpoch = 0.02;
constexpr double kExternalPerEpoch = 0.015;
/// Share of hardware symptoms rooted in the connector/loom boundary.
constexpr double kHwBorderlineShare = 0.25;
/// Chance a software fault presents as a hardware symptom at the depot —
/// the paper's NFF driver: the box gets pulled, the bench finds nothing.
constexpr double kSwMisblame = 0.6;
/// Chance the model-guided diagnosis misses the true class and falls
/// back to the symptom reading.
constexpr double kDiagMiss = 0.05;

}  // namespace

Vehicle::Vehicle(std::uint32_t local_id, std::uint32_t global_id,
                 const CohortSet& cohorts, std::uint64_t fleet_seed,
                 const analysis::FleetGrid& grid)
    : rng_(sim::Rng(fleet_seed).fork("vehicle." + std::to_string(global_id))),
      curve_(&cohorts.curve(cohorts.cohort_of(global_id))),
      local_id_(local_id),
      global_id_(global_id),
      cohort_(cohorts.cohort_of(global_id)),
      depot_(global_id % grid.depots),
      age_hours_(rng_.uniform(0.0, kMaxInitialAgeHours)) {}

void Vehicle::run_epoch(std::uint32_t window,
                        analysis::FleetBatchCounts& out) {
  const analysis::FleetGrid& g = out.grid;
  const auto bin = std::min(
      g.age_bins - 1, static_cast<std::uint32_t>(age_hours_ / g.bin_hours));
  out.exposure_hours_by_age[bin] += static_cast<std::uint64_t>(kEpochHours);
  ++out.epochs;

  // Hardware: the cohort's bathtub BER at the component's current age,
  // promoted to a per-epoch hazard.
  const double ber = curve_->ber_at(age_hours_ / kAgeScaleHours);
  const double p_hw = std::min(kHwPerEpochCap, ber * kHwPerEpochScale);
  if (rng_.bernoulli(p_hw)) {
    const bool internal = !rng_.bernoulli(kHwBorderlineShare);
    if (internal) {
      out.hw_failures_by_age[bin] += 1;
      out.failures_by_cohort[cohort_] += 1;
    }
    visit(internal ? fault::FaultClass::kComponentInternal
                   : fault::FaultClass::kComponentBorderline,
          /*hw_symptom=*/true, window, out);
    // A genuinely faulty FRU comes back from the shop replaced: the
    // component's age renews even though the vehicle keeps driving.
    if (internal) age_hours_ = 0.0;
  }

  // Software: a design fault strikes one module; every vehicle runs the
  // same code, so the hot modules repeat fleet-wide.
  if (rng_.bernoulli(kSwPerEpoch)) {
    const std::uint32_t module = pick_module(g.modules);
    out.module_failures.push_back({local_id_, module, 1});
    visit(fault::FaultClass::kJobInherentSoftware,
          /*hw_symptom=*/rng_.bernoulli(kSwMisblame), window, out);
  }

  // Environment: EMI / SEU — transient, leaves no defect behind.
  if (rng_.bernoulli(kExternalPerEpoch)) {
    visit(fault::FaultClass::kComponentExternal, /*hw_symptom=*/true, window,
          out);
  }

  age_hours_ += kEpochHours;
}

void Vehicle::visit(fault::FaultClass truth, bool hw_symptom,
                    std::uint32_t window, analysis::FleetBatchCounts& out) {
  // The naive depot reads the symptom: hardware-flavoured pulls the box,
  // software-flavoured gets a reflash (analysis::decide semantics).
  const fault::FaultClass symptom = hw_symptom
                                        ? fault::FaultClass::kComponentInternal
                                        : fault::FaultClass::kJobInherentSoftware;
  out.naive.count(truth,
                  decide(analysis::Strategy::kNaiveReplace, symptom));

  // The model-guided depot runs the diagnostic subsystem: usually the true
  // class, occasionally only the symptom (missed diagnosis).
  const fault::FaultClass diagnosed =
      rng_.bernoulli(kDiagMiss) ? symptom : truth;
  const auto guided_action = decide(analysis::Strategy::kModelGuided, diagnosed);
  out.guided.count(truth, guided_action);

  // Spare-pool logistics follow the guided flow: a removal consumes one
  // spare at this vehicle's depot in the current service window.
  if (guided_action == fault::MaintenanceAction::kReplaceComponent) {
    out.spare_demand[static_cast<std::size_t>(depot_) * out.grid.windows +
                     window] += 1;
  }
}

std::uint32_t Vehicle::pick_module(std::uint32_t modules) {
  // Quintic skew: a handful of head modules carry most of the fleet's
  // software failures (the 20-80 structure of Section V-C).
  const double u = rng_.uniform();
  const double u2 = u * u;
  const auto m =
      static_cast<std::uint32_t>(static_cast<double>(modules) * u2 * u2 * u);
  return std::min(m, modules - 1);
}

}  // namespace decos::fleet
