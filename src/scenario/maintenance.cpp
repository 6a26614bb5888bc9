#include "scenario/maintenance.hpp"

namespace decos::scenario {
namespace {

/// Runs one archetype x seed with a live executor and harvests everything
/// on the worker — the rig dies here, the merge thread only sees values.
/// `directed`, when given, also receives the subject's
/// `maintenance-degraded` ONA and the degraded jobs, read from the live
/// rig before the metrics snapshot.
MaintenanceRun run_one(const Archetype& arch, std::uint64_t seed,
                       const MaintenanceOptions& options,
                       const Fig10Options& base_options,
                       MaintenanceScenarioOutcome* directed = nullptr) {
  Fig10Options opts = base_options;
  opts.seed = seed;
  Fig10System rig(opts);
  maintenance::MaintenanceExecutor executor(rig.system(), rig.diag(),
                                            rig.injector(), options.executor);
  executor.start();
  arch.inject(rig);
  rig.run(arch.horizon + options.repair_grace);

  MaintenanceRun out;
  out.truth = arch.truth;
  // The run's subject is the first injected fault's FRU (multi-fault
  // archetypes like repeated EMI bursts all target the same FRU).
  const fault::InjectedFault& subject = rig.injector().ledger().front();
  const diag::Assessor& assessor = rig.diag().assessor();
  out.final_trust = subject.job ? assessor.job_trust(*subject.job)
                                : assessor.component_trust(subject.component);
  out.recovered =
      out.final_trust >= maintenance::MaintenanceExecutor::kVerifyTrust;
  out.repairs_attempted = executor.repairs_attempted();
  out.repairs_verified = executor.repairs_verified();
  out.repairs_failed = executor.repairs_failed();
  out.retries = executor.retries();
  out.nff_removals = executor.nff_removals();
  out.spares_consumed = executor.spares_consumed();
  out.quarantines = executor.quarantines();
  for (const maintenance::WorkOrder& o : executor.work_orders()) {
    const bool on_subject =
        subject.job ? (o.job && *o.job == *subject.job)
                    : (!o.job && o.component == subject.component);
    if (!on_subject) continue;
    out.trajectory.insert(out.trajectory.end(), o.actions.begin(),
                          o.actions.end());
    if (o.nff) out.nff_on_subject = true;
    if (o.state == maintenance::WorkOrderState::kVerified &&
        out.ttr_us < 0) {
      out.ttr_us = (o.closed - o.opened).ns() / 1000;
    }
  }
  if (directed != nullptr) {
    for (const diag::FruReport& row : rig.diag().report()) {
      if (row.job || row.component != subject.component) continue;
      for (const diag::Ona ona : row.asserted_onas) {
        if (ona == diag::Ona::kMaintenanceDegraded) {
          directed->degraded_ona = true;
        }
      }
    }
    directed->degraded_jobs = executor.degraded_jobs();
  }
  out.metrics = rig.sim().metrics().snapshot();
  return out;
}

}  // namespace

RepairTally& RepairTally::operator+=(const RepairTally& other) {
  repairs_attempted += other.repairs_attempted;
  repairs_verified += other.repairs_verified;
  repairs_failed += other.repairs_failed;
  retries += other.retries;
  nff_removals += other.nff_removals;
  spares_consumed += other.spares_consumed;
  quarantines += other.quarantines;
  return *this;
}

MaintenanceCampaignResult run_maintenance_campaign(
    const std::vector<Archetype>& archetypes,
    const std::vector<std::uint64_t>& seeds, MaintenanceOptions options,
    Fig10Options base_options, unsigned jobs) {
  MaintenanceCampaignResult result;
  result.per_archetype.reserve(archetypes.size());
  for (const Archetype& arch : archetypes) {
    MaintenanceCampaignResult::PerArchetype row;
    row.name = arch.name;
    row.truth = arch.truth;
    result.per_archetype.push_back(std::move(row));
  }
  run_grid(
      archetypes, seeds, jobs,
      [&options, &base_options](const Archetype& arch, std::uint64_t seed) {
        return run_one(arch, seed, options, base_options);
      },
      [&result](std::size_t i, const MaintenanceRun& r) {
        auto& row = result.per_archetype[i];
        ++result.runs;
        ++row.runs;
        if (r.recovered) {
          ++result.recovered;
          ++row.recovered;
        }
        row += r;
        result += r;
        if (r.ttr_us >= 0) {
          row.ttr_us_total += r.ttr_us;
          ++row.ttr_samples;
        }
        result.metrics.merge(r.metrics);
      });
  return result;
}

MaintenanceScenarioOutcome run_maintenance_scenario(
    const Archetype& archetype, std::uint64_t seed, MaintenanceOptions options,
    Fig10Options base_options) {
  MaintenanceScenarioOutcome out;
  out.run = run_one(archetype, seed, options, base_options, &out);
  return out;
}

}  // namespace decos::scenario
