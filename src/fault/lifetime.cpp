#include "fault/lifetime.hpp"

#include <cmath>

#include "reliability/fit.hpp"

namespace decos::fault {
namespace {

/// Field time represented by one simulated second. With 3.6e6, one
/// simulated second stands for 1000 field hours, so one simulated 10 s
/// run covers ~1.14 field years.
constexpr double kCompression = 3.6e6;
static_assert(kCompression / 3600.0 == 1000.0);

}  // namespace

sim::SimTime LifetimeDriver::uniform_instant(const Params& p) {
  // Leave a short lead-in so the cluster is up, and a tail so effects are
  // observable before the horizon ends.
  const std::int64_t lead = sim::milliseconds(300).ns();
  const std::int64_t span = p.horizon.ns() - 2 * lead;
  return sim::SimTime{lead + rng_.uniform_int(0, span > 0 ? span : 1)};
}

std::vector<FaultId> LifetimeDriver::drive(const Params& p) {
  std::vector<FaultId> ids;
  const double field_hours = p.horizon.sec() * kCompression / 3600.0;
  namespace paper = reliability::paper;

  for (platform::ComponentId c = 0; c < system_.component_count(); ++c) {
    // Transient hits: Poisson with the field rate over the field window.
    const double transient_mean =
        paper::kTransientHardware.per_hour() * field_hours;
    const auto transients = rng_.poisson(transient_mean);
    for (std::uint64_t i = 0; i < transients; ++i) {
      ids.push_back(injector_.inject_seu(c, uniform_instant(p)));
    }
    // Permanent death: exponential; rare at 100 FIT even compressed.
    if (rng_.bernoulli(paper::kPermanentHardware.failure_probability(
            sim::Duration{static_cast<std::int64_t>(field_hours * 3.6e12)}))) {
      ids.push_back(injector_.inject_permanent_failure(c, uniform_instant(p)));
    }
    if (rng_.bernoulli(p.wearout_prob)) {
      ids.push_back(injector_.inject_wearout(
          c, uniform_instant(p), sim::milliseconds(600),
          0.7 + 0.15 * rng_.uniform(), sim::milliseconds(10)));
    }
    if (rng_.bernoulli(p.connector_prob)) {
      ids.push_back(injector_.inject_connector_fault(
          c, uniform_instant(p), sim::milliseconds(300),
          sim::milliseconds(10), 0.8));
    }
  }

  // Software: Heisenbugs on non-safety-critical jobs only (the paper
  // assumes SC jobs certified fault-free).
  for (platform::JobId j = 0;
       j < static_cast<platform::JobId>(system_.job_count()); ++j) {
    if (system_.job(j).criticality() == platform::Criticality::kSafetyCritical) {
      continue;
    }
    if (rng_.bernoulli(p.heisenbug_prob)) {
      ids.push_back(injector_.inject_heisenbug(j, uniform_instant(p),
                                               0.03 + 0.1 * rng_.uniform()));
    }
  }

  // One global configuration fault at most (tool-derived configs are
  // wrong once, not per component).
  if (p.config_fault_prob > 0.0 && rng_.bernoulli(p.config_fault_prob) &&
      system_.plan().vnets().size() > 1) {
    const auto vn = static_cast<platform::VnetId>(rng_.uniform_int(
        1, static_cast<std::int64_t>(system_.plan().vnets().size()) - 1));
    ids.push_back(injector_.inject_config_fault(vn, uniform_instant(p), 0, 2));
  }

  // Ambient EMI bursts at random harness positions.
  const auto bursts = rng_.poisson(kEmiBurstsMean);
  for (std::uint64_t b = 0; b < bursts; ++b) {
    const double center = rng_.uniform(
        0.0, static_cast<double>(system_.component_count() - 1));
    ids.push_back(injector_.inject_emi_burst(center, 1.1, uniform_instant(p),
                                             paper::kEmiBurstDuration));
  }
  return ids;
}

}  // namespace decos::fault
