#include "scenario/hierarchy.hpp"

#include <cassert>
#include <string>

#include "scenario/campaign.hpp"

namespace decos::scenario {
namespace {

sim::SimTime ms(std::int64_t v) { return sim::SimTime{0} + sim::milliseconds(v); }

/// Value-range half width of every port spec: the largest ring amplitude
/// (10) plus margin.
constexpr double kSpecBound = 15.0;

platform::System::Params system_params(const HierarchyOptions& opts) {
  platform::System::Params p;
  p.cluster.node_count = opts.components;
  p.cluster.tdma.slot_length = opts.slot_length;
  return p;
}

}  // namespace

HierarchySystem::HierarchySystem(HierarchyOptions opts)
    : opts_(opts), sim_(opts.seed), system_(sim_, system_params(opts)) {
  assert(opts_.components >= 2 && "hierarchy needs at least two components");
  assert(opts_.components <= 64 && "overlay positions are capped at 64");
  if (opts_.provenance) sim_.enable_provenance();
  auto& sys = system_;

  const auto das_app =
      sys.add_das("H", platform::Criticality::kNonSafetyCritical);

  // Ring r: one publisher per component, each sending to the ring's job on
  // component (c + 1 + r) mod N. Distinct strides keep the rings from
  // collapsing into one traffic pattern and give every component both an
  // upstream and a downstream witness per ring.
  static_assert(sizeof(platform::PortId) == 2);
  ring_jobs_.resize(opts_.rings);
  for (std::uint32_t r = 0; r < opts_.rings; ++r) {
    const auto vn = sys.add_vnet("vn.H" + std::to_string(r), 4, 8);
    std::vector<std::shared_ptr<platform::PortId>> slots;
    for (platform::ComponentId c = 0; c < opts_.components; ++c) {
      auto port_slot = std::make_shared<platform::PortId>(0);
      platform::Job& job = sys.add_job(
          das_app, "H" + std::to_string(r) + "." + std::to_string(c), c,
          [port_slot](platform::JobContext& ctx) {
            const double v = ctx.sensor(0).read(ctx.now());
            ctx.send(*port_slot, v);
          });
      job.add_sensor(platform::Sensor::Params{
          .name = "H" + std::to_string(r) + "." + std::to_string(c) + ".sensor",
          .signal = platform::sine_signal(
              8.0 + static_cast<double>(r % 3),
              1.0 + 0.25 * static_cast<double>((r + c) % 4)),
          .noise_stddev = 0.05,
          .drift_rate_per_hour = 3.0 * 3600.0,
      });
      ring_jobs_[r].push_back(job.id());
      slots.push_back(port_slot);
    }
    const std::uint32_t stride = 1 + (r % (opts_.components - 1));
    for (platform::ComponentId c = 0; c < opts_.components; ++c) {
      const platform::JobId next =
          ring_jobs_[r][(c + stride) % opts_.components];
      *slots[c] = sys.add_port(ring_jobs_[r][c],
                               "H" + std::to_string(r) + "." +
                                   std::to_string(c) + ".out",
                               vn, {next});
    }
  }

  diag::SpecTable specs;
  for (const auto& pc : sys.plan().ports()) {
    if (pc.vnet == platform::kDiagnosticVnet) continue;
    specs.set(pc.id, diag::PortSpec{
                         .min_value = -kSpecBound,
                         .max_value = kSpecBound,
                         .period_rounds = 1,
                         .gap_tolerance_periods = 3,
                     });
  }

  // Every component is assessor-capable: host 0 is the nominal primary,
  // all others are "replicas" — in hierarchy mode that just enumerates the
  // overlay positions, there is no active/standby distinction.
  diag::DiagnosticService::Params dp;
  dp.assessor_host = 0;
  for (platform::ComponentId c = 1; c < opts_.components; ++c) {
    dp.replica_hosts.push_back(c);
  }
  dp.assessor = opts_.assessor;
  dp.hierarchy = true;
  diag_ = std::make_unique<diag::DiagnosticService>(
      sys, std::move(specs), fault::SpatialLayout::linear(opts_.components),
      dp);

  injector_ = std::make_unique<fault::FaultInjector>(
      sim_, sys, fault::SpatialLayout::linear(opts_.components));

  sys.finalize();
  sys.start();
}

void HierarchySystem::run(sim::Duration d) { sim_.run_until(sim_.now() + d); }

std::vector<platform::JobId> HierarchySystem::app_jobs() const {
  std::vector<platform::JobId> out;
  for (const auto& ring : ring_jobs_) {
    out.insert(out.end(), ring.begin(), ring.end());
  }
  return out;
}

namespace {

/// Worker-side harvest of one campaign run: the rig dies with the worker,
/// so the merge thread only ever touches plain values.
struct HierarchyRun {
  fault::FaultClass truth = fault::FaultClass::kNone;
  fault::FaultClass predicted = fault::FaultClass::kNone;
  obs::Snapshot metrics;
};

HierarchyRun run_one(const HierarchyOptions& base, std::uint64_t seed) {
  HierarchyOptions opts = base;
  opts.seed = seed;
  HierarchySystem rig(opts);

  // Deterministic victim + archetype from the seed: the victim cycles over
  // all components (every one doubles as an overlay position, so faults
  // regularly land on assessor-capable FRUs), the archetype over the three
  // hardware classes the hierarchy must localise.
  const auto victim =
      static_cast<platform::ComponentId>(seed % opts.components);
  switch (seed % 3) {
    case 0:
      rig.injector().inject_connector_fault(victim, ms(300),
                                            sim::milliseconds(250),
                                            sim::milliseconds(10), 0.8);
      break;
    case 1:
      rig.injector().inject_wearout(victim, ms(300), sim::milliseconds(600),
                                    0.7, sim::milliseconds(10));
      break;
    default:
      rig.injector().inject_permanent_failure(victim, ms(500));
      break;
  }
  rig.run(sim::seconds(5));

  HierarchyRun out;
  out.truth = rig.injector().ledger().front().cls;
  out.predicted = rig.diag().diagnose_component(victim).cls;
  out.metrics = rig.sim().metrics().snapshot();
  return out;
}

}  // namespace

HierarchyCampaignResult run_hierarchy_campaign(
    const std::vector<std::uint64_t>& seeds, HierarchyOptions base,
    unsigned jobs) {
  HierarchyCampaignResult result;
  run_grid(std::vector<HierarchyOptions>{base}, seeds, jobs, run_one,
           [&result](std::size_t, const HierarchyRun& r) {
             result.confusion.add(r.truth, r.predicted);
             ++result.runs;
             if (r.predicted == r.truth) ++result.correct;
             result.metrics.merge(r.metrics);
           });
  return result;
}

}  // namespace decos::scenario
