// Hierarchical-diagnosis rig: N assessor-capable components in a VCube
// overlay (diag/topology.hpp), one diagnostic agent and one assessor per
// component, application jobs in cross-component rings.
//
// This is the scenario the hierarchy mode exists for: clusters far beyond
// the Fig. 10 five, where all-watch-all assessment (every assessor
// ingesting every agent's stream) stops scaling. Here each FRU is watched
// by its logarithmic tester set, agents unicast symptoms to the subject's
// current testers, and assessors exchange verdict deltas along cube
// edges. The rig is the substrate for the E21 scaling bench, the
// hierarchy campaign, and the dissemination fault-point sweeps.
#pragma once

#include <memory>
#include <vector>

#include "analysis/confusion.hpp"
#include "diag/service.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "platform/system.hpp"
#include "sim/simulator.hpp"

namespace decos::scenario {

struct HierarchyOptions {
  std::uint64_t seed = 1;
  /// Assessor-capable components (= overlay positions). Capped at 64 by
  /// the membership word; powers of two give a complete hypercube.
  std::uint32_t components = 8;
  /// Application rings: ring r hosts one publisher job per component,
  /// sending to the job on component (c + 1 + r) mod N. Total FRUs =
  /// components * (1 + rings).
  std::uint32_t rings = 1;
  sim::Duration slot_length = sim::microseconds(500);
  diag::Assessor::Params assessor{};
  bool provenance = false;
};

class HierarchySystem {
 public:
  explicit HierarchySystem(HierarchyOptions opts = {});

  void run(sim::Duration d);

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] platform::System& system() { return system_; }
  [[nodiscard]] diag::DiagnosticService& diag() { return *diag_; }
  [[nodiscard]] fault::FaultInjector& injector() { return *injector_; }
  [[nodiscard]] const HierarchyOptions& options() const { return opts_; }

  /// Publisher job of ring `r` hosted on component `c`.
  [[nodiscard]] platform::JobId job_at(std::uint32_t r,
                                       platform::ComponentId c) const {
    return ring_jobs_.at(r).at(c);
  }
  [[nodiscard]] std::vector<platform::JobId> app_jobs() const;

 private:
  HierarchyOptions opts_;
  sim::Simulator sim_;
  platform::System system_;
  std::unique_ptr<diag::DiagnosticService> diag_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::vector<std::vector<platform::JobId>> ring_jobs_;  // [ring][component]
};

struct HierarchyCampaignResult {
  analysis::ConfusionMatrix confusion;
  std::size_t runs = 0;
  std::size_t correct = 0;
  obs::Snapshot metrics;

  /// Dissemination counts summed over all runs (traffic accounting).
  [[nodiscard]] diag::HierarchyStats hierarchy_stats() const {
    return diag::HierarchyStats::from(metrics);
  }
  [[nodiscard]] double accuracy() const {
    return runs == 0 ? 0.0
                     : static_cast<double>(correct) / static_cast<double>(runs);
  }
};

/// Seed-swept fault injections on fresh hierarchy rigs: per seed, a
/// deterministic victim component receives a deterministic archetype
/// (cycling connector / permanent / wearout), the run is diagnosed through
/// the composed service accessors, and the result is scored against the
/// injector's ground truth. Runs on the campaign grid (run_grid, one spec
/// x the seeds) and merges in submission order — bit-identical for every
/// `jobs` value.
[[nodiscard]] HierarchyCampaignResult run_hierarchy_campaign(
    const std::vector<std::uint64_t>& seeds, HierarchyOptions base = {},
    unsigned jobs = 0);

}  // namespace decos::scenario
