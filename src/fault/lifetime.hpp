// Lifetime driver: faults arising from the reliability models instead of
// hand placement.
//
// The fault-hypothesis rates (Section III-E) and the bathtub curve
// (Fig. 7) describe *when* faults arrive over a vehicle's operating life;
// the injector describes *what* they do. The LifetimeDriver connects the
// two: it samples fault events per FRU from the rate models — with a time
// compression factor mapping field hours onto simulated seconds — and
// schedules the corresponding injections. Transient and permanent hits
// arrive at the paper's Section III-E rates, and one simulated second
// stands for 1000 field hours (constants in lifetime.cpp). The capstone
// experiment (E14) uses it to compare maintenance policies over whole
// compressed vehicle lives.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/injector.hpp"
#include "sim/rng.hpp"

namespace decos::fault {

class LifetimeDriver {
 public:
  struct Params {
    /// Simulated operating window to populate with events.
    sim::Duration horizon = sim::seconds(10);
    /// Probability that a given component develops a wearout process
    /// somewhere in the horizon (ageing vehicle).
    double wearout_prob = 0.15;
    /// Probability of a connector fault per component over the horizon
    /// (>30% of electrical failures are connection problems — Swingler).
    double connector_prob = 0.2;
    /// Probability of a latent Heisenbug activating per non-SC job.
    double heisenbug_prob = 0.1;
    /// Probability of one configuration fault over the horizon.
    double config_fault_prob = 0.1;
  };
  /// Mean number of ambient EMI bursts over the horizon.
  static constexpr double kEmiBurstsMean = 2.0;

  LifetimeDriver(FaultInjector& injector, platform::System& system,
                 sim::Rng rng)
      : injector_(injector), system_(system), rng_(rng) {}

  /// Samples and schedules all events for one vehicle life. Returns the
  /// injected fault ids (the ledger indices).
  std::vector<FaultId> drive(const Params& params);

 private:
  [[nodiscard]] sim::SimTime uniform_instant(const Params& p);

  FaultInjector& injector_;
  platform::System& system_;
  sim::Rng rng_;
};

}  // namespace decos::fault
