// Canonical scenarios, foremost the system of Fig. 10: five components
// hosting four DASs — a safety-critical DAS S whose jobs S1/S2/S3 form a
// TMR triple across components 0/1/2, and non-safety-critical DASs A, B, C
// spread so that component 1 hosts jobs of several DASs (the integrated
// architecture's sharing that makes the spatial judgement interesting).
//
// Every application job reads a sine-wave sensor and publishes the reading
// on its port each round; a voter job consumes the TMR triple. All ports
// carry LIF specs, so the diagnostic service can check value and timing
// conformance out of the box. Tests, benches and examples all build on
// this rig instead of hand-assembling systems.
#pragma once

#include <memory>
#include <vector>

#include "diag/service.hpp"
#include "fault/injector.hpp"
#include "platform/system.hpp"
#include "sim/function_ref.hpp"
#include "sim/simulator.hpp"
#include "vnet/tmr.hpp"

namespace decos::scenario {

/// Votes a TMR triple: result of the last vote round, plus disagreement
/// bookkeeping and the latent-redundancy monitor.
struct TmrState {
  double voted = 0.0;
  std::uint64_t votes = 0;
  std::uint64_t disagreements = 0;   // one replica deviated, outvoted
  std::uint64_t vote_failures = 0;   // no majority within epsilon
  vnet::RedundancyMonitor monitor{};
};

struct Fig10Options {
  std::uint64_t seed = 1;
  std::uint32_t components = 5;
  sim::Duration slot_length = sim::microseconds(500);
  double drift_bound_ppm = 40.0;
  platform::ComponentId assessor_host = 3;
  /// Additional components hosting replica assessors.
  std::vector<platform::ComponentId> assessor_replicas;
  diag::Assessor::Params assessor{};
  /// Runs the diagnostic service in hierarchical overlay mode (the
  /// assessor hosts form a VCube; see diag/topology.hpp). With a single
  /// assessor host this is the degenerate one-position cube — the
  /// equivalence tests compare it against the legacy path.
  bool hierarchy = false;
  /// Arms causal provenance tracing (sim().provenance()) before any wiring,
  /// so every injected fault opens a journey. Off by default: the tracer's
  /// disabled mode is a single branch on the instrumented paths.
  bool provenance = false;
  /// Span arena capacity when provenance is enabled.
  std::size_t provenance_span_cap = 1 << 16;
};

class Fig10System {
 public:
  explicit Fig10System(Fig10Options opts = {});

  /// Runs the simulation for `d` of simulated time.
  void run(sim::Duration d);
  /// Runs for `d` a TDMA round at a time and calls `sample` with the
  /// primary assessor's round after the first assessment round of every
  /// Assessor::kSamplePeriod: the resolution of the Fig. 9 trajectories.
  void run_sampled(sim::Duration d,
                   sim::FunctionRef<void(tta::RoundId)> sample);

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] platform::System& system() { return system_; }
  [[nodiscard]] diag::DiagnosticService& diag() { return *diag_; }
  [[nodiscard]] fault::FaultInjector& injector() { return *injector_; }
  [[nodiscard]] const TmrState& tmr() const { return tmr_; }
  [[nodiscard]] const Fig10Options& options() const { return opts_; }

  // Job handles by role.
  [[nodiscard]] platform::JobId s(std::size_t replica) const {  // S1..S3
    return s_jobs_.at(replica);
  }
  [[nodiscard]] platform::JobId a(std::size_t i) const { return a_jobs_.at(i); }
  [[nodiscard]] platform::JobId b(std::size_t i) const { return b_jobs_.at(i); }
  [[nodiscard]] platform::JobId c(std::size_t i) const { return c_jobs_.at(i); }
  [[nodiscard]] platform::JobId voter() const { return voter_job_; }

  /// All application (non-diagnostic) jobs.
  [[nodiscard]] std::vector<platform::JobId> app_jobs() const;

  /// Current simulated round (component 0's view).
  [[nodiscard]] tta::RoundId round() { return system_.cluster().node(0).current_round(); }

 private:
  Fig10Options opts_;
  sim::Simulator sim_;
  platform::System system_;
  std::unique_ptr<diag::DiagnosticService> diag_;
  std::unique_ptr<fault::FaultInjector> injector_;
  TmrState tmr_;
  std::vector<platform::JobId> s_jobs_, a_jobs_, b_jobs_, c_jobs_;
  platform::JobId voter_job_ = platform::kInvalidJob;
};

}  // namespace decos::scenario
