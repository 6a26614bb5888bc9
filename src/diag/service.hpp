// DiagnosticService — facade wiring the complete integrated diagnostic
// architecture into a System: the encapsulated diagnostic DAS with one
// assessor job, one detection agent per component, and the symptom ports
// on the reserved virtual diagnostic network (Fig. 1's three-step model:
// detect -> disseminate -> analyse).
//
// Construct it after all application DASs/jobs/ports exist and before
// System::finalize(). The maintenance report it produces per FRU — trust
// level, fault class, recommended action — is what the paper hands to the
// service technician (Fig. 11).
//
// Each row names the Out-of-Norm Assertions (diag/ona.hpp) asserted on
// its FRU: the pattern ONAs its features yield, the channel meta-ONA, and
// the ONAs other modules assert through assert_external_ona.
//
// The diagnostic DAS is itself safety-relevant, so the service survives
// faults in its own path: when the primary assessor's host component dies
// the lowest-indexed replica on a live host is promoted deterministically,
// and when a higher-priority host reintegrates its assessor reconciles
// state from the one that stayed alive (max-staleness merge) before
// taking back over. Every report row carries an evidence-quality field so
// "verified healthy" and "no recent evidence" are never conflated.
//
// Params place the assessors (primary and replica hosts), carry the
// assessor's settings and select the hierarchy overlay; the failback hold
// and the dissemination vnet's sizing are constants in service.cpp.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "diag/agent.hpp"
#include "diag/assessor.hpp"
#include "diag/ona.hpp"
#include "diag/port_spec.hpp"
#include "diag/topology.hpp"
#include "fault/injector.hpp"
#include "platform/system.hpp"

namespace decos::diag {

/// One row of the maintenance report.
struct FruReport {
  /// FRU identity: the hardware FRU this row concerns, and the software
  /// FRU when the row describes a job (nullopt for component rows), with
  /// the job's name as the System holds it (valid while the System lives).
  platform::ComponentId component = 0;
  std::optional<platform::JobId> job;
  std::string_view job_name;
  double trust = 1.0;
  Diagnosis diagnosis;
  fault::MaintenanceAction action = fault::MaintenanceAction::kNoAction;
  /// Out-of-Norm Assertions currently asserted for this FRU (component
  /// rows only): the pattern ONAs (the cross-check of the rule
  /// classifier's verdict), then Ona::kChannelDegraded, then external
  /// ONAs in the order they were asserted.
  std::vector<Ona> asserted_onas;
  /// Confidence in this row's evidence, in [0,1]: 1.0 means the FRU's
  /// diagnostic agent is fresh; lower values mean the assessor has not
  /// heard the agent recently and the verdict rests on stale evidence.
  double evidence_quality = 1.0;
  /// Rounds since the FRU's agent was last heard by the assessor serving
  /// this row (in legacy mode the active one).
  tta::RoundId evidence_age = 0;
  /// Whether the agent was heard within the assessor's staleness
  /// threshold. Derived from the integer evidence age, never from
  /// comparing the decayed quality double against 1.0 — a 0.9999…
  /// quality row from floating-point rounding stays "verified".
  bool evidence_fresh = true;
  /// Distinguishes "verified healthy" from "no recent evidence": a row
  /// with kNoAction and degraded evidence is NOT a clean bill of health.
  [[nodiscard]] const char* evidence_state() const {
    return evidence_fresh ? "verified" : "no-recent-evidence";
  }
  /// The display label: "component 3" or "job brake1 (j5) on component 2".
  /// Built on demand, where a row is shown; report() builds none.
  [[nodiscard]] std::string label() const;
};

/// Cross-cluster dissemination counts (hierarchy mode): the
/// `diag.hierarchy.*` registry counters, which every assessor position
/// bumps, so they hold the cluster-wide sums.
struct HierarchyStats {
  std::uint64_t symptoms_accepted = 0;
  std::uint64_t symptoms_filtered = 0;
  std::uint64_t deltas_emitted = 0;
  std::uint64_t deltas_forwarded = 0;
  std::uint64_t deltas_accepted = 0;
  std::uint64_t deltas_duplicate = 0;
  std::uint64_t deltas_rejected = 0;

  /// The counts `s` holds; zero for a counter it lacks (legacy mode).
  [[nodiscard]] static HierarchyStats from(const obs::Snapshot& s);
};

class DiagnosticService {
 public:
  struct Params {
    /// Component hosting the (primary) assessor job.
    platform::ComponentId assessor_host = 0;
    /// Additional components hosting replica assessors. The diagnostic
    /// DAS is itself safety-relevant: replicated assessors keep the
    /// maintenance view alive when the primary's component dies. Agents
    /// multicast their symptom stream to every assessor.
    std::vector<platform::ComponentId> replica_hosts;
    Assessor::Params assessor{};
    /// Hierarchical diagnosis: the assessor hosts (primary + replicas)
    /// form a VCube overlay instead of an all-watch-all replica set. Each
    /// FRU is monitored by its logarithmic tester set, agents unicast
    /// symptoms to the subject's current testers only, and assessors
    /// exchange verdict deltas along cube edges. The active/failover
    /// machinery is bypassed: the overlay self-heals by local tester
    /// recomputation, and every query composes the per-slice partial
    /// views (use the service-level accessors, not assessor()).
    bool hierarchy = false;
  };

  DiagnosticService(platform::System& system, SpecTable specs,
                    fault::SpatialLayout layout, Params params);

  /// The ACTIVE assessor: the primary while its host lives, otherwise the
  /// promoted replica (failover is evaluated lazily on access).
  [[nodiscard]] Assessor& assessor() {
    check_failover();
    return *assessors_[active_];
  }
  [[nodiscard]] const Assessor& assessor() const {
    check_failover();
    return *assessors_[active_];
  }
  /// Replica access by fixed index (0 = primary), failover-independent.
  [[nodiscard]] Assessor& assessor(std::size_t i) { return *assessors_.at(i); }
  [[nodiscard]] std::size_t assessor_count() const { return assessors_.size(); }
  /// Index of the currently active assessor (0 = primary).
  [[nodiscard]] std::size_t active_assessor() const {
    check_failover();
    return active_;
  }
  /// Promotions of a replica after the active assessor's host died.
  [[nodiscard]] std::uint64_t failovers() const { return failovers_; }
  /// Reconciled hand-backs to a revived higher-priority host.
  [[nodiscard]] std::uint64_t failbacks() const { return failbacks_; }
  [[nodiscard]] const SpecTable& specs() const { return specs_; }
  [[nodiscard]] platform::DasId das() const { return das_; }
  [[nodiscard]] platform::JobId assessor_job() const { return assessor_job_; }

  /// Is this job part of the diagnostic DAS (agents + assessor)?
  [[nodiscard]] bool is_diagnostic_job(platform::JobId j) const;

  /// The detection agent of component `c` and its job id (agents are
  /// created one per component, in component order).
  [[nodiscard]] const Agent& agent(platform::ComponentId c) const {
    return *agents_.at(c);
  }
  [[nodiscard]] platform::JobId agent_job(platform::ComponentId c) const {
    return agents_.at(c)->job_id();
  }

  /// Asserts an ONA on a component from outside its features (e.g. the
  /// TMR gateway's redundancy-loss transition). It appears in the
  /// component's report row and in the `diag.ona_assertions` counter;
  /// `retract_external_ona` clears it.
  void assert_external_ona(platform::ComponentId c, Ona ona);
  void retract_external_ona(platform::ComponentId c, Ona ona);

  /// Maintenance reset after an *executed* repair of the FRU: every
  /// assessor — active and replicas alike — restarts the FRU's trust at
  /// its initial value and forgets the violation instant, so a later
  /// failback reconciliation cannot resurrect pre-repair suspicion of a
  /// unit that is physically no longer installed.
  void reset_component_trust(platform::ComponentId c);
  void reset_job_trust(platform::JobId j);

  /// Attaches the fault-point registry (not owned; nullptr detaches) to
  /// the whole diagnostic path: every agent (heartbeat-send, resend-push),
  /// every assessor replica (heartbeat-receive, staleness-expiry) and the
  /// service's own failover/failback decision edges.
  void bind_fault_points(fault::FaultPointRegistry* fp);

  // --- composed per-DAS diagnoser contract --------------------------------
  // Service-level accessors that answer "what does the architecture
  // believe about this FRU" independently of *which* assessor holds the
  // evidence. In legacy mode they delegate to the active assessor; in
  // hierarchy mode they compose the responsible tester's partial view,
  // falling back to the disseminated verdict cache when the responsible
  // tester was reassigned and never heard the FRU's agent itself.
  [[nodiscard]] bool hierarchical() const { return hierarchy_; }
  /// The service's overlay view (hierarchy mode only), refreshed from the
  /// hosts' self-membership on access.
  [[nodiscard]] const HierarchyTopology& topology() const;
  [[nodiscard]] double component_trust(platform::ComponentId c) const;
  [[nodiscard]] double job_trust(platform::JobId j) const;
  [[nodiscard]] Diagnosis diagnose_component(platform::ComponentId c) const;
  [[nodiscard]] Diagnosis diagnose_job(platform::JobId j) const;
  /// Earliest trust-violation instant any tester recorded for the FRU.
  [[nodiscard]] std::optional<tta::RoundId> first_component_violation(
      platform::ComponentId c) const;
  [[nodiscard]] std::optional<tta::RoundId> first_job_violation(
      platform::JobId j) const;
  /// Dissemination counts summed over every assessor position, read from
  /// the simulator's registry.
  [[nodiscard]] HierarchyStats hierarchy_stats() const;

  /// Maintenance report over all FRUs: components first, then application
  /// jobs. Only FRUs whose trust fell below the report threshold carry a
  /// non-kNone diagnosis request, but every FRU is listed. Rows whose
  /// agent channel is degraded carry the "diagnostic-channel-degraded"
  /// meta-ONA and a reduced evidence quality.
  [[nodiscard]] std::vector<FruReport> report() const;

  /// Correlates the injector's ground-truth ledger with the composed first
  /// trust violations (`first_component_violation` / `first_job_violation`:
  /// the active assessor in legacy mode, the earliest-recording tester in
  /// hierarchy mode) and records, for every injected fault whose FRU became
  /// suspected after the injection instant, the detection latency
  /// (injection -> first trust violation) into the simulator's metrics
  /// registry: histogram `diag.detection_latency_us`, both aggregate and
  /// labelled per FRU (`fru=component.N` / `fru=job.N`). Returns how many
  /// faults got a latency sample. Call after the run; idempotent only in
  /// the sense that calling twice records the samples twice.
  std::size_t record_detection_latency(const fault::FaultInjector& injector);

 private:
  /// Lazily re-evaluates which assessor is active: the lowest-indexed one
  /// whose host component is alive (deterministic promotion order). On a
  /// transition the newly active assessor reconciles from the previously
  /// active one — a no-op on failover (the dead side is staler), the
  /// state-merge mechanism on failback.
  void check_failover() const;
  [[nodiscard]] bool host_alive(platform::ComponentId c) const;
  /// Feeds assessor `i`'s *own host's* membership view into its local
  /// topology (hierarchy mode; runs at the top of its assessment round).
  void refresh_local_view(Assessor& a, std::size_t i);
  /// Refreshes the service-level overlay view from per-host self-liveness.
  void refresh_view() const;
  /// Resolves the assessor composing `c`'s verdict (legacy mode: the
  /// active one, without re-evaluating failover); when the verdict is
  /// served from the dissemination cache, `*delta` is set to it.
  [[nodiscard]] const Assessor* resolve_component(platform::ComponentId c,
                                                  const VerdictDelta** delta)
      const;
  /// Same for job `j`: its host's serving assessor, and the cached job
  /// verdict when that assessor never heard the host's agent.
  [[nodiscard]] const Assessor* resolve_job(platform::JobId j,
                                            const VerdictDelta** delta) const;

  platform::System& system_;
  SpecTable specs_;
  platform::DasId das_ = 0;
  platform::JobId assessor_job_ = platform::kInvalidJob;
  std::vector<platform::ComponentId> hosts_;
  std::vector<platform::JobId> assessor_jobs_;
  std::vector<std::unique_ptr<Assessor>> assessors_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::vector<platform::JobId> subject_jobs_;
  std::map<platform::ComponentId, std::vector<Ona>> external_onas_;
  /// `diag.ona_assertions` cells by ONA, each registered on the ONA's
  /// first assertion.
  mutable std::array<std::optional<obs::Counter>, kOnaCount> ona_metrics_;
  void count_ona(Ona ona) const;
  /// `diag.evidence_staleness` cells by component, each registered on the
  /// first report row of its component.
  mutable std::vector<std::optional<obs::Gauge>> staleness_metrics_;
  bool hardening_ = true;
  bool hierarchy_ = false;
  mutable std::optional<HierarchyTopology> view_topo_;
  mutable std::vector<bool> alive_scratch_;
  fault::FaultPointRegistry* fp_ = nullptr;
  mutable std::size_t active_ = 0;
  mutable std::size_t failback_candidate_ = SIZE_MAX;
  mutable sim::SimTime failback_candidate_since_{};
  mutable std::uint64_t failovers_ = 0;
  mutable std::uint64_t failbacks_ = 0;
};

}  // namespace decos::diag
