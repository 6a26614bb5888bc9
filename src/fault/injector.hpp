// Fault injection with a ground-truth ledger.
//
// Every injector method realises one archetype of the maintenance-oriented
// taxonomy as concrete disturbances of the simulated cluster (channel
// hooks, node fault controls, job fault controls, sensor modes, network
// plan edits) and records what was injected. The ledger is the oracle the
// experiment harness scores the diagnostic subsystem against — playing the
// role of the OEM's off-line warranty analysis, which in the field is the
// only source of ground truth.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/bitfault.hpp"
#include "fault/taxonomy.hpp"
#include "platform/system.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace decos::fault {

using FaultId = std::uint64_t;

struct InjectedFault {
  FaultId id = 0;
  FaultClass cls = FaultClass::kNone;
  Persistence persistence = Persistence::kTransient;
  /// Hardware FRU affected (always meaningful; for job-level faults the
  /// hosting component).
  platform::ComponentId component = 0;
  /// Software FRU affected, if the fault is job-level.
  std::optional<platform::JobId> job;
  sim::SimTime start{};
  /// Zero = permanent / open-ended.
  sim::Duration duration{};
  /// For spatially correlated faults (EMI): every component in range.
  std::vector<platform::ComponentId> affected;
  std::string description;
  /// Journey opened for this fault when provenance tracing is enabled
  /// (obs::kNoJourney otherwise). Every downstream stage span —
  /// manifestation, symptom, evidence, verdict, action — links back here.
  obs::ProvenanceId provenance = obs::kNoJourney;
  /// Ongoing fault processes (connector, wearout) poll this flag; a
  /// physical repair of the FRU clears it and the process stops.
  std::shared_ptr<bool> active = std::make_shared<bool>(true);
};

/// One-dimensional spatial layout of the components (position along the
/// vehicle harness, metres). EMI bursts have a position and radius; the
/// "spatial proximity" column of Fig. 8 is judged against this layout.
struct SpatialLayout {
  std::vector<double> position;

  [[nodiscard]] static SpatialLayout linear(std::uint32_t n, double spacing = 1.0);
  [[nodiscard]] std::vector<platform::ComponentId> within(
      double center, double radius) const;
};

class FaultInjector {
 public:
  FaultInjector(sim::Simulator& sim, platform::System& system,
                SpatialLayout layout);

  // --- component external --------------------------------------------------
  /// EMI burst: every component within `radius` of `center` experiences
  /// heavy frame corruption for `duration` (default: the ISO 7637 ~10 ms).
  /// All affected components see errors at approximately the same time —
  /// the Fig. 8 "massive transient" pattern.
  FaultId inject_emi_burst(double center, double radius, sim::SimTime start,
                           sim::Duration duration,
                           double corrupt_prob = 0.8);

  /// Single-event upset: one frame of `component` corrupted around
  /// `start`; models a cosmic-ray bit flip. Transient, single shot.
  FaultId inject_seu(platform::ComponentId component, sim::SimTime start);

  // --- bit-granular value faults (see fault/bitfault.hpp) -------------------
  /// EMI burst at bit granularity: every component within `radius` of
  /// `center` receives frames through a BER-driven bit-flip process for
  /// `duration` — dense, bursty, spatially correlated flips, the Fig. 8
  /// massive-transient value signature sharpened to bit positions.
  FaultId inject_emi_bit_burst(double center, double radius,
                               sim::SimTime start, sim::Duration duration,
                               double ber = 2e-3);

  /// SEU shower: a `window_rounds`-round window of receiver-side bit flips
  /// on one component plus `value_flips` surviving flips in stored vnet
  /// records (past the CRC — genuine value-domain errors). The window must
  /// stay within the <=2-round flip span diag::classify_bit_pattern treats
  /// as an SEU signature.
  FaultId inject_seu_shower(platform::ComponentId component,
                            sim::SimTime start, double ber = 5e-3,
                            std::uint32_t value_flips = 1,
                            std::uint32_t window_rounds = 1);

  // --- component borderline --------------------------------------------------
  /// Connector fault on one component's harness: intermittent episodes of
  /// receive-side corruption/omission at exponentially distributed
  /// arbitrary times, only that component affected. Runs until repaired.
  FaultId inject_connector_fault(platform::ComponentId component,
                                 sim::SimTime start,
                                 sim::Duration mean_episode_gap,
                                 sim::Duration episode_len,
                                 double drop_prob = 0.9);

  // --- component internal -----------------------------------------------------
  /// Wearout (e.g. growing PCB crack): transient misbehaviour episodes of
  /// the component whose frequency *increases* over time — episode k+1
  /// follows episode k after gap_0 * shrink^k. During an episode the node
  /// corrupts its transmissions (all peers see CRC errors).
  FaultId inject_wearout(platform::ComponentId component, sim::SimTime start,
                         sim::Duration initial_gap, double gap_shrink = 0.85,
                         sim::Duration episode_len = sim::milliseconds(20));

  /// Wearout at bit granularity: the component's *transmissions* pass
  /// through a BER process whose rate follows `curve` over the component's
  /// age — a rising per-bit error rate every peer observes identically
  /// (component-internal). Runs until the FRU is repaired.
  FaultId inject_wearout_ber(platform::ComponentId component,
                             sim::SimTime start, WearoutCurve curve = {});

  /// Permanent hardware failure: the component goes fail-silent at
  /// `start` (e.g. power stage dies). ~100 FIT in the field.
  FaultId inject_permanent_failure(platform::ComponentId component,
                                   sim::SimTime start);

  /// Quartz defect: the component's oscillator drifts far out of spec; it
  /// loses synchronisation and its frames become timing failures.
  FaultId inject_quartz_fault(platform::ComponentId component,
                              sim::SimTime start, double drift_ppm = 5000.0);

  /// Single transient outage: the component goes silent for `duration`,
  /// then recovers by re-integration. The fault-hypothesis experiments
  /// (E7/E12) sweep the duration against detection thresholds; the paper
  /// bounds real transient outages at tens of milliseconds.
  FaultId inject_transient_outage(platform::ComponentId component,
                                  sim::SimTime start, sim::Duration duration);

  /// Babbling idiot: the component attempts transmissions at random
  /// instants for `duration` (the guardian should contain every
  /// out-of-slot attempt). Classified internal — the component's host
  /// controller is defective.
  FaultId inject_babbling(platform::ComponentId component, sim::SimTime start,
                          sim::Duration duration,
                          sim::Duration mean_attempt_gap = sim::milliseconds(1));

  /// Power-supply brownout: the component repeatedly resets — short
  /// silent windows separated by short recoveries, at a roughly constant
  /// rate (contrast with wearout's accelerating rate).
  FaultId inject_brownout(platform::ComponentId component, sim::SimTime start,
                          sim::Duration outage = sim::milliseconds(120),
                          sim::Duration uptime = sim::milliseconds(400));

  // --- job borderline ----------------------------------------------------------
  /// Configuration fault: shrinks the queue depth/budget of `vnet` so the
  /// specified offered load overflows (Section IV-B.2).
  FaultId inject_config_fault(platform::VnetId vnet, sim::SimTime start,
                              std::uint16_t wrong_budget,
                              std::uint16_t wrong_depth);

  // --- job inherent ---------------------------------------------------------------
  /// Heisenbug: stochastic per-dispatch misbehaviour of one job.
  FaultId inject_heisenbug(platform::JobId job, sim::SimTime start,
                           double prob = 0.05, double value_error = 50.0);

  /// Bohrbug: deterministic misbehaviour when round % modulo == phase.
  FaultId inject_bohrbug(platform::JobId job, sim::SimTime start,
                         std::uint64_t modulo = 50, std::uint64_t phase = 7);

  /// Software crash: the job stops being dispatched permanently, until a
  /// software update clears the flag (Fig. 11's software-update action).
  FaultId inject_software_crash(platform::JobId job, sim::SimTime start);

  /// Transducer fault on one of the job's sensors.
  FaultId inject_sensor_fault(platform::JobId job, std::size_t sensor_index,
                              platform::SensorFaultMode mode,
                              sim::SimTime start);

  /// Transducer fault on one of the job's actuators. Manifests only
  /// through the controlled object's physics — the hardest member of the
  /// job-inherent class to localise.
  FaultId inject_actuator_fault(platform::JobId job, std::size_t actuator_index,
                                platform::ActuatorFaultMode mode,
                                sim::SimTime start);

  /// The bit-fault runtime, constructed on first use (rigs that never
  /// inject bit faults pay nothing). The accessor also wires the plane's
  /// flip observer into provenance, so every flip joins the journey of
  /// the fault that owns its component.
  [[nodiscard]] BitFaultPlane& bitfault_plane();
  [[nodiscard]] bool has_bitfault_plane() const { return bitplane_ != nullptr; }

  // --- bookkeeping ----------------------------------------------------------------
  [[nodiscard]] const std::vector<InjectedFault>& ledger() const {
    return ledger_;
  }
  [[nodiscard]] const InjectedFault& fault(FaultId id) const {
    return ledger_.at(id);
  }
  [[nodiscard]] const SpatialLayout& layout() const { return layout_; }

  /// Ground truth at FRU granularity: the true class a perfect diagnosis
  /// would assign to this component (kNone if nothing was injected on it).
  [[nodiscard]] FaultClass truth_for_component(platform::ComponentId c) const;
  [[nodiscard]] FaultClass truth_for_job(platform::JobId j) const;

  /// Physical repair of a hardware FRU (the technician replaced the
  /// component or re-seated its connector): every ongoing component-level
  /// fault process on `c` stops re-injecting. Repairing the *wrong* FRU
  /// leaves the real fault process running — which is exactly how
  /// misdiagnosis manifests in the garage-loop experiments.
  void repair_component(platform::ComponentId c);
  /// Repair of a software FRU (software update / transducer replacement).
  void repair_job(platform::JobId j);

  /// One *specific* executed maintenance action on a FRU — the closed-loop
  /// executor's hook into the ground truth. Unlike the blanket repair_*
  /// calls above, only the fault processes that the chosen action
  /// eliminates per evaluate_action() stop; a wrong action (e.g. replacing
  /// the board under a Heisenbug) leaves the real fault process running,
  /// so the mis-repair stays observable as recurring symptoms. Component
  /// actions (job == nullopt) judge component-level faults on `c`;
  /// job actions judge that job's faults. Returns how many active fault
  /// processes the action stopped.
  std::size_t apply_action(platform::ComponentId c,
                           std::optional<platform::JobId> job,
                           MaintenanceAction action);

 private:
  FaultId record(InjectedFault f);
  /// Creates a new owned episode-chain timer with a stable address (the
  /// injector outlives every chain; a repaired fault just stops firing).
  sim::Timer& new_chain();
  /// Records a kManifestation provenance event for the journey owning the
  /// FRU — called from episode chains / activation events at fire time, so
  /// the journey map is already populated. No-ops when tracing is off.
  void manifest(platform::ComponentId c, std::string_view detail);
  void manifest_job(platform::JobId j, std::string_view detail);

  sim::Simulator& sim_;
  platform::System& system_;
  SpatialLayout layout_;
  std::vector<InjectedFault> ledger_;
  /// Ongoing episode chains (connector, wearout, babbling, brownout).
  std::vector<std::unique_ptr<sim::Timer>> chains_;
  /// Bit-fault runtime, lazily constructed (see bitfault_plane()).
  std::unique_ptr<BitFaultPlane> bitplane_;
};

}  // namespace decos::fault
