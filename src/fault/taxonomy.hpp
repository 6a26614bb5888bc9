// The maintenance-oriented fault taxonomy — the paper's core contribution
// (Section III, Figs. 4-6), plus the maintenance action mapped to each
// class (Section V, Fig. 11).
//
// Fault classes are anchored at FRU boundaries: the component (hardware
// FRU) and the job (software FRU). The recursion of the
// fault-error-failure chain stops here: the diagnostic subsystem only has
// to decide *which class* a fault belongs to, because the class alone
// determines the maintenance action.
#pragma once

#include <cstdint>

namespace decos::fault {

/// Leaf classes of the combined component + job fault model (Fig. 6).
enum class FaultClass : std::uint8_t {
  /// Originates outside the component, no permanent effect (EMI, SEU,
  /// environmental stress). Restart + state sync restores correctness.
  kComponentExternal,
  /// Cannot be judged internal/external: the connector between component
  /// and cable loom (Fig. 4 extends Laprie's boundary classes by this).
  kComponentBorderline,
  /// Originates within the component FRU (PCB crack, IC defect, quartz).
  /// From the perspective of hosted jobs this is a *job external* fault;
  /// the two labels name the same physical fault at different levels.
  kComponentInternal,
  /// Misconfiguration of the architectural services at the job's ports
  /// (queue/budget sizing derived from wrong assumptions).
  kJobBorderline,
  /// Software design fault inside the job (Bohrbug / Heisenbug).
  kJobInherentSoftware,
  /// Sensor/actuator fault of the job's exclusive transducers.
  kJobInherentTransducer,
  /// No fault (healthy); used as classifier output for clean FRUs.
  kNone,
};

[[nodiscard]] const char* to_string(FaultClass c);

/// Replacement severity of a component-level class: internal 3,
/// borderline 2, external 1, anything else 0. Where several candidate
/// classes touch one hardware FRU, the most replacement-relevant wins.
[[nodiscard]] int replacement_severity(FaultClass c);

/// Temporal persistence of the fault's manifestation.
enum class Persistence : std::uint8_t {
  kTransient,     // single bounded episode
  kIntermittent,  // repeating episodes, same location
  kPermanent,     // continuous once activated
};

[[nodiscard]] const char* to_string(Persistence p);

/// Maintenance actions of Fig. 11.
enum class MaintenanceAction : std::uint8_t {
  /// Component external: transient by assumption — no action.
  kNoAction,
  /// Component borderline: closer inspection of connectors/harness; the
  /// inspection itself may be the corrective action.
  kInspectConnector,
  /// Component internal / job external: replace the hardware FRU.
  kReplaceComponent,
  /// Job borderline: update the configuration data of the DAS's virtual
  /// network service.
  kUpdateConfiguration,
  /// Job inherent, transducer arm: inspect/replace the sensor/actuator.
  kInspectTransducer,
  /// Job inherent, software arm: update the job software (or forward
  /// field data to the OEM for fleet correlation if no update exists).
  kSoftwareUpdate,
};

[[nodiscard]] const char* to_string(MaintenanceAction a);

/// The Fig. 11 mapping: which maintenance action each fault class demands.
[[nodiscard]] MaintenanceAction action_for(FaultClass c);

/// Cost model of one maintenance decision, for the NFF economics (E6).
/// True class x chosen action -> did we waste a removal / leave the fault?
struct ActionOutcome {
  bool fault_eliminated = false;   // will the symptom recur?
  bool unnecessary_removal = false; // hardware pulled although not internal
};

[[nodiscard]] ActionOutcome evaluate_action(FaultClass true_class,
                                            MaintenanceAction chosen);

}  // namespace decos::fault
