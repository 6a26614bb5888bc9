#include "fault/taxonomy.hpp"

namespace decos::fault {

const char* to_string(FaultClass c) {
  switch (c) {
    case FaultClass::kComponentExternal: return "component-external";
    case FaultClass::kComponentBorderline: return "component-borderline";
    case FaultClass::kComponentInternal: return "component-internal";
    case FaultClass::kJobBorderline: return "job-borderline";
    case FaultClass::kJobInherentSoftware: return "job-inherent-software";
    case FaultClass::kJobInherentTransducer: return "job-inherent-transducer";
    case FaultClass::kNone: return "none";
  }
  return "?";
}

int replacement_severity(FaultClass c) {
  switch (c) {
    case FaultClass::kComponentInternal: return 3;
    case FaultClass::kComponentBorderline: return 2;
    case FaultClass::kComponentExternal: return 1;
    default: return 0;
  }
}

const char* to_string(Persistence p) {
  switch (p) {
    case Persistence::kTransient: return "transient";
    case Persistence::kIntermittent: return "intermittent";
    case Persistence::kPermanent: return "permanent";
  }
  return "?";
}

const char* to_string(MaintenanceAction a) {
  switch (a) {
    case MaintenanceAction::kNoAction: return "no-action";
    case MaintenanceAction::kInspectConnector: return "inspect-connector";
    case MaintenanceAction::kReplaceComponent: return "replace-component";
    case MaintenanceAction::kUpdateConfiguration: return "update-configuration";
    case MaintenanceAction::kInspectTransducer: return "inspect-transducer";
    case MaintenanceAction::kSoftwareUpdate: return "software-update";
  }
  return "?";
}

MaintenanceAction action_for(FaultClass c) {
  switch (c) {
    case FaultClass::kComponentExternal: return MaintenanceAction::kNoAction;
    case FaultClass::kComponentBorderline:
      return MaintenanceAction::kInspectConnector;
    case FaultClass::kComponentInternal:
      return MaintenanceAction::kReplaceComponent;
    case FaultClass::kJobBorderline:
      return MaintenanceAction::kUpdateConfiguration;
    case FaultClass::kJobInherentTransducer:
      return MaintenanceAction::kInspectTransducer;
    case FaultClass::kJobInherentSoftware:
      return MaintenanceAction::kSoftwareUpdate;
    case FaultClass::kNone: return MaintenanceAction::kNoAction;
  }
  return MaintenanceAction::kNoAction;
}

ActionOutcome evaluate_action(FaultClass true_class, MaintenanceAction chosen) {
  ActionOutcome out;
  // The chosen action eliminates the fault iff it is the action Fig. 11
  // prescribes for the true class — with one nuance: replacing hardware
  // "fixes" an external fault only apparently (the symptom was transient
  // anyway), which is exactly how NFF removals happen. We count that as a
  // wasted removal, not an elimination.
  const MaintenanceAction correct = action_for(true_class);
  out.fault_eliminated = (chosen == correct);
  const bool pulled_hardware = chosen == MaintenanceAction::kReplaceComponent;
  const bool hardware_was_faulty = true_class == FaultClass::kComponentInternal;
  out.unnecessary_removal = pulled_hardware && !hardware_was_faulty;
  // Special case: no fault present — any action other than none is waste,
  // but nothing needed eliminating.
  if (true_class == FaultClass::kNone) {
    out.fault_eliminated = (chosen == MaintenanceAction::kNoAction);
  }
  return out;
}

}  // namespace decos::fault
