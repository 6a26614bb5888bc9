// Garage session: the full maintenance loop, closed inside the simulation.
//
// A vehicle accumulates faults during an operating period, drives into the
// garage, the technician executes exactly the actions the diagnostic
// report recommends (replace / inspect / reconfigure / update — applied to
// the *simulated* system), and the vehicle goes back on the road. The
// session is judged by whether the symptoms actually cease — the paper's
// own criterion for a maintenance-oriented fault model.
#include <cstdio>

#include "analysis/technician_report.hpp"
#include "diag/log.hpp"
#include "scenario/fig10.hpp"

using namespace decos;

namespace {

/// Applies a maintenance action to the simulated vehicle. Returns a
/// human-readable description of what the technician did.
std::string apply_action(scenario::Fig10System& rig, const diag::FruReport& row,
                         platform::ComponentId comp,
                         std::optional<platform::JobId> job) {
  switch (row.action) {
    case fault::MaintenanceAction::kReplaceComponent: {
      // New hardware: the physical fault process goes with the old board;
      // clear every node-level fault control and restart.
      rig.injector().repair_component(comp);
      auto& node = rig.system().cluster().node(comp);
      node.faults() = tta::FaultControls{};
      node.clock().set_drift_ppm(5.0);
      node.restart();
      return "replaced component " + std::to_string(comp);
    }
    case fault::MaintenanceAction::kInspectConnector: {
      // Re-seating the connector removes the intermittent contact (the
      // paper notes the inspection itself is often the corrective action).
      rig.injector().repair_component(comp);
      auto& node = rig.system().cluster().node(comp);
      node.faults().rx_corrupt_prob = 0.0;
      node.faults().rx_drop_prob = 0.0;
      return "re-seated connector of component " + std::to_string(comp);
    }
    case fault::MaintenanceAction::kUpdateConfiguration: {
      // Restore a generous vnet configuration.
      for (auto& vn :
           {platform::VnetId{1}, platform::VnetId{2}, platform::VnetId{3},
            platform::VnetId{4}}) {
        rig.system().plan().mutable_vnet(vn).msgs_per_round_per_node = 4;
        rig.system().plan().mutable_vnet(vn).queue_depth = 8;
      }
      return "updated virtual-network configuration";
    }
    case fault::MaintenanceAction::kSoftwareUpdate: {
      if (job) {
        rig.injector().repair_job(*job);
        auto& j = rig.system().job(*job);
        j.sw_faults() = platform::SoftwareFaultControls{};
        j.software_update();
        return "flashed new software for job " + j.name();
      }
      return "software update (no job identified)";
    }
    case fault::MaintenanceAction::kInspectTransducer: {
      if (job) {
        rig.injector().repair_job(*job);
        auto& j = rig.system().job(*job);
        for (std::size_t s = 0; s < j.sensor_count(); ++s) {
          j.sensor(s).set_fault(platform::SensorFaultMode::kHealthy,
                                rig.sim().now());
        }
        return "replaced transducer of job " + j.name();
      }
      return "transducer inspection";
    }
    case fault::MaintenanceAction::kNoAction:
      return "no action (external disturbance)";
  }
  return "?";
}

}  // namespace

int main() {
  std::printf("garage session example\n");
  std::printf("======================\n\n");

  scenario::Fig10System rig({.seed = 77});
  const sim::SimTime t0 = sim::SimTime::zero();

  // The flight recorder captures the symptom stream for the off-board
  // workstation at the service station.
  diag::DiagnosticLog recorder;
  rig.diag().assessor().set_flight_recorder(&recorder);

  // Operating period: three independent problems develop.
  rig.injector().inject_connector_fault(3, t0 + sim::milliseconds(400),
                                        sim::milliseconds(250),
                                        sim::milliseconds(10), 0.8);
  rig.injector().inject_heisenbug(rig.a(1), t0 + sim::milliseconds(600), 0.08);
  rig.injector().inject_config_fault(3, t0 + sim::milliseconds(800), 0, 2);

  std::printf("phase 1: 5 s of operation with three latent problems...\n");
  rig.run(sim::seconds(5));

  // Garage visit: the technician's terminal first.
  std::printf("\nphase 2: garage visit — the technician's display\n");
  std::printf("(flight recorder: %zu symptoms over the operating period)\n\n",
              recorder.size());
  auto report = rig.diag().report();
  std::printf("%s\n", analysis::render_technician_report(report).c_str());

  std::printf("executing the recommended actions:\n");
  std::size_t actions_taken = 0;
  for (std::size_t i = 0; i < report.size(); ++i) {
    const auto& row = report[i];
    if (row.diagnosis.cls == fault::FaultClass::kNone) continue;
    const bool is_component = i < rig.system().component_count();
    const platform::ComponentId comp =
        is_component ? static_cast<platform::ComponentId>(i) : 0;
    std::optional<platform::JobId> job;
    if (!is_component) {
      job = static_cast<platform::JobId>(i - rig.system().component_count());
    }
    const auto what = apply_action(rig, row, comp, job);
    std::printf("  %-34s %-22s -> %s\n", row.label().c_str(),
                fault::to_string(row.diagnosis.cls), what.c_str());
    ++actions_taken;
  }
  std::printf("  (%zu action(s) taken)\n", actions_taken);

  // Back on the road: do the symptoms cease?
  const auto symptoms_before = rig.diag().assessor().symptoms_processed();
  std::printf("\nphase 3: 4 s of post-repair operation...\n");
  rig.run(sim::seconds(4));
  const auto symptoms_after =
      rig.diag().assessor().symptoms_processed() - symptoms_before;

  std::printf("\nsymptoms during post-repair drive: %llu\n",
              static_cast<unsigned long long>(symptoms_after));
  std::printf("repair verdict: %s\n",
              symptoms_after < 25
                  ? "SUCCESS — the recommended actions eliminated the faults"
                  : "symptoms persist — a fault was misdiagnosed");
  return 0;
}
