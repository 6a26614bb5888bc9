// Tests for the controlled object / actuator loop: plant dynamics,
// actuator fault modes, and the end-to-end control-loop scenario where an
// actuator fault is only visible through the physics — a monitor job's
// sensor reads the plant, and the diagnosis lands on the job-inherent
// transducer class.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "diag/service.hpp"
#include "fault/injector.hpp"
#include "platform/controlled_object.hpp"
#include "platform/system.hpp"
#include "sim/simulator.hpp"

namespace decos::platform {
namespace {

// --- plant dynamics -------------------------------------------------------------

TEST(ControlledObject, ConvergesToHeldInput) {
  sim::Rng rng(1);
  ControlledObject plant({.time_constant_sec = 0.5, .initial = 0.0}, rng);
  plant.set_input(10.0, sim::SimTime{0});
  // After one time constant: ~63%; after five: ~99%.
  EXPECT_NEAR(plant.state(sim::SimTime{0} + sim::milliseconds(500)),
              10.0 * 0.632, 0.05);
  EXPECT_NEAR(plant.state(sim::SimTime{0} + sim::milliseconds(2500)), 10.0,
              0.1);
}

TEST(ControlledObject, LazyAdvanceIsMonotone) {
  sim::Rng rng(2);
  ControlledObject plant({.time_constant_sec = 1.0, .initial = 0.0}, rng);
  plant.set_input(5.0, sim::SimTime{0});
  const double a = plant.state(sim::SimTime{0} + sim::milliseconds(100));
  const double b = plant.state(sim::SimTime{0} + sim::milliseconds(400));
  const double c = plant.state(sim::SimTime{0} + sim::milliseconds(400));
  EXPECT_LT(a, b);
  EXPECT_DOUBLE_EQ(b, c);  // same instant, no double-advance
}

// --- actuator fault modes ----------------------------------------------------------

TEST(Actuator, StuckHoldsLastHealthyCommand) {
  sim::Rng rng(3);
  ControlledObject plant({.time_constant_sec = 0.1}, rng);
  Actuator act({.name = "valve"}, plant);
  act.command(4.0, sim::SimTime{0});
  act.set_fault(ActuatorFaultMode::kStuck);
  act.command(20.0, sim::SimTime{0} + sim::milliseconds(10));
  // The plant keeps tracking 4.0, not 20.0.
  EXPECT_NEAR(plant.state(sim::SimTime{0} + sim::seconds(2)), 4.0, 0.1);
}

TEST(Actuator, DeadDrivesPlantToZero) {
  sim::Rng rng(4);
  ControlledObject plant({.time_constant_sec = 0.1, .initial = 8.0}, rng);
  Actuator act({}, plant);
  act.set_fault(ActuatorFaultMode::kDead);
  act.command(8.0, sim::SimTime{0});
  EXPECT_NEAR(plant.state(sim::SimTime{0} + sim::seconds(2)), 0.0, 0.1);
}

TEST(Actuator, OffsetBiasesTheInput) {
  sim::Rng rng(5);
  ControlledObject plant({.time_constant_sec = 0.1}, rng);
  Actuator act({.offset_bias = 3.0}, plant);
  act.set_fault(ActuatorFaultMode::kOffset);
  act.command(4.0, sim::SimTime{0});
  EXPECT_NEAR(plant.state(sim::SimTime{0} + sim::seconds(2)), 7.0, 0.1);
}

// --- end-to-end control loop ----------------------------------------------------------

TEST(ActuatorLoop, StuckActuatorDiagnosedAsTransducerFault) {
  sim::Simulator simulator(6);
  platform::System::Params sp;
  sp.cluster.node_count = 4;
  platform::System sys(simulator, sp);
  const auto das = sys.add_das("ctrl", Criticality::kNonSafetyCritical);
  const auto vn = sys.add_vnet("vn.ctrl", 4, 8);

  // The physical world: one plant, fast enough that healthy tracking of
  // the sine setpoint keeps the error well inside the LIF spec (lag error
  // ~ d(setpoint)/dt * tau ~ 1.6 for tau = 0.1 s).
  ControlledObject plant({.time_constant_sec = 0.1},
                         simulator.fork_rng("plant"));

  // Controller job on component 0: tracks a moving setpoint through its
  // actuator, and *publishes the plant state it measures* — the LIF
  // observable through which the fault becomes diagnosable.
  auto out = std::make_shared<PortId>(0);
  Job& controller = sys.add_job(
      das, "controller", 0, [out, &plant](JobContext& ctx) {
        const double setpoint =
            10.0 * std::sin(2.0 * 3.14159 * ctx.now().sec() / 4.0);
        ctx.actuator(0).command(setpoint, ctx.now());
        const double measured = ctx.sensor(0).read(ctx.now());
        ctx.send(*out, measured - setpoint);  // tracking error
      });
  controller.add_actuator({.name = "drive"}, plant);
  controller.add_sensor({
      .name = "plant.position",
      .signal = [&plant](sim::SimTime t) {
        // The sensor physically measures the shared plant.
        return plant.state(t);
      },
      .noise_stddev = 0.05,
  });
  Job& monitor = sys.add_job(das, "monitor", 2, [](JobContext&) {});
  *out = sys.add_port(controller.id(), "tracking.err", vn, {monitor.id()});

  // Spec: the tracking error stays small when everything is healthy.
  diag::SpecTable specs;
  specs.set(*out, diag::PortSpec{.min_value = -3.0, .max_value = 3.0,
                                 .period_rounds = 1});
  diag::DiagnosticService::Params dp;
  dp.assessor_host = 3;
  diag::DiagnosticService service(sys, std::move(specs),
                                  fault::SpatialLayout::linear(4), dp);
  fault::FaultInjector injector(simulator, sys, fault::SpatialLayout::linear(4));
  sys.finalize();
  sys.start();

  // Healthy phase: tracking works, nothing reported.
  simulator.run_until(sim::SimTime{0} + sim::seconds(3));
  EXPECT_EQ(service.assessor().diagnose_job(controller.id()).cls,
            fault::FaultClass::kNone);

  // The actuator sticks: the plant freezes while the setpoint moves on;
  // the tracking error grows with the sine sweep.
  injector.inject_actuator_fault(controller.id(), 0,
                                 ActuatorFaultMode::kStuck,
                                 simulator.now() + sim::milliseconds(100));
  simulator.run_until(simulator.now() + sim::seconds(8));

  // The diagnosis lands on the job-inherent class. Which arm it picks is
  // deliberately NOT asserted: the paper itself states (Section III-D)
  // that software and transducer faults "cannot be differentiated by
  // observing only the interface state" — a stuck actuator produces an
  // oscillating (not drifting) tracking error, indistinguishable at the
  // LIF from erratic software output. What matters for maintenance is
  // that the fault is localised to the job, not its host component.
  const auto d = service.assessor().diagnose_job(controller.id());
  EXPECT_TRUE(d.cls == fault::FaultClass::kJobInherentTransducer ||
              d.cls == fault::FaultClass::kJobInherentSoftware)
      << diag::rationale(d);
  EXPECT_EQ(service.assessor().diagnose_component(0).cls,
            fault::FaultClass::kNone);
  EXPECT_EQ(injector.truth_for_job(controller.id()),
            fault::FaultClass::kJobInherentTransducer);
}


TEST(ActuatorLoop, ModelBasedAssertionPinsTheTransducer) {
  // Same plant and fault as above, but the controller now runs the
  // paper's Section IV-B.1 recipe: an on-board reference model of the
  // healthy plant, compared against the measurement each dispatch. The
  // divergence is job-internal information — and with it the diagnosis
  // can (and must) name the transducer specifically.
  sim::Simulator simulator(7);
  platform::System::Params sp;
  sp.cluster.node_count = 4;
  platform::System sys(simulator, sp);
  const auto das = sys.add_das("ctrl", Criticality::kNonSafetyCritical);
  const auto vn = sys.add_vnet("vn.ctrl", 4, 8);

  ControlledObject plant({.time_constant_sec = 0.1},
                         simulator.fork_rng("plant"));

  struct ModelState {
    double x = 0.0;
    sim::SimTime last{};
  };
  auto model = std::make_shared<ModelState>();
  auto out = std::make_shared<PortId>(0);
  Job& controller = sys.add_job(
      das, "controller", 0, [out, &plant, model](JobContext& ctx) {
        const double setpoint =
            10.0 * std::sin(2.0 * 3.14159 * ctx.now().sec() / 4.0);
        ctx.actuator(0).command(setpoint, ctx.now());
        const double measured = ctx.sensor(0).read(ctx.now());

        // Reference model of the healthy plant (tau = 0.1 s).
        const double dt = (ctx.now() - model->last).sec();
        model->last = ctx.now();
        model->x += (setpoint - model->x) * (1.0 - std::exp(-dt / 0.1));

        const double residual = std::abs(measured - model->x);
        if (residual > 2.0) ctx.report_transducer_anomaly(residual);

        ctx.send(*out, measured - setpoint);
      });
  controller.add_actuator({.name = "drive"}, plant);
  controller.add_sensor({
      .name = "plant.position",
      .signal = [&plant](sim::SimTime t) { return plant.state(t); },
      .noise_stddev = 0.05,
  });
  Job& monitor = sys.add_job(das, "monitor", 2, [](JobContext&) {});
  *out = sys.add_port(controller.id(), "tracking.err", vn, {monitor.id()});

  diag::SpecTable specs;
  specs.set(*out, diag::PortSpec{.min_value = -3.0, .max_value = 3.0,
                                 .period_rounds = 1});
  diag::DiagnosticService::Params dp;
  dp.assessor_host = 3;
  diag::DiagnosticService service(sys, std::move(specs),
                                  fault::SpatialLayout::linear(4), dp);
  fault::FaultInjector injector(simulator, sys,
                                fault::SpatialLayout::linear(4));
  sys.finalize();
  sys.start();

  simulator.run_until(sim::SimTime{0} + sim::seconds(3));
  EXPECT_EQ(service.assessor().diagnose_job(controller.id()).cls,
            fault::FaultClass::kNone);

  injector.inject_actuator_fault(controller.id(), 0,
                                 ActuatorFaultMode::kStuck,
                                 simulator.now() + sim::milliseconds(100));
  simulator.run_until(simulator.now() + sim::seconds(8));

  const auto d = service.assessor().diagnose_job(controller.id());
  EXPECT_EQ(d.cls, fault::FaultClass::kJobInherentTransducer)
      << diag::rationale(d);
  EXPECT_EQ(d.action(), fault::MaintenanceAction::kInspectTransducer);
}

}  // namespace
}  // namespace decos::platform
