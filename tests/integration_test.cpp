// Cross-module integration scenarios: several simultaneous faults of
// different classes diagnosed concurrently, faults arriving during an EMI
// storm, the closed maintenance loop (diagnose -> repair -> verify
// symptom cessation) as a test, and vnet dimensioning validated against
// the live queue behaviour.
#include <gtest/gtest.h>

#include "analysis/nff.hpp"
#include "analysis/queueing.hpp"
#include "scenario/fig10.hpp"

namespace decos {
namespace {

sim::SimTime ms(std::int64_t v) { return sim::SimTime{0} + sim::milliseconds(v); }

TEST(Integration, ThreeConcurrentFaultsOfDifferentClasses) {
  scenario::Fig10System rig({.seed = 81});
  // Hardware wearout on component 1, connector on component 3, Heisenbug
  // in a DAS-B job on component 4 — all active at once.
  rig.injector().inject_wearout(1, ms(300), sim::milliseconds(600), 0.7,
                                sim::milliseconds(10));
  rig.injector().inject_connector_fault(3, ms(400), sim::milliseconds(250),
                                        sim::milliseconds(10), 0.8);
  rig.injector().inject_heisenbug(rig.b(2), ms(500), 0.08);
  rig.run(sim::seconds(6));

  auto& assessor = rig.diag().assessor();
  EXPECT_EQ(assessor.diagnose_component(1).cls,
            fault::FaultClass::kComponentInternal)
      << diag::rationale(assessor.diagnose_component(1));
  EXPECT_EQ(assessor.diagnose_component(3).cls,
            fault::FaultClass::kComponentBorderline)
      << diag::rationale(assessor.diagnose_component(3));
  EXPECT_EQ(assessor.diagnose_job(rig.b(2)).cls,
            fault::FaultClass::kJobInherentSoftware)
      << diag::rationale(assessor.diagnose_job(rig.b(2)));
  // The untouched FRUs stay clean.
  EXPECT_EQ(assessor.diagnose_component(0).cls, fault::FaultClass::kNone);
  EXPECT_EQ(assessor.diagnose_component(2).cls, fault::FaultClass::kNone);
}

TEST(Integration, WearoutDiagnosedDespiteEmiStorm) {
  scenario::Fig10System rig({.seed = 82});
  rig.injector().inject_wearout(4, ms(300), sim::milliseconds(600), 0.7,
                                sim::milliseconds(10));
  // Repeated EMI bursts over the *other* end of the harness.
  for (int burst = 0; burst < 5; ++burst) {
    rig.injector().inject_emi_burst(0.5, 0.6, ms(500 + burst * 800),
                                    sim::milliseconds(12));
  }
  rig.run(sim::seconds(6));
  auto& assessor = rig.diag().assessor();
  EXPECT_EQ(assessor.diagnose_component(4).cls,
            fault::FaultClass::kComponentInternal)
      << diag::rationale(assessor.diagnose_component(4));
  // The EMI victims are not condemned to replacement.
  for (platform::ComponentId c : {0u, 1u}) {
    EXPECT_NE(assessor.diagnose_component(c).cls,
              fault::FaultClass::kComponentInternal)
        << "component " << c;
  }
}

TEST(Integration, GarageLoopEliminatesDiagnosedFaults) {
  scenario::Fig10System rig({.seed = 83});
  rig.injector().inject_connector_fault(3, ms(400), sim::milliseconds(250),
                                        sim::milliseconds(10), 0.8);
  rig.injector().inject_heisenbug(rig.a(1), ms(600), 0.08);
  rig.run(sim::seconds(5));

  // Garage: apply exactly the recommended actions.
  auto& assessor = rig.diag().assessor();
  ASSERT_EQ(assessor.diagnose_component(3).action(),
            fault::MaintenanceAction::kInspectConnector);
  rig.injector().repair_component(3);
  rig.system().cluster().node(3).faults().rx_corrupt_prob = 0.0;
  rig.system().cluster().node(3).faults().rx_drop_prob = 0.0;

  ASSERT_EQ(assessor.diagnose_job(rig.a(1)).action(),
            fault::MaintenanceAction::kSoftwareUpdate);
  rig.injector().repair_job(rig.a(1));
  rig.system().job(rig.a(1)).sw_faults() = platform::SoftwareFaultControls{};

  // Post-repair drive: symptoms cease.
  const auto before = assessor.symptoms_processed();
  rig.run(sim::seconds(4));
  EXPECT_LT(assessor.symptoms_processed() - before, 25u);
}

TEST(Integration, RepairingTheWrongFruDoesNotHelp) {
  // The NFF phenomenon reproduced in the loop: replace a healthy unit
  // while the true fault (a connector) stays — the symptom recurs.
  scenario::Fig10System rig({.seed = 84});
  rig.injector().inject_connector_fault(3, ms(400), sim::milliseconds(250),
                                        sim::milliseconds(10), 0.8);
  rig.run(sim::seconds(4));

  // Misguided action: swap component 2 (healthy).
  rig.injector().repair_component(2);
  rig.system().cluster().node(2).restart();

  const auto before = rig.diag().assessor().symptoms_processed();
  rig.run(sim::seconds(4));
  // Symptoms keep coming: the fault was not eliminated.
  EXPECT_GT(rig.diag().assessor().symptoms_processed() - before, 50u);
  EXPECT_EQ(rig.diag().assessor().diagnose_component(3).cls,
            fault::FaultClass::kComponentBorderline);
}

TEST(Integration, SequentialFaultsAcrossVehicleLife) {
  // A longer horizon: an SEU early, wearout developing late. The early
  // external event must not poison the later internal diagnosis.
  scenario::Fig10System rig({.seed = 85});
  rig.injector().inject_seu(1, ms(500));
  rig.run(sim::seconds(3));
  EXPECT_EQ(rig.diag().assessor().diagnose_component(1).cls,
            fault::FaultClass::kComponentExternal);
  rig.injector().inject_wearout(1, rig.sim().now() + sim::milliseconds(200),
                                sim::milliseconds(600), 0.7,
                                sim::milliseconds(10));
  rig.run(sim::seconds(6));
  EXPECT_EQ(rig.diag().assessor().diagnose_component(1).cls,
            fault::FaultClass::kComponentInternal)
      << diag::rationale(rig.diag().assessor().diagnose_component(1));
}

// --- queueing dimensioning validated in-sim ------------------------------------

TEST(Queueing, Md1FormulaBasics) {
  EXPECT_DOUBLE_EQ(analysis::md1_mean_queue(0.0, 1.0), 0.0);
  // rho = 0.5 -> Lq = 0.25 / (2*0.5) = 0.25.
  EXPECT_NEAR(analysis::md1_mean_queue(0.5, 1.0), 0.25, 1e-12);
  // Unstable.
  EXPECT_GT(analysis::md1_mean_queue(2.0, 1.0), 1e17);
}

TEST(Queueing, DimensionRespectsUtilisationAndBurst) {
  const auto dim = analysis::dimension_vnet(
      {.lambda_per_round = 2.0, .burst_max = 3});
  EXPECT_GE(dim.msgs_per_round_per_node, 3);  // at least the burst
  EXPECT_LE(dim.expected_utilisation, 0.7 + 1e-9);
  EXPECT_GE(dim.queue_depth, 4);
}

TEST(Queueing, CorrectDimensioningPreventsOverflow) {
  // Declared load: each dispatch sends Poisson(1.5) messages. Dimension
  // the vnet for it and verify zero overflow in the live system.
  const auto dim = analysis::dimension_vnet(
      {.lambda_per_round = 1.5, .burst_max = 6});

  sim::Simulator simulator(86);
  platform::System::Params sp;
  sp.cluster.node_count = 4;
  platform::System sys(simulator, sp);
  const auto das = sys.add_das("app", platform::Criticality::kNonSafetyCritical);
  const auto vn = sys.add_vnet("app", dim.msgs_per_round_per_node,
                               dim.queue_depth);
  auto port = std::make_shared<platform::PortId>(0);
  auto rng = std::make_shared<sim::Rng>(simulator.fork_rng("load"));
  platform::Job& src = sys.add_job(
      das, "bursty", 0, [port, rng](platform::JobContext& ctx) {
        const auto n = std::min<std::uint64_t>(rng->poisson(1.5), 6);
        for (std::uint64_t i = 0; i < n; ++i) ctx.send(*port, 1.0);
      });
  platform::Job& dst = sys.add_job(das, "sink", 2, [](platform::JobContext&) {});
  *port = sys.add_port(src.id(), "out", vn, {dst.id()});
  sys.finalize();
  sys.start();
  simulator.run_until(sim::SimTime{0} + sim::seconds(5));
  EXPECT_EQ(sys.component(0).mux().total_overflows(), 0u);
}

TEST(Queueing, UnderdeclaredLoadOverflows) {
  // The borderline-fault mechanism: the legacy app actually sends
  // Poisson(3) but declared Poisson(0.5); the derived config overflows.
  const auto dim = analysis::dimension_vnet(
      {.lambda_per_round = 0.5, .burst_max = 1});

  sim::Simulator simulator(87);
  platform::System::Params sp;
  sp.cluster.node_count = 4;
  platform::System sys(simulator, sp);
  const auto das = sys.add_das("app", platform::Criticality::kNonSafetyCritical);
  const auto vn = sys.add_vnet("app", dim.msgs_per_round_per_node,
                               dim.queue_depth);
  auto port = std::make_shared<platform::PortId>(0);
  auto rng = std::make_shared<sim::Rng>(simulator.fork_rng("load"));
  platform::Job& src = sys.add_job(
      das, "legacy", 0, [port, rng](platform::JobContext& ctx) {
        const auto n = rng->poisson(3.0);
        for (std::uint64_t i = 0; i < n; ++i) ctx.send(*port, 1.0);
      });
  platform::Job& dst = sys.add_job(das, "sink", 2, [](platform::JobContext&) {});
  *port = sys.add_port(src.id(), "out", vn, {dst.id()});
  sys.finalize();
  sys.start();
  simulator.run_until(sim::SimTime{0} + sim::seconds(2));
  EXPECT_GT(sys.component(0).mux().total_overflows(), 100u);
}

}  // namespace
}  // namespace decos
