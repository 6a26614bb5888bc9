// Tests for the fault taxonomy (class -> action mapping, NFF outcome
// evaluation) and the injector mechanics: each injection must produce its
// documented disturbance on the simulated cluster and a correct ledger
// entry.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "fault/injector.hpp"
#include "fault/lifetime.hpp"
#include "fault/taxonomy.hpp"
#include "scenario/fig10.hpp"

namespace decos::fault {
namespace {

// --- taxonomy ------------------------------------------------------------------

TEST(Taxonomy, Fig11ActionMapping) {
  EXPECT_EQ(action_for(FaultClass::kComponentExternal),
            MaintenanceAction::kNoAction);
  EXPECT_EQ(action_for(FaultClass::kComponentBorderline),
            MaintenanceAction::kInspectConnector);
  EXPECT_EQ(action_for(FaultClass::kComponentInternal),
            MaintenanceAction::kReplaceComponent);
  EXPECT_EQ(action_for(FaultClass::kJobBorderline),
            MaintenanceAction::kUpdateConfiguration);
  EXPECT_EQ(action_for(FaultClass::kJobInherentTransducer),
            MaintenanceAction::kInspectTransducer);
  EXPECT_EQ(action_for(FaultClass::kJobInherentSoftware),
            MaintenanceAction::kSoftwareUpdate);
}

TEST(Taxonomy, ReplacingForExternalFaultIsNff) {
  const auto outcome = evaluate_action(FaultClass::kComponentExternal,
                                       MaintenanceAction::kReplaceComponent);
  EXPECT_FALSE(outcome.fault_eliminated);
  EXPECT_TRUE(outcome.unnecessary_removal);
}

TEST(Taxonomy, ReplacingInternalFaultEliminates) {
  const auto outcome = evaluate_action(FaultClass::kComponentInternal,
                                       MaintenanceAction::kReplaceComponent);
  EXPECT_TRUE(outcome.fault_eliminated);
  EXPECT_FALSE(outcome.unnecessary_removal);
}

TEST(Taxonomy, CorrectActionEliminatesEveryClass) {
  for (auto cls : {FaultClass::kComponentExternal,
                   FaultClass::kComponentBorderline,
                   FaultClass::kComponentInternal, FaultClass::kJobBorderline,
                   FaultClass::kJobInherentSoftware,
                   FaultClass::kJobInherentTransducer}) {
    EXPECT_TRUE(evaluate_action(cls, action_for(cls)).fault_eliminated)
        << to_string(cls);
  }
}

TEST(Taxonomy, StringsAreDistinct) {
  EXPECT_STRNE(to_string(FaultClass::kComponentExternal),
               to_string(FaultClass::kComponentInternal));
  EXPECT_STRNE(to_string(Persistence::kTransient),
               to_string(Persistence::kPermanent));
  EXPECT_STRNE(to_string(MaintenanceAction::kNoAction),
               to_string(MaintenanceAction::kSoftwareUpdate));
}

// --- spatial layout ---------------------------------------------------------------

TEST(SpatialLayout, LinearPositionsAndRangeQuery) {
  const auto layout = SpatialLayout::linear(5, 2.0);
  EXPECT_EQ(layout.position.size(), 5u);
  EXPECT_DOUBLE_EQ(layout.position[3], 6.0);
  const auto near = layout.within(4.0, 2.1);
  EXPECT_EQ(near, (std::vector<platform::ComponentId>{1, 2, 3}));
}

// --- injector mechanics ----------------------------------------------------------

TEST(Injector, LedgerRecordsEveryInjection) {
  scenario::Fig10System rig;
  auto& inj = rig.injector();
  inj.inject_permanent_failure(2, sim::SimTime{0} + sim::milliseconds(10));
  inj.inject_heisenbug(rig.a(0), sim::SimTime{0} + sim::milliseconds(10));
  inj.inject_emi_burst(1.0, 1.1, sim::SimTime{0} + sim::milliseconds(20),
                       sim::milliseconds(10));
  ASSERT_EQ(inj.ledger().size(), 3u);
  EXPECT_EQ(inj.ledger()[0].cls, FaultClass::kComponentInternal);
  EXPECT_EQ(inj.ledger()[1].cls, FaultClass::kJobInherentSoftware);
  EXPECT_EQ(inj.ledger()[2].cls, FaultClass::kComponentExternal);
  EXPECT_EQ(inj.ledger()[2].affected.size(), 3u);  // components 0,1,2
}

TEST(Injector, GroundTruthPerFru) {
  scenario::Fig10System rig;
  auto& inj = rig.injector();
  inj.inject_wearout(1, sim::SimTime{0} + sim::seconds(1), sim::seconds(1));
  inj.inject_heisenbug(rig.b(0), sim::SimTime{0} + sim::seconds(1));
  EXPECT_EQ(inj.truth_for_component(1), FaultClass::kComponentInternal);
  EXPECT_EQ(inj.truth_for_component(0), FaultClass::kNone);
  EXPECT_EQ(inj.truth_for_job(rig.b(0)), FaultClass::kJobInherentSoftware);
  EXPECT_EQ(inj.truth_for_job(rig.b(1)), FaultClass::kNone);
}

TEST(Injector, PermanentFailureSilencesNode) {
  scenario::Fig10System rig;
  rig.injector().inject_permanent_failure(2, sim::SimTime{0} + sim::milliseconds(50));
  rig.run(sim::milliseconds(200));
  // Node 2's bit must have left everyone's membership.
  EXPECT_EQ(rig.system().cluster().node(0).membership() & (1u << 2), 0u);
  EXPECT_TRUE(rig.system().cluster().node(2).faults().fail_silent);
}

TEST(Injector, QuartzFaultDesynchronisesNode) {
  scenario::Fig10System rig;
  rig.injector().inject_quartz_fault(4, sim::SimTime{0} + sim::milliseconds(50),
                                     20'000.0);
  rig.run(sim::seconds(2));
  EXPECT_FALSE(rig.system().cluster().node(4).in_sync());
}

TEST(Injector, ConfigFaultCausesOverflows) {
  scenario::Fig10System rig;
  // vnet ids: 0 diag, 1 S, 2 A, 3 B, 4 C. Squeeze DAS A's vnet.
  rig.injector().inject_config_fault(2, sim::SimTime{0} + sim::milliseconds(50),
                                     0, 2);
  rig.run(sim::milliseconds(500));
  std::uint64_t overflows = 0;
  for (platform::ComponentId c = 0; c < rig.system().component_count(); ++c) {
    overflows += rig.system().component(c).mux().total_overflows();
  }
  EXPECT_GT(overflows, 20u);
}

TEST(Injector, SensorFaultChangesJobOutput) {
  scenario::Fig10System rig;
  rig.injector().inject_sensor_fault(rig.s(0), 0,
                                     platform::SensorFaultMode::kOffset,
                                     sim::SimTime{0} + sim::milliseconds(50));
  rig.run(sim::milliseconds(300));
  EXPECT_EQ(rig.system().job(rig.s(0)).sensor(0).fault(),
            platform::SensorFaultMode::kOffset);
}

TEST(Injector, WearoutEpisodesAccelerate) {
  scenario::Fig10System rig;
  rig.injector().inject_wearout(1, sim::SimTime{0} + sim::milliseconds(100),
                                sim::milliseconds(400), 0.7,
                                sim::milliseconds(10));
  rig.run(sim::seconds(3));
  // The episodes produce CRC errors with rising density; at minimum the
  // injector must have counted the wear-out injection, which Fig. 6 files
  // as a component-internal fault.
  const obs::Snapshot snap = rig.sim().metrics().snapshot();
  const obs::SnapshotEntry* injections =
      snap.find("fault.injections", "cls=component-internal");
  ASSERT_NE(injections, nullptr);
  EXPECT_EQ(injections->counter, 1u);
  ASSERT_EQ(rig.injector().ledger().size(), 1u);
  EXPECT_NE(rig.injector().ledger()[0].description.find("wearout"),
            std::string::npos);
  // And peers observed CRC errors from node 1.
  bool saw_crc = false;
  rig.system().cluster().node(0).observation_sink =
      [&](const tta::SlotObservation& o) {
        if (o.sender == 1 && o.verdict == tta::SlotVerdict::kCrcError) {
          saw_crc = true;
        }
      };
  rig.run(sim::seconds(1));
  EXPECT_TRUE(saw_crc);
}

TEST(Injector, EmiBurstDisturbsOnlyNearbyReceivers) {
  scenario::Fig10System rig;
  // Override the diagnostic hooks for direct observation.
  std::map<tta::NodeId, int> crc;
  for (platform::ComponentId c = 0; c < 5; ++c) {
    rig.system().cluster().node(c).observation_sink =
        [&crc, c](const tta::SlotObservation& o) {
          if (o.verdict == tta::SlotVerdict::kCrcError) ++crc[c];
        };
  }
  // Burst centred on component 4, radius 0.5: only node 4 affected.
  rig.injector().inject_emi_burst(4.0, 0.5, sim::SimTime{0} + sim::milliseconds(100),
                                  sim::milliseconds(50), 1.0);
  rig.run(sim::milliseconds(400));
  EXPECT_GT(crc[4], 5);
  EXPECT_EQ(crc[0] + crc[1] + crc[2] + crc[3], 0);
}


// --- lifetime driver --------------------------------------------------------------

TEST(LifetimeDriver, SamplesEventsDeterministically) {
  auto run = [](std::uint64_t seed) {
    scenario::Fig10System rig({.seed = seed});
    LifetimeDriver driver(rig.injector(), rig.system(),
                          rig.sim().fork_rng("life"));
    LifetimeDriver::Params p;
    p.horizon = sim::seconds(6);
    return driver.drive(p).size();
  };
  EXPECT_EQ(run(95), run(95));
}

TEST(LifetimeDriver, RespectsSafetyCriticalCertification) {
  scenario::Fig10System rig({.seed = 96});
  LifetimeDriver driver(rig.injector(), rig.system(),
                        rig.sim().fork_rng("life"));
  LifetimeDriver::Params p;
  p.horizon = sim::seconds(6);
  p.heisenbug_prob = 1.0;  // every eligible job gets one
  driver.drive(p);
  // No software fault was injected into any safety-critical job.
  for (const auto& f : rig.injector().ledger()) {
    if (f.cls != FaultClass::kJobInherentSoftware) continue;
    ASSERT_TRUE(f.job.has_value());
    EXPECT_NE(rig.system().job(*f.job).criticality(),
              platform::Criticality::kSafetyCritical)
        << rig.system().job(*f.job).name();
  }
}

TEST(LifetimeDriver, EventsLandInsideHorizon) {
  scenario::Fig10System rig({.seed = 97});
  LifetimeDriver driver(rig.injector(), rig.system(),
                        rig.sim().fork_rng("life"));
  LifetimeDriver::Params p;
  p.horizon = sim::seconds(5);
  driver.drive(p);
  std::size_t emi_bursts = 0;
  for (const auto& f : rig.injector().ledger()) {
    EXPECT_GE(f.start.ns(), 0);
    EXPECT_LE(f.start.ns(), p.horizon.ns());
    if (f.description.starts_with("EMI burst")) ++emi_bursts;
  }
  // The ambient bursts (LifetimeDriver::kEmiBurstsMean) are among them.
  EXPECT_GT(emi_bursts, 0u);
  // The populated life actually runs.
  rig.run(p.horizon);
  EXPECT_GT(rig.diag().assessor().symptoms_processed(), 0u);
}

}  // namespace
}  // namespace decos::fault
