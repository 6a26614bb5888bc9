// Tests for the condition-based-maintenance prognostic (WearoutTracker),
// the OBD baseline recorder, and the new fault archetypes they are scored
// against (transient outage, babbling idiot, brownout) — unit level plus
// end-to-end classification.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/cbm.hpp"
#include "analysis/obd.hpp"
#include "scenario/fig10.hpp"

namespace decos::analysis {
namespace {

// --- WearoutTracker ------------------------------------------------------------

/// Feeds a perfect geometric episode train: gap_k = g0 * s^k.
void feed_geometric(WearoutTracker& t, double g0, double s, int episodes) {
  double round = 100.0, gap = g0;
  for (int e = 0; e < episodes; ++e) {
    t.add_episode(static_cast<tta::RoundId>(round));
    round += gap;
    gap *= s;
  }
}

TEST(WearoutTracker, RecoversGeometricParameters) {
  WearoutTracker t;
  feed_geometric(t, 500.0, 0.8, 10);
  const auto prog = t.prognose(3000);
  ASSERT_TRUE(prog.has_value());
  EXPECT_NEAR(prog->shrink, 0.8, 0.02);
  EXPECT_NEAR(prog->initial_gap_rounds, 500.0, 25.0);
}

TEST(WearoutTracker, HealthyConstantRateGivesNoPrognosis) {
  WearoutTracker t;
  feed_geometric(t, 400.0, 1.0, 10);
  EXPECT_FALSE(t.prognose(5000).has_value());
}

TEST(WearoutTracker, SlowingRateGivesNoPrognosis) {
  WearoutTracker t;
  feed_geometric(t, 200.0, 1.3, 10);
  EXPECT_FALSE(t.prognose(5000).has_value());
}

TEST(WearoutTracker, TooFewEpisodesGivesNoPrognosis) {
  WearoutTracker t;
  feed_geometric(t, 500.0, 0.7, 3);
  EXPECT_FALSE(t.prognose(2000).has_value());
}

TEST(WearoutTracker, EndOfLifePredictionIsConsistent) {
  // With g0=500, s=0.8, EOL gap 40: gap reaches 40 at
  // k = ln(40/500)/ln(0.8) ~ 11.3 episodes.
  WearoutTracker t;
  feed_geometric(t, 500.0, 0.8, 8);
  // The 8 episodes span rounds 100..~2076; EOL (gap < 40 rounds) lands
  // near round 2400.
  const tta::RoundId now = 2100;
  const auto prog = t.prognose(now);
  ASSERT_TRUE(prog.has_value());
  EXPECT_GT(prog->end_of_life_round, now);
  // Remaining gaps from episode 7 to ~11.3 sum to roughly
  // 500*(0.8^7-0.8^11.3)/0.2 ~ 330 rounds.
  EXPECT_GT(prog->remaining_rounds, 100u);
  EXPECT_LT(prog->remaining_rounds, 900u);
}

TEST(WearoutTracker, RemainingClampsToZeroPastEol) {
  WearoutTracker t;
  feed_geometric(t, 500.0, 0.8, 12);
  const auto prog = t.prognose(1'000'000);
  ASSERT_TRUE(prog.has_value());
  EXPECT_EQ(prog->remaining_rounds, 0u);
}

// --- OBD baseline ------------------------------------------------------------------

TEST(ObdRecorder, ThresholdGatesRecording) {
  ObdRecorder obd;  // 500 ms paper default
  EXPECT_FALSE(obd.offer(1, sim::SimTime{0}, sim::milliseconds(40)));
  EXPECT_FALSE(obd.offer(1, sim::SimTime{0}, sim::milliseconds(499)));
  EXPECT_TRUE(obd.offer(1, sim::SimTime{0}, sim::milliseconds(500)));
  EXPECT_TRUE(obd.offer(2, sim::SimTime{0}, sim::seconds(2)));
  EXPECT_EQ(obd.recorded().size(), 2u);
}

TEST(ObdRecorder, PaperTransientsAreInvisibleToObd) {
  // The fault hypothesis bounds transient outages at < 50 ms; an OBD with
  // the 500 ms threshold records none of them.
  ObdRecorder obd;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(obd.offer(0, sim::SimTime{i},
                           reliability::paper::kTransientOutageMax));
  }
  EXPECT_TRUE(obd.recorded().empty());
}

// --- new fault archetypes end-to-end --------------------------------------------

TEST(NewFaults, TransientOutageRecoversAndClassifiesExternal) {
  scenario::Fig10System rig({.seed = 61});
  rig.injector().inject_transient_outage(2, sim::SimTime{0} + sim::milliseconds(500),
                                         sim::milliseconds(40));
  rig.run(sim::seconds(3));
  // The component recovered: it is back in everyone's membership.
  EXPECT_NE(rig.system().cluster().node(0).membership() & (1u << 2), 0u);
  const auto d = rig.diag().assessor().diagnose_component(2);
  EXPECT_EQ(d.cls, fault::FaultClass::kComponentExternal) << diag::rationale(d);
}

TEST(NewFaults, BabblingIsContainedAndClassifiedInternal) {
  scenario::Fig10System rig({.seed = 62});
  const auto blocked_before = rig.system().cluster().bus().frames_blocked();
  rig.injector().inject_babbling(1, sim::SimTime{0} + sim::milliseconds(500),
                                 sim::seconds(3), sim::milliseconds(2));
  rig.run(sim::seconds(5));
  // Containment: the guardian blocked a large number of attempts...
  EXPECT_GT(rig.system().cluster().bus().frames_blocked() - blocked_before,
            200u);
  // ...and the healthy components were never condemned.
  for (platform::ComponentId c : {0u, 2u, 3u, 4u}) {
    EXPECT_EQ(rig.diag().assessor().diagnose_component(c).cls,
              fault::FaultClass::kNone)
        << "component " << c;
  }
  // The babbler itself shows recurring in-slot interference.
  const auto d = rig.diag().assessor().diagnose_component(1);
  EXPECT_EQ(d.cls, fault::FaultClass::kComponentInternal) << diag::rationale(d);
}

TEST(NewFaults, BrownoutClassifiedInternalIntermittent) {
  scenario::Fig10System rig({.seed = 63});
  rig.injector().inject_brownout(4, sim::SimTime{0} + sim::milliseconds(400),
                                 sim::milliseconds(120),
                                 sim::milliseconds(400));
  rig.run(sim::seconds(6));
  const auto d = rig.diag().assessor().diagnose_component(4);
  EXPECT_EQ(d.cls, fault::FaultClass::kComponentInternal) << diag::rationale(d);
  EXPECT_EQ(d.persistence, fault::Persistence::kIntermittent);
}

TEST(NewFaults, RepairStopsBrownoutProcess) {
  scenario::Fig10System rig({.seed = 64});
  rig.injector().inject_brownout(4, sim::SimTime{0} + sim::milliseconds(400));
  rig.run(sim::seconds(3));
  rig.injector().repair_component(4);
  rig.system().cluster().node(4).faults().fail_silent = false;
  const auto symptoms_before = rig.diag().assessor().symptoms_processed();
  rig.run(sim::seconds(3));
  const auto new_symptoms =
      rig.diag().assessor().symptoms_processed() - symptoms_before;
  EXPECT_LT(new_symptoms, 30u);
}

// --- CBM on the live wearout process ------------------------------------------------

TEST(CbmLive, TrackerPrognosesLiveWearout) {
  scenario::Fig10System rig({.seed = 65});
  rig.injector().inject_wearout(1, sim::SimTime{0} + sim::milliseconds(300),
                                sim::milliseconds(700), 0.8,
                                sim::milliseconds(10));
  rig.run(sim::seconds(6));

  // Build the tracker from the evidence the assessor actually collected.
  const diag::Assessor& assessor = rig.diag().assessor();
  diag::EvidenceSummary::ComponentFeatures f;
  assessor.summary().component_features(1, assessor.current_round(), f);
  const auto& eps = f.sender_eps;
  ASSERT_GE(eps.size(), 6u);
  // Prognose mid-degradation (from the first six episodes), before the
  // gaps have collapsed to the end-of-life threshold.
  WearoutTracker tracker;
  for (std::size_t i = 0; i < 6; ++i) tracker.add_episode(eps[i].first);
  const auto prog = tracker.prognose(eps[5].first + 10);
  ASSERT_TRUE(prog.has_value());
  // The injected shrink is 0.8 per episode; the fit should land nearby.
  EXPECT_NEAR(prog->shrink, 0.8, 0.12);
  EXPECT_GT(prog->end_of_life_round, eps[5].first);
  EXPECT_GT(prog->remaining_rounds, 0u);
}

}  // namespace
}  // namespace decos::analysis
