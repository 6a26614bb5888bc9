// Tests for the Out-of-Norm Assertion table: the feature predicates the
// pattern ONAs conjoin, on synthetic evidence; the pattern ONAs against
// the Fig. 8 archetypes (unit level); and agreement between the asserted
// ONAs and the rule classifier on live end-to-end scenarios. Every
// feature value is read from an EvidenceSummary, the ONAs' one feature
// source.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "diag/classifier.hpp"
#include "diag/ona.hpp"
#include "scenario/fig10.hpp"

namespace decos::diag {
namespace {

/// Builds synthetic evidence: `episodes` bursts of sender-side symptoms
/// about component `subject`, reported by observers 1..3, with the gap
/// between bursts scaled by `gap_factor` each time (0.7 = accelerating).
EvidenceStore synthetic_sender_evidence(platform::ComponentId subject,
                                        int episodes, double first_gap,
                                        double gap_factor,
                                        SymptomType type = SymptomType::kSlotCrcError) {
  EvidenceStore ev;
  double gap = first_gap;
  tta::RoundId r = 100;
  for (int e = 0; e < episodes; ++e) {
    for (int i = 0; i < 3; ++i) {  // 3 symptomatic rounds per episode
      for (platform::ComponentId obs = 1; obs <= 3; ++obs) {
        Symptom s;
        s.type = type;
        s.observer = obs;
        s.subject_component = subject;
        s.round = r + static_cast<tta::RoundId>(i);
        ev.ingest(s);
      }
    }
    r += static_cast<tta::RoundId>(gap);
    gap *= gap_factor;
  }
  return ev;
}

/// The features of `subject` at `now` over synthetic evidence, read
/// through an EvidenceSummary with sender-spread bar 2 and the default
/// spatial radius on a 5-component cluster.
struct Synthetic {
  Synthetic(const EvidenceStore& ev, platform::ComponentId subject,
            tta::RoundId at, const fault::SpatialLayout& layout)
      : summary(&ev, FeatureParams{.sender_spread = 2, .spatial_radius = 1.6},
                5, layout),
        now(at) {
    summary.component_features(subject, now, f);
  }
  [[nodiscard]] std::vector<Ona> onas() const { return pattern_onas(f, now); }

  EvidenceSummary summary;
  EvidenceSummary::ComponentFeatures f;
  tta::RoundId now;
};

/// The pattern ONAs the live rig's assessor asserts on `subject`, from
/// its summary's features at the rig's current round.
std::vector<Ona> live_onas(scenario::Fig10System& rig,
                           platform::ComponentId subject) {
  const EvidenceSummary& summary = rig.diag().assessor().summary();
  EvidenceSummary::ComponentFeatures features;
  summary.component_features(subject, rig.round(), features);
  return pattern_onas(features, rig.round());
}

bool contains(const std::vector<Ona>& onas, Ona o) {
  return std::find(onas.begin(), onas.end(), o) != onas.end();
}

TEST(OnaConditions, SenderEpisodeCountAtLeast) {
  const auto layout = fault::SpatialLayout::linear(5);
  const auto ev = synthetic_sender_evidence(0, 5, 200.0, 1.0);
  const Synthetic s(ev, 0, 2000, layout);
  EXPECT_GE(s.f.sender_eps.size(), 5u);
  EXPECT_LT(s.f.sender_eps.size(), 6u);
}

TEST(OnaConditions, RateIncreasingDetectsAcceleration) {
  const auto layout = fault::SpatialLayout::linear(5);
  const auto accel = synthetic_sender_evidence(0, 8, 400.0, 0.6);
  const auto steady = synthetic_sender_evidence(0, 8, 400.0, 1.0);
  EXPECT_TRUE(rate_increasing(Synthetic(accel, 0, 5000, layout).f.sender_eps));
  EXPECT_FALSE(
      rate_increasing(Synthetic(steady, 0, 5000, layout).f.sender_eps));
}

TEST(OnaConditions, DenseTailDetectsContinuousRun) {
  const auto layout = fault::SpatialLayout::linear(5);
  EvidenceStore ev;
  for (tta::RoundId r = 100; r < 400; ++r) {
    for (platform::ComponentId obs = 1; obs <= 3; ++obs) {
      Symptom s;
      s.type = SymptomType::kSlotOmission;
      s.observer = obs;
      s.subject_component = 0;
      s.round = r;
      ev.ingest(s);
    }
  }
  const Synthetic s(ev, 0, 405, layout);
  EXPECT_TRUE(s.f.sender_dense_tail(s.now));
  EXPECT_TRUE(s.f.totals.omission_dominant());
  EXPECT_FALSE(s.f.totals.timing_dominant());
  // A run that ended long ago is not a dense *tail*.
  const Synthetic stale(ev, 0, 2000, layout);
  EXPECT_FALSE(stale.f.sender_dense_tail(stale.now));
}

TEST(OnaConditions, ObserverSideAndIsolation) {
  const auto layout = fault::SpatialLayout::linear(5);
  EvidenceStore ev;
  // Component 3 reports many senders in three separated bursts.
  for (tta::RoundId base : {100u, 400u, 800u}) {
    for (tta::RoundId r = base; r < base + 4; ++r) {
      for (platform::ComponentId sender = 0; sender < 3; ++sender) {
        Symptom s;
        s.type = SymptomType::kSlotCrcError;
        s.observer = 3;
        s.subject_component = sender;
        s.round = r;
        ev.ingest(s);
      }
    }
  }
  const Synthetic s(ev, 3, 1000, layout);
  EXPECT_GE(s.f.observer_eps.size(), 3u);
  EXPECT_FALSE(s.f.observers_correlated());
  EXPECT_TRUE(s.f.sender_eps.empty());
}

TEST(OnaEngine, StandardRulesMatchSyntheticArchetypes) {
  const auto layout = fault::SpatialLayout::linear(5);

  // Wearout: accelerating CRC episodes.
  {
    const auto ev = synthetic_sender_evidence(0, 8, 400.0, 0.6);
    EXPECT_TRUE(contains(Synthetic(ev, 0, 5000, layout).onas(), Ona::kWearout));
  }
  // Isolated transient: one short burst.
  {
    const auto ev = synthetic_sender_evidence(0, 1, 200.0, 1.0);
    const auto hits = Synthetic(ev, 0, 5000, layout).onas();
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0], Ona::kIsolatedTransient);
    EXPECT_STREQ(to_string(hits[0]), "isolated-transient");
    EXPECT_EQ(indicates(hits[0]), fault::FaultClass::kComponentExternal);
  }
  // No evidence: nothing triggers.
  {
    EvidenceStore ev;
    EXPECT_TRUE(Synthetic(ev, 0, 100, layout).onas().empty());
  }
}

TEST(OnaEngine, UntriggeredRuleRequiresAllConditions) {
  // Accelerating timing-error episodes: the wearout time signature holds,
  // its value signature (corruption dominant) does not, so no wearout.
  const auto layout = fault::SpatialLayout::linear(5);
  const auto ev = synthetic_sender_evidence(0, 8, 400.0, 0.6,
                                            SymptomType::kSlotTimingError);
  const Synthetic s(ev, 0, 5000, layout);
  ASSERT_TRUE(rate_increasing(s.f.sender_eps));
  ASSERT_FALSE(s.f.totals.corruption_dominant());
  EXPECT_FALSE(contains(s.onas(), Ona::kWearout));
}

// --- live agreement with the classifier -----------------------------------------

TEST(OnaLive, WearoutScenarioTriggersWearoutOna) {
  scenario::Fig10System rig({.seed = 51});
  rig.injector().inject_wearout(1, sim::SimTime{0} + sim::milliseconds(300),
                                sim::milliseconds(600), 0.7,
                                sim::milliseconds(10));
  rig.run(sim::seconds(5));
  EXPECT_TRUE(contains(live_onas(rig, 1), Ona::kWearout));
  // And the rule classifier agrees with the ONA's indicated class.
  EXPECT_EQ(rig.diag().assessor().diagnose_component(1).cls,
            fault::FaultClass::kComponentInternal);
}

TEST(OnaLive, EmiScenarioTriggersMassiveTransientOna) {
  scenario::Fig10System rig({.seed = 52});
  rig.injector().inject_emi_burst(1.0, 1.1, sim::SimTime{0} + sim::milliseconds(600),
                                  sim::milliseconds(12));
  rig.run(sim::seconds(3));
  EXPECT_TRUE(contains(live_onas(rig, 1), Ona::kMassiveTransient));
}

TEST(OnaLive, ConnectorScenarioTriggersConnectorOna) {
  scenario::Fig10System rig({.seed = 53});
  rig.injector().inject_connector_fault(3, sim::SimTime{0} + sim::milliseconds(300),
                                        sim::milliseconds(250),
                                        sim::milliseconds(10), 0.8);
  rig.run(sim::seconds(5));
  EXPECT_TRUE(contains(live_onas(rig, 3), Ona::kConnector));
}

}  // namespace
}  // namespace decos::diag
