// Tests for the declarative Out-of-Norm Assertion framework: condition
// primitives on synthetic evidence, the standard rule base against the
// Fig. 8 archetypes (unit level), and agreement between the triggered
// ONAs and the rule classifier on live end-to-end scenarios. Every
// context is built from an EvidenceSummary, the ONAs' one feature source.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
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

/// The ONA context of `subject` at `now` over synthetic evidence: its
/// features read through an EvidenceSummary with sender-spread bar 2 and
/// the default spatial radius on a 5-component cluster. Converts to the OnaContext, which
/// refers into this object.
class SyntheticContext {
 public:
  SyntheticContext(const EvidenceStore& ev, platform::ComponentId subject,
                   tta::RoundId now, const fault::SpatialLayout& layout)
      : summary_(&ev, FeatureParams{.sender_spread = 2, .spatial_radius = 1.6},
                 5, layout),
        subject_(subject),
        now_(now) {
    summary_.component_features(subject, now, features_);
  }
  // NOLINTNEXTLINE(google-explicit-constructor): stands in for the context
  operator OnaContext() const {
    return {subject_, features_, now_};
  }

 private:
  EvidenceSummary summary_;
  EvidenceSummary::ComponentFeatures features_;
  platform::ComponentId subject_;
  tta::RoundId now_;
};

/// The names of the standard ONAs the live rig's assessor asserts on
/// `subject`, from its summary's features at the rig's current round.
std::vector<std::string> live_onas(scenario::Fig10System& rig,
                                   platform::ComponentId subject) {
  const EvidenceSummary& summary = rig.diag().assessor().summary();
  EvidenceSummary::ComponentFeatures features;
  summary.component_features(subject, rig.round(), features);
  const OnaContext ctx{subject, features, rig.round()};
  const OnaEngine engine = OnaEngine::standard_rules();
  std::vector<std::string> names;
  for (const auto* h : engine.evaluate(ctx)) names.push_back(h->name());
  return names;
}

bool contains(const std::vector<std::string>& names, const std::string& n) {
  return std::find(names.begin(), names.end(), n) != names.end();
}

TEST(OnaConditions, SenderEpisodeCountAtLeast) {
  const auto layout = fault::SpatialLayout::linear(5);
  const auto ev = synthetic_sender_evidence(0, 5, 200.0, 1.0);
  const SyntheticContext ctx(ev, 0, 2000, layout);
  EXPECT_TRUE(conditions::sender_episode_count_at_least(5)(ctx));
  EXPECT_FALSE(conditions::sender_episode_count_at_least(6)(ctx));
  EXPECT_FALSE(conditions::sender_episode_count_at_most(4)(ctx));
  EXPECT_TRUE(conditions::sender_episode_count_at_most(5)(ctx));
}

TEST(OnaConditions, RateIncreasingDetectsAcceleration) {
  const auto layout = fault::SpatialLayout::linear(5);
  const auto accel = synthetic_sender_evidence(0, 8, 400.0, 0.6);
  const auto steady = synthetic_sender_evidence(0, 8, 400.0, 1.0);
  EXPECT_TRUE(conditions::sender_rate_increasing()(
      SyntheticContext(accel, 0, 5000, layout)));
  EXPECT_FALSE(conditions::sender_rate_increasing()(
      SyntheticContext(steady, 0, 5000, layout)));
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
  const SyntheticContext ctx(ev, 0, 405, layout);
  EXPECT_TRUE(conditions::sender_dense_tail()(ctx));
  EXPECT_TRUE(conditions::dominant_omission()(ctx));
  EXPECT_FALSE(conditions::dominant_timing()(ctx));
  // A run that ended long ago is not a dense *tail*.
  const SyntheticContext stale(ev, 0, 2000, layout);
  EXPECT_FALSE(conditions::sender_dense_tail()(stale));
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
  const SyntheticContext ctx(ev, 3, 1000, layout);
  EXPECT_TRUE(conditions::observer_episode_count_at_least(3)(ctx));
  EXPECT_TRUE(conditions::observers_isolated()(ctx));
  EXPECT_FALSE(conditions::observers_spatially_correlated()(ctx));
  EXPECT_TRUE(conditions::no_sender_evidence()(ctx));
}

TEST(OnaEngine, StandardRulesMatchSyntheticArchetypes) {
  const auto layout = fault::SpatialLayout::linear(5);
  const auto engine = OnaEngine::standard_rules();

  // Wearout: accelerating CRC episodes.
  {
    const auto ev = synthetic_sender_evidence(0, 8, 400.0, 0.6);
    const auto hits = engine.evaluate(SyntheticContext(ev, 0, 5000, layout));
    ASSERT_FALSE(hits.empty());
    bool wearout = false;
    for (const auto* h : hits) wearout |= (h->name() == "wearout");
    EXPECT_TRUE(wearout);
  }
  // Isolated transient: one short burst.
  {
    const auto ev = synthetic_sender_evidence(0, 1, 200.0, 1.0);
    const auto hits = engine.evaluate(SyntheticContext(ev, 0, 5000, layout));
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0]->name(), "isolated-transient");
    EXPECT_EQ(hits[0]->indicates(), fault::FaultClass::kComponentExternal);
  }
  // No evidence: nothing triggers.
  {
    EvidenceStore ev;
    EXPECT_TRUE(engine.evaluate(SyntheticContext(ev, 0, 100, layout)).empty());
  }
}

TEST(OnaEngine, UntriggeredRuleRequiresAllConditions) {
  OutOfNormAssertion ona(
      "test", fault::FaultClass::kComponentInternal,
      {conditions::sender_episode_count_at_least(1),
       conditions::dominant_timing()});
  const auto layout = fault::SpatialLayout::linear(5);
  // CRC-dominant evidence: first condition holds, second does not.
  const auto ev = synthetic_sender_evidence(0, 3, 200.0, 1.0);
  EXPECT_FALSE(ona.triggered(SyntheticContext(ev, 0, 2000, layout)));
}

TEST(OnaEngine, EmptyConditionListNeverTriggers) {
  OutOfNormAssertion ona("empty", fault::FaultClass::kNone, {});
  EvidenceStore ev;
  const auto layout = fault::SpatialLayout::linear(5);
  EXPECT_FALSE(ona.triggered(SyntheticContext(ev, 0, 0, layout)));
}

// --- live agreement with the classifier -----------------------------------------

TEST(OnaLive, WearoutScenarioTriggersWearoutOna) {
  scenario::Fig10System rig({.seed = 51});
  rig.injector().inject_wearout(1, sim::SimTime{0} + sim::milliseconds(300),
                                sim::milliseconds(600), 0.7,
                                sim::milliseconds(10));
  rig.run(sim::seconds(5));
  EXPECT_TRUE(contains(live_onas(rig, 1), "wearout"));
  // And the rule classifier agrees with the ONA's indicated class.
  EXPECT_EQ(rig.diag().assessor().diagnose_component(1).cls,
            fault::FaultClass::kComponentInternal);
}

TEST(OnaLive, EmiScenarioTriggersMassiveTransientOna) {
  scenario::Fig10System rig({.seed = 52});
  rig.injector().inject_emi_burst(1.0, 1.1, sim::SimTime{0} + sim::milliseconds(600),
                                  sim::milliseconds(12));
  rig.run(sim::seconds(3));
  EXPECT_TRUE(contains(live_onas(rig, 1), "massive-transient"));
}

TEST(OnaLive, ConnectorScenarioTriggersConnectorOna) {
  scenario::Fig10System rig({.seed = 53});
  rig.injector().inject_connector_fault(3, sim::SimTime{0} + sim::milliseconds(300),
                                        sim::milliseconds(250),
                                        sim::milliseconds(10), 0.8);
  rig.run(sim::seconds(5));
  EXPECT_TRUE(contains(live_onas(rig, 3), "connector"));
}

}  // namespace
}  // namespace decos::diag
