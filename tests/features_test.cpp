// Direct unit tests of the feature vocabulary shared by the classifier
// and the ONA library, checked through the exact walks that serve as the
// evidence summary's oracle: credibility filtering, verdict totals and
// their dominance tests, spatial correlation geometry, drift-bucket
// tests, and the alpha score.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "diag/features.hpp"
#include "exact_features.hpp"

namespace decos::diag {
namespace {

Symptom transport(tta::RoundId round, SymptomType type,
                  platform::ComponentId obs, platform::ComponentId subj) {
  Symptom s;
  s.round = round;
  s.type = type;
  s.observer = obs;
  s.subject_component = subj;
  s.magnitude = 1.0;
  return s;
}

// --- credibility filter -----------------------------------------------------------

TEST(Features, SelfSuspectObserverDoesNotCountTowardQuorum) {
  EvidenceStore ev;
  // Observer 1 reports subjects 0 and 2 in round 10 (spread 2 >= bar) —
  // self-suspect; observer 3 reports only subject 0 — credible.
  ev.ingest(transport(10, SymptomType::kSlotCrcError, 1, 0));
  ev.ingest(transport(10, SymptomType::kSlotCrcError, 1, 2));
  ev.ingest(transport(10, SymptomType::kSlotCrcError, 3, 0));
  const FeatureParams p{.sender_spread = 2, .spatial_radius = 1.6};
  static_assert(kObserverQuorum == 2);
  // Subject 0 has observers {1 (suspect), 3 (credible)}: 1 credible < 2.
  EXPECT_TRUE(credible_sender_rounds(ev, 0, p).empty());
  // Add a second credible observer.
  ev.ingest(transport(10, SymptomType::kSlotCrcError, 4, 0));
  EXPECT_EQ(credible_sender_rounds(ev, 0, p).size(), 1u);
}

TEST(Features, ObserverRoundsNeedSpread) {
  EvidenceStore ev;
  ev.ingest(transport(5, SymptomType::kSlotOmission, 2, 0));
  const FeatureParams p{.sender_spread = 2, .spatial_radius = 1.6};
  EXPECT_TRUE(observer_rounds(ev, 2, p).empty());  // only one sender flagged
  ev.ingest(transport(5, SymptomType::kSlotOmission, 2, 1));
  EXPECT_EQ(observer_rounds(ev, 2, p).size(), 1u);
}

// The assessor's observer charge and the classifier's credibility filter
// share one auto-scaled bar. Both formulas it replaced agree with it for
// every cluster size.
TEST(Features, AutoSenderSpreadMatchesBothFormerFormulas) {
  for (std::uint32_t n = 1; n <= 64; ++n) {
    const std::size_t assessor_bar =
        std::max<std::size_t>(2, (3 * (std::size_t{n} - 1)) / 4);
    const std::uint32_t classifier_bar =
        std::max(2u, (3u * std::max(n, 2u) - 3u) / 4u);
    EXPECT_EQ(auto_sender_spread(n), assessor_bar) << "n=" << n;
    EXPECT_EQ(auto_sender_spread(n), classifier_bar) << "n=" << n;
  }
  static_assert(auto_sender_spread(7) == 4);
}

// --- verdict totals -----------------------------------------------------------------

TEST(Features, VerdictTotalsCountOnlyQuorumRounds) {
  EvidenceStore ev;
  // Round 1: two observers (quorum met). Round 2: one observer only.
  ev.ingest(transport(1, SymptomType::kSlotCrcError, 1, 0));
  ev.ingest(transport(1, SymptomType::kSlotOmission, 2, 0));
  ev.ingest(transport(2, SymptomType::kSlotTimingError, 1, 0));
  const auto vt = verdict_totals(ev, 0);
  EXPECT_EQ(vt.quorum_rounds, 1u);
  EXPECT_EQ(vt.crc, 1u);
  EXPECT_EQ(vt.omission, 1u);
  EXPECT_EQ(vt.timing, 0u);  // round 2 below quorum
}

TEST(Features, DominantVerdictNeedsAQuorumRound) {
  VerdictTotals vt;
  EXPECT_FALSE(vt.omission_dominant());
  EXPECT_FALSE(vt.timing_dominant());
  EXPECT_FALSE(vt.corruption_dominant());
  // A tie between omission and corruption asserts both; timing must lead.
  vt = {.crc = 3, .timing = 3, .omission = 3, .quorum_rounds = 3};
  EXPECT_TRUE(vt.omission_dominant());
  EXPECT_TRUE(vt.corruption_dominant());
  EXPECT_FALSE(vt.timing_dominant());
  vt.timing = 4;
  EXPECT_TRUE(vt.timing_dominant());
  EXPECT_FALSE(vt.omission_dominant());
  EXPECT_FALSE(vt.corruption_dominant());
}

// --- spatial correlation geometry ----------------------------------------------------

TEST(Features, SpatialCorrelationRespectsRadiusAndDelta) {
  const FeatureParams p{.sender_spread = 2, .spatial_radius = 1.5};
  const auto layout = fault::SpatialLayout::linear(5);

  auto make_ev = [&](platform::ComponentId other, tta::RoundId other_round) {
    EvidenceStore ev;
    // Component 1 has an observer episode at rounds 100-102.
    for (tta::RoundId r = 100; r <= 102; ++r) {
      ev.ingest(transport(r, SymptomType::kSlotCrcError, 1, 0));
      ev.ingest(transport(r, SymptomType::kSlotCrcError, 1, 3));
    }
    // `other` has observer activity at `other_round`.
    ev.ingest(transport(other_round, SymptomType::kSlotCrcError, other, 0));
    ev.ingest(transport(other_round, SymptomType::kSlotCrcError, other, 3));
    return ev;
  };

  // Neighbour (distance 1) within delta: correlated.
  {
    const auto ev = make_ev(2, 102 + kCorrelationDelta);
    const auto eps = observer_episodes(ev, 1, p);
    EXPECT_TRUE(spatially_correlated(ev, 1, eps, layout, 5, p));
  }
  // Neighbour one round past delta: not correlated.
  {
    const auto ev = make_ev(2, 103 + kCorrelationDelta);
    const auto eps = observer_episodes(ev, 1, p);
    EXPECT_FALSE(spatially_correlated(ev, 1, eps, layout, 5, p));
  }
  // Neighbour but far in time: not correlated.
  {
    const auto ev = make_ev(2, 300);
    const auto eps = observer_episodes(ev, 1, p);
    EXPECT_FALSE(spatially_correlated(ev, 1, eps, layout, 5, p));
  }
  // Coincident in time but spatially remote (distance 3): not correlated.
  {
    const auto ev = make_ev(4, 101);
    const auto eps = observer_episodes(ev, 1, p);
    EXPECT_FALSE(spatially_correlated(ev, 1, eps, layout, 5, p));
  }
}

// --- drift buckets ---------------------------------------------------------------------

TEST(Features, DriftNeedsMonotoneGrowth) {
  // Clean growth: drifting.
  std::vector<double> rising;
  for (int i = 0; i < 16; ++i) rising.push_back(1.0 + 0.3 * i);
  EXPECT_TRUE(magnitudes_drifting(rising));

  // Flat: not drifting.
  std::vector<double> flat(16, 5.0);
  EXPECT_FALSE(magnitudes_drifting(flat));

  // Declining: not drifting.
  std::vector<double> falling;
  for (int i = 0; i < 16; ++i) falling.push_back(10.0 - 0.5 * i);
  EXPECT_FALSE(magnitudes_drifting(falling));

  // Too short: undecidable.
  EXPECT_FALSE(magnitudes_drifting(std::vector<double>{1, 2, 3, 4, 5, 6, 7}));

  // Growth modulated by oscillation (the sine-sensor case): still drifts.
  std::vector<double> wavy;
  for (int i = 0; i < 24; ++i) {
    wavy.push_back(1.0 + 0.4 * i + 0.8 * std::sin(i * 1.3));
  }
  EXPECT_TRUE(magnitudes_drifting(wavy));
}

// --- alpha score ----------------------------------------------------------------------

TEST(Features, AlphaScoreDecaysAndAccumulates) {
  const FeatureParams p{.sender_spread = 2, .spatial_radius = 1.6};
  EvidenceStore ev;
  // One old symptomatic round: nearly fully decayed after 5000 rounds.
  ev.ingest(transport(100, SymptomType::kSlotCrcError, 1, 0));
  ev.ingest(transport(100, SymptomType::kSlotCrcError, 2, 0));
  EXPECT_LT(alpha_score(ev, 0, 5100, p), 0.01);

  // A dense recent run accumulates toward its length.
  for (tta::RoundId r = 5000; r < 5050; ++r) {
    ev.ingest(transport(r, SymptomType::kSlotCrcError, 1, 0));
    ev.ingest(transport(r, SymptomType::kSlotCrcError, 2, 0));
  }
  const double a = alpha_score(ev, 0, 5050, p);
  EXPECT_GT(a, 45.0);
  EXPECT_LT(a, 51.0);
}

TEST(Features, AlphaScoreIgnoresFutureRounds) {
  const FeatureParams p{.sender_spread = 2, .spatial_radius = 1.6};
  EvidenceStore ev;
  ev.ingest(transport(200, SymptomType::kSlotCrcError, 1, 0));
  ev.ingest(transport(200, SymptomType::kSlotCrcError, 2, 0));
  EXPECT_DOUBLE_EQ(alpha_score(ev, 0, 100, p), 0.0);
}

}  // namespace
}  // namespace decos::diag
