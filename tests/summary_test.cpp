// Direct oracle tests of the incremental evidence summary
// (diag/summary.hpp): its folded component features must equal the exact
// O(window) walks of tests/exact_features.hpp, and the classifier must
// reach the same verdict from either — on every fault archetype of the
// Fig. 10 rig, on a synthetic stream with late arrivals, and after a
// forced rebuild.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "diag/classifier.hpp"
#include "diag/summary.hpp"
#include "exact_features.hpp"
#include "scenario/campaign.hpp"
#include "scenario/fig10.hpp"

namespace decos::diag {

void PrintTo(const Episode& e, std::ostream* os) {
  *os << "[" << e.first << ".." << e.last << " x" << e.rounds << "]";
}

void PrintTo(const VerdictTotals& t, std::ostream* os) {
  *os << "{crc " << t.crc << ", timing " << t.timing << ", omission "
      << t.omission << ", quorum " << t.quorum_rounds << "}";
}

namespace {

/// What one comparison saw, so a test can insist the oracle was not
/// vacuous (folded state actually carried episodes).
struct Coverage {
  std::size_t folded_sender_eps = 0;
  std::size_t folded_observer_eps = 0;
};

/// Compares the summary's features for every component at `now` with the
/// exact walks over the same store and the same resolved parameters, and
/// the verdicts `classifier` (whose feature_params the summary holds)
/// reaches from each.
void expect_matches_exact(const Classifier& classifier,
                          const EvidenceSummary& s, tta::RoundId now,
                          std::uint32_t components, Coverage* cov = nullptr) {
  const EvidenceStore& ev = s.evidence();
  const FeatureParams& fp = s.feature_params();
  const fault::SpatialLayout& layout = s.layout();
  for (platform::ComponentId c = 0; c < components; ++c) {
    SCOPED_TRACE("component " + std::to_string(c) + " at round " +
                 std::to_string(now) + " (horizon " +
                 std::to_string(s.horizon()) + ")");
    EvidenceSummary::ComponentFeatures f;
    s.component_features(c, now, f);

    EXPECT_EQ(f.sender_eps, sender_episodes(ev, c, fp));
    const std::vector<Episode> observer_eps = observer_episodes(ev, c, fp);
    EXPECT_EQ(f.observer_eps, observer_eps);
    EXPECT_EQ(f.totals, verdict_totals(ev, c));

    ASSERT_EQ(f.observer_hit.size(), f.observer_eps.size());
    const auto hits = static_cast<std::size_t>(
        std::count(f.observer_hit.begin(), f.observer_hit.end(), true));
    EXPECT_EQ(2 * hits > f.observer_eps.size(),
              spatially_correlated(ev, c, observer_eps, layout, components,
                                   fp));

    const double exact = alpha_score(ev, c, now, fp);
    EXPECT_LE(std::abs(f.alpha - exact), 1e-9 * exact)
        << "summary alpha " << f.alpha << " vs exact " << exact;

    const EvidenceSummary::ComponentFeatures walked =
        exact_component_features(ev, c, now, fp, layout, components);
    EXPECT_EQ(f.observer_hit, walked.observer_hit);
    EXPECT_EQ(f.guardian_blocks, walked.guardian_blocks);
    EXPECT_EQ(f.guardian_episodes, walked.guardian_episodes);
    EXPECT_EQ(classifier.classify(f, now), classifier.classify(walked, now));

    if (cov != nullptr) {
      for (const Episode& e : f.sender_eps) {
        if (e.first <= s.horizon()) ++cov->folded_sender_eps;
      }
      for (const Episode& e : f.observer_eps) {
        if (e.first <= s.horizon()) ++cov->folded_observer_eps;
      }
    }
  }
}

TEST(EvidenceSummary, MatchesExactWalksOnEveryArchetype) {
  const auto archetypes = scenario::standard_archetypes();
  ASSERT_EQ(archetypes.size(), 13u);
  Coverage cov;
  for (const scenario::Archetype& a : archetypes) {
    SCOPED_TRACE(a.name);
    scenario::Fig10System rig;
    a.inject(rig);
    const Assessor& assessor = rig.diag().assessor();
    const std::uint32_t n = rig.options().components;
    // Check every half second from 1 s on — 400 rounds in, past the
    // 320-round fold lag — up to the archetype's classification horizon.
    rig.run(sim::seconds(1));
    for (sim::Duration t = sim::seconds(1);; t = t + sim::milliseconds(500)) {
      ASSERT_GT(assessor.summary().horizon(), 0u);
      expect_matches_exact(assessor.classifier(), assessor.summary(),
                           assessor.current_round(), n, &cov);
      if (t.ns() >= a.horizon.ns()) break;
      rig.run(sim::milliseconds(500));
    }
  }
  // The archetypes exercise both feature sides through folded state.
  EXPECT_GT(cov.folded_sender_eps, 0u);
  EXPECT_GT(cov.folded_observer_eps, 0u);
}

Symptom transport(tta::RoundId round, platform::ComponentId observer,
                  platform::ComponentId subject, SymptomType type) {
  Symptom s;
  s.type = type;
  s.observer = observer;
  s.subject_component = subject;
  s.round = round;
  s.magnitude = 1.0;
  return s;
}

constexpr std::uint32_t kComponents = 5;

/// Feeds a seeded synthetic stream into `store` round by round, folding
/// `summary` after each round as the assessor does, and compares with the
/// exact walks every `check_every` rounds. The stream mixes credible
/// sender episodes, receive-path bursts (one observer flagging most
/// senders), lone reports below quorum, symptoms in round 0, and late
/// arrivals up to 250 rounds old (within the wire's 255-round age field).
void drive_synthetic(const Classifier& classifier, EvidenceStore& store,
                     EvidenceSummary& summary, tta::RoundId rounds,
                     tta::RoundId check_every, Coverage* cov) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::deque<std::pair<tta::RoundId, Symptom>> late;  // (arrival, symptom)
  const SymptomType kTypes[] = {SymptomType::kSlotCrcError,
                                SymptomType::kSlotTimingError,
                                SymptomType::kSlotOmission};
  auto type = [&] { return kTypes[rng() % 3]; };
  auto deliver = [&](tta::RoundId now, const Symptom& s) {
    if (u(rng) < 0.2) {
      late.emplace_back(now + 1 + rng() % 250, s);
      return;
    }
    store.ingest(s);
    summary.note_ingest(s);
  };
  for (tta::RoundId r = 0; r < rounds; ++r) {
    // Component 1 turns intermittently faulty: dense episodes whose rate
    // rises; two credible observers report it.
    const double p1 = r < 600 ? 0.02 : (r < 1400 ? 0.06 : 0.15);
    if (r == 0 || u(rng) < p1) {
      deliver(r, transport(r, 2, 1, type()));
      deliver(r, transport(r, 4, 1, type()));
    }
    // Component 3's receive path: it flags three senders at once.
    if (r == 0 || u(rng) < 0.03) {
      for (const platform::ComponentId sender : {0u, 1u, 4u}) {
        deliver(r, transport(r, 3, sender, type()));
      }
    }
    // Component 2, adjacent to 3, occasionally the same (spatial
    // correlation candidates).
    if (u(rng) < 0.01) {
      for (const platform::ComponentId sender : {0u, 3u, 4u}) {
        deliver(r, transport(r, 2, sender, type()));
      }
    }
    // Lone reports: one observer only, below quorum.
    if (u(rng) < 0.05) {
      deliver(r, transport(r, static_cast<platform::ComponentId>(rng() % 5),
                           0, type()));
    }
    std::stable_sort(
        late.begin(), late.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    while (!late.empty() && late.front().first <= r) {
      store.ingest(late.front().second);
      summary.note_ingest(late.front().second);
      late.pop_front();
    }
    summary.fold(r);
    if (r % check_every == 0 || r + 1 == rounds) {
      expect_matches_exact(classifier, summary, r, kComponents, cov);
    }
  }
}

TEST(EvidenceSummary, MatchesExactWalksUnderLateArrivals) {
  const auto layout = fault::SpatialLayout::linear(kComponents);
  const Classifier classifier({});
  EvidenceStore store;
  EvidenceSummary summary(&store, classifier.feature_params(kComponents),
                          kComponents, layout);
  Coverage cov;
  drive_synthetic(classifier, store, summary, 2000, 97, &cov);
  EXPECT_EQ(summary.horizon(), 1999 - EvidenceSummary::kFoldLag);
  // Late arrivals stay inside the fold lag: no rebuild was ever needed.
  EXPECT_EQ(summary.rebuilds(), 0u);
  EXPECT_GT(cov.folded_sender_eps, 0u);
  EXPECT_GT(cov.folded_observer_eps, 0u);
}

TEST(EvidenceSummary, ArrivalAtOrBeforeHorizonForcesRebuild) {
  const auto layout = fault::SpatialLayout::linear(kComponents);
  const Classifier classifier({});
  EvidenceStore store;
  EvidenceSummary summary(&store, classifier.feature_params(kComponents),
                          kComponents, layout);
  drive_synthetic(classifier, store, summary, 1200, 400, nullptr);
  const tta::RoundId now = 1199;
  const tta::RoundId horizon = summary.horizon();
  ASSERT_EQ(horizon, now - EvidenceSummary::kFoldLag);
  ASSERT_EQ(summary.rebuilds(), 0u);

  // A credible sender round for component 0 exactly at the horizon, and a
  // receive-path burst at component 4 well before it: both land inside
  // folded state, which only a rebuild can account.
  for (const Symptom& s :
       {transport(horizon, 1, 0, SymptomType::kSlotOmission),
        transport(horizon, 2, 0, SymptomType::kSlotOmission),
        transport(horizon - 100, 4, 0, SymptomType::kSlotCrcError),
        transport(horizon - 100, 4, 1, SymptomType::kSlotCrcError),
        transport(horizon - 100, 4, 2, SymptomType::kSlotCrcError)}) {
    store.ingest(s);
    summary.note_ingest(s);
  }
  expect_matches_exact(classifier, summary, now, kComponents);
  EXPECT_EQ(summary.rebuilds(), 1u);
  EXPECT_EQ(summary.horizon(), horizon);
}

}  // namespace
}  // namespace decos::diag
