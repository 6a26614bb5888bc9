// One feature source for verdicts and ONAs: every component row of
// DiagnosticService::report() must carry exactly the verdict and the
// pattern ONAs that one EvidenceSummary::ComponentFeatures value, read
// from the serving assessor's summary, yields — so an asserted fault
// pattern can never rest on a different observer-credibility bar than the
// verdict next to it. Checked on every fault archetype of the Fig. 10
// rig, and against the exact walks under the same parameters. Every job
// row carries the verdict the assessor gives the job on its own, with the
// host verdict classified afresh.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "diag/ona.hpp"
#include "diag/summary.hpp"
#include "exact_features.hpp"
#include "scenario/campaign.hpp"
#include "scenario/fig10.hpp"

namespace decos::diag {
namespace {

/// The pattern ONAs come first in the table; the report's meta and
/// external ONAs do not come from the features.
bool is_pattern_ona(Ona ona) { return ona < Ona::kChannelDegraded; }

/// Checks every component row of a fresh report against the features the
/// serving assessor's summary yields; returns the rows for further checks.
std::vector<FruReport> expect_rows_follow_features(
    scenario::Fig10System& rig) {
  const std::vector<FruReport> rows = rig.diag().report();
  // Legacy mode: the active assessor serves every component row.
  const Assessor& a = rig.diag().assessor();
  std::size_t component_rows = 0;
  for (const FruReport& row : rows) {
    SCOPED_TRACE(row.label());
    if (row.job) {
      EXPECT_EQ(row.diagnosis, a.diagnose_job(*row.job));
      continue;
    }
    ++component_rows;
    EvidenceSummary::ComponentFeatures f;
    a.summary().component_features(row.component, a.current_round(), f);

    std::vector<Ona> asserted;
    for (const Ona ona : row.asserted_onas) {
      if (is_pattern_ona(ona)) asserted.push_back(ona);
    }
    EXPECT_EQ(asserted, pattern_onas(f, a.current_round()));
    // The same ONAs follow from the exact walks under the same resolved
    // parameters.
    const EvidenceSummary::ComponentFeatures walked = exact_component_features(
        a.evidence(), row.component, a.current_round(),
        a.summary().feature_params(), a.summary().layout(),
        rig.options().components);
    EXPECT_EQ(asserted, pattern_onas(walked, a.current_round()));

    EXPECT_EQ(row.diagnosis, a.classifier().classify(f, a.current_round()));
  }
  EXPECT_EQ(component_rows, rig.options().components);
  return rows;
}

TEST(FeatureSource, ReportRowsFollowOneFeatureValueOnEveryArchetype) {
  for (const scenario::Archetype& a : scenario::standard_archetypes()) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
      SCOPED_TRACE(a.name + " seed " + std::to_string(seed));
      scenario::Fig10Options options;
      options.seed = seed;
      scenario::Fig10System rig(options);
      a.inject(rig);
      rig.run(a.horizon);
      expect_rows_follow_features(rig);
    }
  }
}

TEST(FeatureSource, EmiBurstRowAssertsThePatternItsVerdictNames) {
  // Three EMI bursts on the Fig. 10 rig, seed 1. Component 2 sees them
  // only as isolated sender-side episodes under the resolved credibility
  // bar, so its row must assert isolated-transient, not the
  // massive-transient pattern a laxer bar would find.
  const auto archetypes = scenario::standard_archetypes();
  const auto emi = std::find_if(
      archetypes.begin(), archetypes.end(),
      [](const scenario::Archetype& a) { return a.name == "emi-bursts"; });
  ASSERT_NE(emi, archetypes.end());
  scenario::Fig10System rig;  // seed 1
  emi->inject(rig);
  rig.run(emi->horizon);
  const std::vector<FruReport> rows = expect_rows_follow_features(rig);
  ASSERT_GT(rows.size(), 2u);
  const FruReport& row = rows[2];
  ASSERT_EQ(row.component, 2u);
  ASSERT_FALSE(row.job.has_value());
  EXPECT_EQ(row.diagnosis.cls, fault::FaultClass::kComponentExternal);
  const auto& onas = row.asserted_onas;
  EXPECT_NE(std::find(onas.begin(), onas.end(), Ona::kIsolatedTransient),
            onas.end());
  EXPECT_EQ(std::find(onas.begin(), onas.end(), Ona::kMassiveTransient),
            onas.end());
}

}  // namespace
}  // namespace decos::diag
