// Closed-loop maintenance: the MaintenanceExecutor consumes the
// diagnostic report and executes the Fig. 11 action in-sim. The
// through-line of every test: a repair only counts when the FRU's trust
// reconverges above the conformance threshold, a wrong action is a
// measured NFF removal followed by a model-guided retry, and a drained
// spare pool degrades visibly (quarantine + meta-ONA), never silently.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "scenario/maintenance.hpp"

namespace decos {
namespace {

using fault::MaintenanceAction;

scenario::Archetype find_archetype(const std::string& name) {
  const auto all = scenario::standard_archetypes();
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const auto& a) { return a.name == name; });
  if (it == all.end()) throw std::runtime_error("unknown archetype " + name);
  return *it;
}

/// Hardware archetypes whose Fig. 11 action touches the physical FRU.
std::vector<scenario::Archetype> hardware_archetypes() {
  std::vector<scenario::Archetype> out;
  for (const char* name :
       {"connector", "wearout", "permanent", "quartz", "brownout", "babbling"}) {
    out.push_back(find_archetype(name));
  }
  return out;
}

TEST(MaintenanceExecutor, RepairVerifiedRestoresTrustAboveConformance) {
  // A permanent hardware failure: the executor pulls a spare, replaces
  // the component, the node re-integrates, and trust reconverges above
  // the verification threshold — the paper's full detect -> disseminate
  // -> analyse -> *repair* loop in one run.
  const auto out = scenario::run_maintenance_scenario(
      find_archetype("permanent"), 901, {}, {});
  EXPECT_TRUE(out.run.recovered) << "final trust " << out.run.final_trust;
  EXPECT_GE(out.run.repairs_verified, 1u);
  EXPECT_EQ(out.run.spares_consumed, 1u);
  ASSERT_FALSE(out.run.trajectory.empty());
  EXPECT_EQ(out.run.trajectory.front(), MaintenanceAction::kReplaceComponent);
  // Model-guided first visit: no wasted second action on the subject.
  EXPECT_EQ(out.run.trajectory.size(), 1u);
  EXPECT_EQ(out.run.nff_removals, 0u);
  EXPECT_GT(out.run.ttr_us, 0);
}

TEST(MaintenanceExecutor, SoftwareUpdateRecoversCrashedJobWithoutHardware) {
  const auto out =
      scenario::run_maintenance_scenario(find_archetype("sw-crash"), 901, {}, {});
  EXPECT_TRUE(out.run.recovered);
  ASSERT_FALSE(out.run.trajectory.empty());
  EXPECT_EQ(out.run.trajectory.front(), MaintenanceAction::kSoftwareUpdate);
  // A software fault must never consume hardware spares or score an NFF.
  EXPECT_EQ(out.run.spares_consumed, 0u);
  EXPECT_EQ(out.run.nff_removals, 0u);
}

TEST(MaintenanceExecutor, TransientFaultHealsWithoutAnyRepair) {
  // SEU bursts are component-external: Fig. 11 maps them to no-action,
  // so the loop must sit on its hands and let trust recover by itself.
  const auto out =
      scenario::run_maintenance_scenario(find_archetype("seu"), 901, {}, {});
  EXPECT_TRUE(out.run.recovered);
  EXPECT_EQ(out.run.repairs_attempted, 0u);
  EXPECT_EQ(out.run.spares_consumed, 0u);
}

TEST(MaintenanceExecutor, AllHardwareArchetypesReconverge) {
  // Acceptance bar: for every hardware archetype, trust on the true FRU
  // reconverges above the conformance threshold after a verified repair.
  const auto result = scenario::run_maintenance_campaign(
      hardware_archetypes(), {901, 902}, {}, {}, 2);
  EXPECT_EQ(result.recovered, result.runs);
  for (const auto& row : result.per_archetype) {
    EXPECT_EQ(row.recovered, row.runs) << row.name;
    EXPECT_GE(row.repairs_verified, row.runs) << row.name;
    EXPECT_GT(row.ttr_samples, 0u) << row.name;
  }
}

TEST(MaintenanceExecutor, NaiveStrategyMeasuredNffThenRetrySucceeds) {
  // The pre-DECOS garage on a connector fault: hardware-flavoured
  // symptoms, so the naive strategy pulls the box. The injector's ground
  // truth scores that removal as NFF (the unit retests OK at the bench),
  // the symptom persists, and the retry's model-guided second opinion
  // re-seats the connector — the wrong-action-then-retry trajectory the
  // paper's economics argument is built on.
  scenario::MaintenanceOptions options;
  options.executor.strategy = analysis::Strategy::kNaiveReplace;
  scenario::Fig10Options rig;
  // The connector archetype targets the default assessor host; home the
  // assessor elsewhere so replacing the box does not kill the diagnosis.
  rig.assessor_host = 0;
  const auto out = scenario::run_maintenance_scenario(
      find_archetype("connector"), 901, options, rig);

  EXPECT_TRUE(out.run.nff_on_subject);
  EXPECT_GE(out.run.nff_removals, 1u);
  EXPECT_GE(out.run.retries, 1u);
  ASSERT_FALSE(out.run.trajectory.empty());
  EXPECT_EQ(out.run.trajectory.front(), MaintenanceAction::kReplaceComponent);
  EXPECT_NE(std::find(out.run.trajectory.begin(), out.run.trajectory.end(),
                      MaintenanceAction::kInspectConnector),
            out.run.trajectory.end());
  EXPECT_TRUE(out.run.recovered) << "final trust " << out.run.final_trust;
}

TEST(MaintenanceExecutor, SpareExhaustionQuarantinesAndRaisesMetaOna) {
  scenario::MaintenanceOptions options;
  options.executor.spares = 0;
  const auto out = scenario::run_maintenance_scenario(
      find_archetype("permanent"), 901, options, {});

  EXPECT_GE(out.run.quarantines, 1u);
  EXPECT_EQ(out.run.spares_consumed, 0u);
  EXPECT_FALSE(out.run.recovered);
  // Degradation is visible, never silent: the meta-ONA sits on the
  // quarantined FRU's report row and the dependent jobs are marked.
  EXPECT_TRUE(out.degraded_ona);
  EXPECT_FALSE(out.degraded_jobs.empty());
}

/// Field-by-field snapshot equality, skipping the only wall-clock metric
/// (sim.events_per_sec — events per wall second, not simulated state).
void expect_same_snapshot(const obs::Snapshot& a, const obs::Snapshot& b) {
  auto filtered = [](const obs::Snapshot& s) {
    std::vector<const obs::SnapshotEntry*> out;
    for (const auto& e : s.entries) {
      if (e.name != "sim.events_per_sec") out.push_back(&e);
    }
    return out;
  };
  const auto fa = filtered(a);
  const auto fb = filtered(b);
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    const auto& ea = *fa[i];
    const auto& eb = *fb[i];
    EXPECT_EQ(ea.name, eb.name);
    EXPECT_EQ(ea.label, eb.label) << ea.name;
    EXPECT_EQ(ea.counter, eb.counter) << ea.name << "{" << ea.label << "}";
    EXPECT_DOUBLE_EQ(ea.gauge, eb.gauge) << ea.name;
    EXPECT_EQ(ea.hist_count, eb.hist_count) << ea.name;
    EXPECT_DOUBLE_EQ(ea.hist_sum, eb.hist_sum) << ea.name;
    EXPECT_EQ(ea.buckets, eb.buckets) << ea.name;
  }
}

void expect_same_repairs(const scenario::RepairTally& a,
                         const scenario::RepairTally& b) {
  EXPECT_EQ(a.repairs_attempted, b.repairs_attempted);
  EXPECT_EQ(a.repairs_verified, b.repairs_verified);
  EXPECT_EQ(a.repairs_failed, b.repairs_failed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.nff_removals, b.nff_removals);
  EXPECT_EQ(a.spares_consumed, b.spares_consumed);
  EXPECT_EQ(a.quarantines, b.quarantines);
}

/// Every member of two maintenance campaign results, field by field (the
/// merged snapshot modulo its one wall-clock gauge).
void expect_same_campaign(const scenario::MaintenanceCampaignResult& a,
                          const scenario::MaintenanceCampaignResult& b) {
  ASSERT_EQ(a.per_archetype.size(), b.per_archetype.size());
  for (std::size_t i = 0; i < a.per_archetype.size(); ++i) {
    const auto& s = a.per_archetype[i];
    const auto& p = b.per_archetype[i];
    SCOPED_TRACE(s.name);
    EXPECT_EQ(s.name, p.name);
    EXPECT_EQ(s.runs, p.runs);
    EXPECT_EQ(s.recovered, p.recovered);
    expect_same_repairs(s, p);
    EXPECT_EQ(s.ttr_us_total, p.ttr_us_total);
    EXPECT_EQ(s.ttr_samples, p.ttr_samples);
  }
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.recovered, b.recovered);
  expect_same_repairs(a, b);
  expect_same_snapshot(a.metrics, b.metrics);
}

TEST(MaintenanceExecutor, ParallelCampaignIsBitIdenticalToSerial) {
  const std::vector<scenario::Archetype> subset = {find_archetype("permanent"),
                                                   find_archetype("sw-crash")};
  const std::vector<std::uint64_t> seeds = {901, 902};
  const auto serial =
      scenario::run_maintenance_campaign(subset, seeds, {}, {}, 1);
  const auto parallel =
      scenario::run_maintenance_campaign(subset, seeds, {}, {}, 4);
  expect_same_campaign(serial, parallel);

  // The same grid at jobs 1 and 3 is the in-order fold of its
  // one-archetype, one-seed campaigns — the shape each perfbench unit
  // runs — and each of those is the directed scenario's run.
  scenario::MaintenanceCampaignResult fold;
  for (std::size_t a = 0; a < subset.size(); ++a) {
    for (const std::uint64_t seed : seeds) {
      const auto one =
          scenario::run_maintenance_campaign({subset[a]}, {seed}, {}, {}, 1);
      ASSERT_EQ(one.per_archetype.size(), 1u);
      const auto directed = scenario::run_maintenance_scenario(subset[a], seed);
      EXPECT_EQ(directed.run.recovered ? 1u : 0u, one.recovered);
      expect_same_repairs(directed.run, one);
      EXPECT_EQ(directed.run.ttr_us >= 0 ? 1u : 0u,
                one.per_archetype.front().ttr_samples);
      EXPECT_EQ(std::max<std::int64_t>(directed.run.ttr_us, 0),
                one.per_archetype.front().ttr_us_total);
      if (fold.per_archetype.size() == a) {
        fold.per_archetype.push_back(one.per_archetype.front());
      } else {
        auto& row = fold.per_archetype[a];
        const auto& r = one.per_archetype.front();
        row.runs += r.runs;
        row.recovered += r.recovered;
        row += r;
        row.ttr_us_total += r.ttr_us_total;
        row.ttr_samples += r.ttr_samples;
      }
      fold.runs += one.runs;
      fold.recovered += one.recovered;
      fold += one;
      fold.metrics.merge(one.metrics);
    }
  }
  for (const unsigned jobs : {1u, 3u}) {
    SCOPED_TRACE(jobs);
    expect_same_campaign(
        scenario::run_maintenance_campaign(subset, seeds, {}, {}, jobs), fold);
  }
}

}  // namespace
}  // namespace decos
