// Hierarchical diagnosis end to end: the hierarchy rig
// (scenario/hierarchy.hpp), verdict-delta dissemination, the composed
// service contract, campaign determinism, and the N=1 degenerate cube's
// equivalence with the legacy single-assessor path.

#include <gtest/gtest.h>

#include <vector>

#include "fault/chaos.hpp"
#include "scenario/fig10.hpp"
#include "scenario/hierarchy.hpp"

namespace decos {
namespace {

sim::SimTime ms(std::int64_t v) { return sim::SimTime{0} + sim::milliseconds(v); }

TEST(VerdictDeltaCodec, RoundTripsThroughAux) {
  diag::VerdictDelta d;
  d.job_level = true;
  d.fru = 417;
  d.origin = 23;
  d.trust = 0.3125;
  d.cls = fault::FaultClass::kComponentInternal;
  d.clear = false;
  d.round = 95;
  // Forwarded five rounds after emission: the age field carries the
  // difference, so the receiver reconstructs the emission round even
  // though the multiplexer restamps sent_round.
  vnet::Message m = diag::encode_delta(d, 100);
  const auto back = diag::decode_delta(m);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->job_level, d.job_level);
  EXPECT_EQ(back->fru, d.fru);
  EXPECT_EQ(back->origin, d.origin);
  EXPECT_EQ(back->trust, d.trust);
  EXPECT_EQ(back->cls, d.cls);
  EXPECT_EQ(back->clear, d.clear);
  EXPECT_EQ(back->round, d.round);
}

TEST(VerdictDeltaCodec, SaturatedAgeIsRejected) {
  diag::VerdictDelta d;
  d.fru = 3;
  d.round = 10;
  // 63+ rounds old: the age field saturates and the emission round can
  // no longer be reconstructed — receivers must drop the copy.
  EXPECT_FALSE(diag::decode_delta(diag::encode_delta(d, 10 + 63)).has_value());
  EXPECT_FALSE(diag::decode_delta(diag::encode_delta(d, 10 + 200)).has_value());
  EXPECT_TRUE(diag::decode_delta(diag::encode_delta(d, 10 + 62)).has_value());
}

TEST(HierarchyRig, SteadyStateFiltersNothingAndDisseminatesNothing) {
  scenario::HierarchyOptions opts;
  opts.components = 8;
  scenario::HierarchySystem rig(opts);
  rig.run(sim::seconds(1));

  const auto& topo = rig.diag().topology();
  EXPECT_EQ(topo.positions(), 8u);
  EXPECT_EQ(topo.dimension(), 3u);

  const auto stats = rig.diag().hierarchy_stats();
  // Sender-side routing already narrows traffic to the tester sets, so
  // the receiver-side filter (the safety net for reassignment races)
  // never fires in an undisturbed run.
  EXPECT_GT(stats.symptoms_accepted, 0u);
  EXPECT_EQ(stats.symptoms_filtered, 0u);
  // Nothing crossed the violation threshold: no deltas on the wire.
  EXPECT_EQ(stats.deltas_emitted, 0u);
  EXPECT_EQ(rig.diag().failovers(), 0u);

  for (platform::ComponentId c = 0; c < 8; ++c) {
    EXPECT_GT(rig.diag().component_trust(c), 0.9);
  }
}

TEST(HierarchyRig, AssessorDeathSelfHealsWithoutFailover) {
  scenario::HierarchyOptions opts;
  opts.components = 8;
  scenario::HierarchySystem rig(opts);

  // Kill overlay position 3 — simultaneously an application host, an
  // agent and an assessor slice owner.
  fault::ChaosInjector storm(rig.sim(), rig.system());
  storm.kill_host(3, ms(400));
  rig.run(sim::seconds(2));

  // The composed view convicts the dead host even though one of its own
  // testers died with it — surviving testers took over the slice.
  EXPECT_LT(rig.diag().component_trust(3), 0.5);
  ASSERT_TRUE(rig.diag().first_component_violation(3).has_value());
  EXPECT_NE(rig.diag().diagnose_component(3).cls, fault::FaultClass::kNone);

  // No legacy promotion happened: the overlay self-healed by local
  // tester recomputation and verdict dissemination.
  EXPECT_EQ(rig.diag().failovers(), 0u);
  EXPECT_GT(rig.diag().topology().recomputes(), 0u);
  const auto stats = rig.diag().hierarchy_stats();
  EXPECT_GT(stats.deltas_emitted, 0u);
  EXPECT_GT(stats.deltas_accepted, 0u);

  // The rest of the cluster stays trusted.
  for (platform::ComponentId c = 0; c < 8; ++c) {
    if (c == 3) continue;
    EXPECT_GT(rig.diag().component_trust(c), 0.9) << "component " << int(c);
  }
}

TEST(HierarchyRig, StalenessGaugesFollowTheServingTester) {
  // Only the primary position exports metrics, and it never hears agents
  // outside its tester slice. The per-FRU staleness gauges must still
  // report each FRU's evidence age as its serving tester sees it — the
  // same figure as the report row — not the primary's blind spot.
  scenario::HierarchyOptions opts;
  opts.components = 8;
  scenario::HierarchySystem rig(opts);
  rig.run(sim::seconds(2));

  const auto rows = rig.diag().report();
  const obs::Snapshot snap = rig.sim().metrics().snapshot();
  std::size_t checked = 0;
  for (const diag::FruReport& row : rows) {
    if (row.job) continue;
    SCOPED_TRACE(row.label());
    const obs::SnapshotEntry* gauge = snap.find(
        "diag.evidence_staleness", "fru=c" + std::to_string(row.component));
    ASSERT_NE(gauge, nullptr);
    EXPECT_EQ(gauge->gauge, static_cast<double>(row.evidence_age));
    // Undisturbed run: every FRU is healthy and its agent fresh.
    EXPECT_LE(gauge->gauge, static_cast<double>(diag::Assessor::kStaleAfter));
    ++checked;
  }
  EXPECT_EQ(checked, 8u);
}

TEST(HierarchyCampaign, JobsFourBitIdenticalToSerial) {
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
  scenario::HierarchyOptions base;
  base.components = 8;
  const auto serial = scenario::run_hierarchy_campaign(seeds, base, 1);
  const auto parallel = scenario::run_hierarchy_campaign(seeds, base, 4);

  EXPECT_EQ(serial.runs, parallel.runs);
  EXPECT_EQ(serial.correct, parallel.correct);
  for (int t = 0; t < static_cast<int>(analysis::ConfusionMatrix::kClasses);
       ++t) {
    for (int p = 0; p < static_cast<int>(analysis::ConfusionMatrix::kClasses);
         ++p) {
      EXPECT_EQ(serial.confusion.count(static_cast<fault::FaultClass>(t),
                                       static_cast<fault::FaultClass>(p)),
                parallel.confusion.count(static_cast<fault::FaultClass>(t),
                                         static_cast<fault::FaultClass>(p)));
    }
  }
  const diag::HierarchyStats s = serial.hierarchy_stats();
  const diag::HierarchyStats p = parallel.hierarchy_stats();
  EXPECT_EQ(s.symptoms_accepted, p.symptoms_accepted);
  EXPECT_EQ(s.symptoms_filtered, p.symptoms_filtered);
  EXPECT_EQ(s.deltas_emitted, p.deltas_emitted);
  EXPECT_EQ(s.deltas_forwarded, p.deltas_forwarded);
  EXPECT_EQ(s.deltas_accepted, p.deltas_accepted);
  EXPECT_EQ(s.deltas_duplicate, p.deltas_duplicate);
  EXPECT_EQ(s.deltas_rejected, p.deltas_rejected);
  EXPECT_GT(s.symptoms_accepted, 0u);
  EXPECT_GT(serial.runs, 0u);
}

TEST(DegenerateCube, SinglePositionMatchesLegacyAssessor) {
  // One assessor host, hierarchy on vs off: the one-position cube is the
  // degenerate case and must reproduce the legacy verdicts bit for bit —
  // same trust doubles, same classes, for every FRU.
  auto run = [](bool hierarchy) {
    scenario::Fig10Options opts;
    opts.seed = 11;
    opts.hierarchy = hierarchy;
    scenario::Fig10System rig(opts);
    rig.injector().inject_wearout(1, ms(300), sim::milliseconds(600), 0.7,
                                  sim::milliseconds(10));
    rig.run(sim::seconds(4));

    std::vector<double> trust;
    std::vector<fault::FaultClass> cls;
    for (platform::ComponentId c = 0; c < rig.options().components; ++c) {
      trust.push_back(rig.diag().component_trust(c));
      cls.push_back(rig.diag().diagnose_component(c).cls);
    }
    for (const platform::JobId j : rig.app_jobs()) {
      trust.push_back(rig.diag().job_trust(j));
      cls.push_back(rig.diag().diagnose_job(j).cls);
    }
    return std::pair<std::vector<double>, std::vector<fault::FaultClass>>{
        trust, cls};
  };
  const auto legacy = run(false);
  const auto degenerate = run(true);
  EXPECT_EQ(legacy.first, degenerate.first);
  EXPECT_EQ(legacy.second, degenerate.second);
  // And the run actually convicted the victim.
  EXPECT_NE(legacy.second[1], fault::FaultClass::kNone);
}

}  // namespace
}  // namespace decos
