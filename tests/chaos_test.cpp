// Diagnostic-path fault tolerance: the chaos catalogue (fault/chaos.hpp)
// and the chaos campaign (scenario/chaos.hpp). The through-line of every
// test: attacks on the diagnostic path itself must degrade the
// maintenance view gracefully and visibly, never silently.

#include <gtest/gtest.h>

#include "fault/chaos.hpp"
#include "scenario/campaign.hpp"
#include "scenario/chaos.hpp"
#include "scenario/fig10.hpp"

namespace decos {
namespace {

sim::SimTime ms(std::int64_t v) { return sim::SimTime{0} + sim::milliseconds(v); }

scenario::Fig10Options chaos_rig_options(std::uint64_t seed, bool hardening) {
  scenario::Fig10Options opts = scenario::chaos_rig_options({});
  opts.seed = seed;
  opts.assessor.hardening = hardening;
  return opts;
}

TEST(ChaosInjector, KilledHostDropsOutOfItsOwnMembership) {
  scenario::Fig10System rig(chaos_rig_options(7, true));
  fault::ChaosInjector storm(rig.sim(), rig.system());
  storm.kill_host(5, ms(400));
  rig.run(sim::seconds(1));
  EXPECT_EQ((rig.system().cluster().node(5).membership() >> 5) & 1u, 0u);
  // A live peer also expels the silent node from its view.
  EXPECT_EQ((rig.system().cluster().node(0).membership() >> 5) & 1u, 0u);
}

TEST(ChaosInjector, RevivedHostReintegrates) {
  scenario::Fig10System rig(chaos_rig_options(7, true));
  fault::ChaosInjector storm(rig.sim(), rig.system());
  storm.kill_host(5, ms(400));
  storm.revive_host(5, ms(1200));
  rig.run(sim::seconds(3));
  EXPECT_EQ((rig.system().cluster().node(5).membership() >> 5) & 1u, 1u);
}

TEST(ChaosInjector, ChannelDegradationDropsOnlyDiagnosticTraffic) {
  scenario::Fig10System rig(chaos_rig_options(3, true));
  fault::ChaosInjector storm(rig.sim(), rig.system());
  storm.degrade_diagnostic_channel(0.5, 0.0, ms(0));
  rig.run(sim::seconds(2));
  EXPECT_GT(storm.messages_dropped(), 0u);
  // Application traffic is untouched: the TMR voter kept voting.
  EXPECT_GT(rig.tmr().votes, 100u);
}

TEST(AssessorFailover, PrimaryDeathPromotesReplicaAndRevivalFailsBack) {
  scenario::Fig10System rig(chaos_rig_options(11, true));
  fault::ChaosInjector storm(rig.sim(), rig.system());
  storm.kill_host(5, ms(800));
  rig.run(sim::seconds(1));

  EXPECT_EQ(rig.diag().active_assessor(), 1u);
  EXPECT_EQ(rig.diag().failovers(), 1u);

  storm.revive_host(5, ms(1400));
  rig.run(sim::seconds(2));
  EXPECT_EQ(rig.diag().active_assessor(), 0u);
  EXPECT_EQ(rig.diag().failbacks(), 1u);
}

TEST(AssessorFailover, FailbackIsDebouncedAgainstFlappingPrimary) {
  // The primary twitches back to life mid-outage for less than the
  // failback hold (50 ms), then dies again before the hold expires. The
  // debounce must swallow that flap: the replica keeps serving, and only
  // the later durable revival reconciles — exactly one failover and
  // exactly one failback over the whole episode.
  scenario::Fig10System rig(chaos_rig_options(11, true));
  fault::ChaosInjector storm(rig.sim(), rig.system());
  storm.kill_host(5, ms(800));
  storm.revive_host(5, ms(1400));   // back up for a moment...
  storm.kill_host(5, ms(1445));     // ...but dead again inside the hold
  storm.revive_host(5, ms(2000));   // the durable revival
  rig.run(sim::seconds(4));

  EXPECT_EQ(rig.diag().failovers(), 1u);
  EXPECT_EQ(rig.diag().failbacks(), 1u);
  EXPECT_EQ(rig.diag().active_assessor(), 0u);
  // The settled state is stable: further report polls must not flap.
  const auto before = rig.diag().failbacks();
  (void)rig.diag().report();
  (void)rig.diag().report();
  EXPECT_EQ(rig.diag().failbacks(), before);
  EXPECT_EQ(rig.diag().active_assessor(), 0u);
}

TEST(AssessorFailover, ReplicaViewStaysCurrentThroughOutage) {
  // A fault injected *while the primary is dead* must still be diagnosed:
  // the replica heard the symptom multicast all along.
  scenario::Fig10System rig(chaos_rig_options(13, true));
  fault::ChaosInjector storm(rig.sim(), rig.system());
  storm.kill_host(5, ms(500));
  rig.injector().inject_permanent_failure(2, ms(900));
  rig.run(sim::seconds(4));

  const auto d = rig.diag().assessor().diagnose_component(2);
  EXPECT_EQ(d.cls, fault::FaultClass::kComponentInternal);
  EXPECT_EQ(rig.diag().active_assessor(), 1u);
}

TEST(AssessorFailover, FailbackReconcilesOutageEvidence) {
  // Fault active only during the outage window; after failback the revived
  // primary must know about it from reconciliation, not from observation.
  scenario::Fig10System rig(chaos_rig_options(17, true));
  fault::ChaosInjector storm(rig.sim(), rig.system());
  storm.kill_host(5, ms(500));
  rig.injector().inject_permanent_failure(2, ms(900));
  storm.revive_host(5, ms(2600));
  rig.run(sim::seconds(4));

  EXPECT_EQ(rig.diag().active_assessor(), 0u);
  EXPECT_EQ(rig.diag().failbacks(), 1u);
  EXPECT_LT(rig.diag().assessor().component_trust(2), 0.5);
  const auto d = rig.diag().assessor().diagnose_component(2);
  EXPECT_EQ(d.cls, fault::FaultClass::kComponentInternal);
}

TEST(AssessorFailover, AblatedServiceStaysOnDeadPrimary) {
  scenario::Fig10System rig(chaos_rig_options(19, false));
  fault::ChaosInjector storm(rig.sim(), rig.system());
  storm.kill_host(5, ms(800));
  rig.run(sim::seconds(2));
  EXPECT_EQ(rig.diag().active_assessor(), 0u);
  EXPECT_EQ(rig.diag().failovers(), 0u);
}

TEST(TmrRedundancy, LostReplicaAssertsExternalOnaOnItsHost) {
  // Killing component 0 takes TMR replica S1 with it. The redundancy
  // monitor's lost transition must surface in the maintenance view: an
  // external ONA on the replica's host plus the labelled counter.
  scenario::Fig10System rig({.seed = 23});
  rig.injector().inject_permanent_failure(0, ms(300));
  rig.run(sim::seconds(2));

  bool ona_seen = false;
  for (const auto& row : rig.diag().report()) {
    if (row.job || row.component != 0) continue;
    for (const auto& ona : row.asserted_onas) {
      if (ona == diag::Ona::kTmrRedundancyLost) ona_seen = true;
    }
  }
  EXPECT_TRUE(ona_seen);
  const auto snap = rig.sim().metrics().snapshot();
  const auto* lost =
      snap.find("vnet.tmr.redundancy_transitions", "edge=lost");
  ASSERT_NE(lost, nullptr);
  EXPECT_GE(lost->counter, 1u);
}

TEST(SilentAgent, HardenedReportFlagsMissingEvidence) {
  const auto out = scenario::run_silent_agent_scenario(true);
  EXPECT_LT(out.evidence_quality, 1.0);
  EXPECT_GT(out.evidence_age, 32u);
  EXPECT_TRUE(out.channel_degraded_ona);
  EXPECT_FALSE(out.false_healthy());
}

TEST(SilentAgent, AblatedReportIsFalselyHealthy) {
  // The pre-hardening failure mode this PR closes: with hardening off the
  // silenced component keeps full trust, full evidence quality, and no
  // maintenance action — indistinguishable from verified health.
  const auto out = scenario::run_silent_agent_scenario(false);
  EXPECT_DOUBLE_EQ(out.evidence_quality, 1.0);
  EXPECT_DOUBLE_EQ(out.trust, 1.0);
  EXPECT_FALSE(out.channel_degraded_ona);
  EXPECT_TRUE(out.false_healthy());
}

TEST(ChaosCampaign, HardenedAccuracyWithinTenPercentOfBaseline) {
  // Acceptance criterion: classification accuracy under the full chaos
  // treatment (lossy diagnostic channel + assessor outage + failback)
  // within 10 percentage points of the fault-free baseline. One seed here
  // keeps the test fast; the bench sweeps more.
  const auto archetypes = scenario::standard_archetypes();
  const std::vector<std::uint64_t> seeds{1};

  scenario::Fig10Options base;
  base.components = 7;
  base.assessor_host = 5;
  const auto baseline = scenario::run_campaign(archetypes, seeds, base);
  std::size_t base_correct = 0, base_runs = 0;
  for (const auto& row : baseline.per_archetype) {
    base_correct += row.correct;
    base_runs += row.runs;
  }
  const double base_acc =
      static_cast<double>(base_correct) / static_cast<double>(base_runs);

  const auto chaotic =
      scenario::run_chaos_campaign(archetypes, seeds, scenario::ChaosOptions{});
  EXPECT_GE(chaotic.accuracy(), base_acc - 0.10);

  // The hardening machinery demonstrably worked for its living.
  EXPECT_GT(chaotic.failovers, 0u);
  EXPECT_GT(chaotic.failbacks, 0u);
  EXPECT_GT(chaotic.heartbeats_received, 0u);
  EXPECT_GT(chaotic.chaos_dropped, 0u);
  EXPECT_GT(chaotic.symptom_gaps, 0u);
  EXPECT_GT(chaotic.retransmissions, 0u);
}

}  // namespace
}  // namespace decos
