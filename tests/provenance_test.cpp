// Provenance tracing tests: the ProvenanceTracer's span algebra (coalescing,
// parenting, first-close/first-terminal wins, cap accounting, disabled
// no-op), flow-id round-trips through both exporters, stage progression
// on a real instrumented Fig. 10 rig, and the parallel chaos campaign's
// bit-identical NDJSON merge.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "obs/provenance.hpp"
#include "scenario/chaos.hpp"
#include "scenario/fig10.hpp"

namespace decos {
namespace {

sim::SimTime at_us(std::int64_t us) {
  return sim::SimTime::zero() + sim::microseconds(us);
}

// --- ProvenanceTracer span algebra ------------------------------------------

TEST(ProvenanceTracer, DisabledMutatorsAreNoOps) {
  obs::ProvenanceTracer tracer;  // never enabled
  EXPECT_EQ(tracer.begin_journey("component.1", "emi", "desc", 0),
            obs::kNoJourney);
  tracer.map_component(1, 7);
  tracer.event(1, obs::ProvStage::kSymptom, "agent.1", "slot-crc");
  EXPECT_EQ(tracer.begin_span(1, obs::ProvStage::kAction, "fru", "swap"),
            obs::kNoSpan);
  tracer.set_terminal(1, obs::ProvOutcome::kRepaired);
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_TRUE(tracer.journeys().empty());
  EXPECT_EQ(tracer.journey_for_component(1), obs::kNoJourney);
}

TEST(ProvenanceTracer, EventsCoalesceAndParentOnPreviousStage) {
  obs::ProvenanceTracer tracer;
  tracer.enable(64);
  std::int64_t now = 1000;
  tracer.set_clock([&now] { return now; });

  const auto j = tracer.begin_journey("component.1", "wearout", "crack", 500);
  ASSERT_NE(j, obs::kNoJourney);
  const obs::ProvJourney* jr = tracer.journey(j);
  ASSERT_NE(jr, nullptr);

  for (int i = 0; i < 5; ++i) {
    now += 100;
    tracer.event(j, obs::ProvStage::kManifestation, "component.1",
                 "tx corrupt", 3 + static_cast<std::uint64_t>(i));
  }
  now += 50;
  tracer.event(j, obs::ProvStage::kSymptom, "agent.2", "slot-crc", 8);

  // Root + one coalesced manifestation + one symptom.
  ASSERT_EQ(tracer.spans().size(), 3u);
  const obs::ProvSpan& manifest = tracer.spans()[1];
  EXPECT_EQ(manifest.occurrences, 5u);
  EXPECT_EQ(manifest.round, 3u);  // round of the first occurrence
  EXPECT_EQ(manifest.start_ns, 1100);
  EXPECT_EQ(manifest.end_ns, 1500);  // coalescing extends the end
  EXPECT_EQ(manifest.parent, jr->root);

  const obs::ProvSpan& symptom = tracer.spans()[2];
  EXPECT_EQ(symptom.occurrences, 1u);
  EXPECT_EQ(symptom.parent, manifest.id);  // causal edge to previous stage
  EXPECT_EQ(jr->first_stage_ns[static_cast<int>(obs::ProvStage::kSymptom)],
            1550);
}

TEST(ProvenanceTracer, FirstCloseAndFirstTerminalWin) {
  obs::ProvenanceTracer tracer;
  tracer.enable(64);
  std::int64_t now = 0;
  tracer.set_clock([&now] { return now; });

  const auto j = tracer.begin_journey("component.1", "permanent", "dead", 0);
  const auto s = tracer.begin_span(j, obs::ProvStage::kAction, "fru", "swap");
  ASSERT_NE(s, obs::kNoSpan);
  EXPECT_EQ(tracer.span(s)->end_ns, -1);  // open

  now = 10;
  tracer.end_span(s, obs::ProvOutcome::kRetried);
  now = 20;
  tracer.end_span(s, obs::ProvOutcome::kQuarantined);  // ignored: closed
  EXPECT_EQ(tracer.span(s)->end_ns, 10);
  EXPECT_EQ(tracer.span(s)->outcome, obs::ProvOutcome::kRetried);

  tracer.set_terminal(j, obs::ProvOutcome::kRepaired);
  tracer.set_terminal(j, obs::ProvOutcome::kClassified);  // ignored
  EXPECT_EQ(tracer.journey(j)->terminal, obs::ProvOutcome::kRepaired);
}

TEST(ProvenanceTracer, ArenaCapDropsAndCounts) {
  obs::ProvenanceTracer tracer;
  tracer.enable(4);
  const auto j = tracer.begin_journey("component.1", "emi", "burst", 0);
  for (int i = 0; i < 10; ++i) {
    // Distinct details defeat coalescing, forcing fresh spans.
    tracer.event(j, obs::ProvStage::kSymptom, "agent.1",
                 "symptom " + std::to_string(i));
  }
  EXPECT_EQ(tracer.spans().size(), 4u);
  EXPECT_EQ(tracer.spans_dropped(), 7u);  // 1 root + 10 events - 4 kept
  EXPECT_EQ(tracer.audit().spans_dropped, 7u);
}

TEST(ProvenanceTracer, LatestJourneyWinsTheFruMap) {
  obs::ProvenanceTracer tracer;
  tracer.enable(64);
  const auto j1 = tracer.begin_journey("component.3", "emi", "a", 0);
  tracer.map_component(3, j1);
  const auto j2 = tracer.begin_journey("component.3", "seu", "b", 10);
  tracer.map_component(3, j2);
  EXPECT_EQ(tracer.journey_for_component(3), j2);
  EXPECT_EQ(tracer.journey_for_component(99), obs::kNoJourney);
  tracer.map_job(5, j1);
  EXPECT_EQ(tracer.journey_for_job(5), j1);
  EXPECT_EQ(tracer.journey_for_job(6), obs::kNoJourney);
}

TEST(ProvenanceTracer, AuditCountsOrphansAndExemptsChaos) {
  obs::ProvenanceTracer tracer;
  tracer.enable(64);
  const auto classified = tracer.begin_journey("component.1", "emi", "a", 0);
  tracer.begin_journey("component.2", "seu", "b", 0);  // stays open -> orphan
  const auto chaotic =
      tracer.begin_journey("component.5", "chaos-kill-host", "kill", 0,
                           /*chaos=*/true);
  tracer.set_terminal(classified, obs::ProvOutcome::kClassified);
  tracer.set_terminal(chaotic, obs::ProvOutcome::kChaosCleared);

  const obs::JourneyAudit audit = tracer.audit();
  EXPECT_EQ(audit.journeys, 2u);
  EXPECT_EQ(audit.chaos_journeys, 1u);
  EXPECT_EQ(audit.classified, 1u);
  EXPECT_EQ(audit.orphans, 1u);
  EXPECT_EQ(audit.spans, 3u);
}

// --- exporters --------------------------------------------------------------

TEST(ProvenanceExport, SpanIdentityRoundTripsThroughBothExporters) {
  obs::ProvenanceTracer tracer;
  tracer.enable(64);
  std::int64_t now = 0;
  tracer.set_clock([&now] { return now; });

  const auto j = tracer.begin_journey("component.1", "wearout", "crack", 0);
  now = 2000;
  tracer.event(j, obs::ProvStage::kManifestation, "component.1", "tx corrupt",
               4);
  now = 3000;
  tracer.event(j, obs::ProvStage::kSymptom, "agent.2", "slot-crc", 5);
  tracer.set_terminal(j, obs::ProvOutcome::kClassified);
  const obs::SpanId symptom_span = tracer.spans().back().id;

  const std::string nd = tracer.ndjson();
  // One line per journey, parent/stage/occurrence fields present.
  EXPECT_NE(nd.find("\"journey\":1"), std::string::npos);
  EXPECT_NE(nd.find("\"cls\":\"wearout\""), std::string::npos);
  EXPECT_NE(nd.find("\"terminal\":\"classified\""), std::string::npos);
  EXPECT_NE(nd.find("\"stage\":\"manifestation\""), std::string::npos);
  EXPECT_NE(nd.find("\"detail\":\"slot-crc\""), std::string::npos);
  EXPECT_NE(nd.find("\"stage_first_ns\""), std::string::npos);
  EXPECT_EQ(nd.back(), '\n');

  const std::string chrome = tracer.chrome_trace_json();
  // Complete events on per-stage tracks, plus a flow arrow (s/t pair
  // sharing the target span's id) for every parented span.
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("prov:symptom"), std::string::npos);
  const std::string flow_id = "\"id\":" + std::to_string(symptom_span);
  std::size_t s_pos = chrome.find("\"ph\":\"s\"");
  bool found_pair = false;
  while (s_pos != std::string::npos && !found_pair) {
    const std::size_t obj_end = chrome.find('}', s_pos);
    found_pair = chrome.find(flow_id, s_pos) < obj_end;
    s_pos = chrome.find("\"ph\":\"s\"", s_pos + 1);
  }
  EXPECT_TRUE(found_pair) << "no flow start carries the symptom span id";
  EXPECT_NE(chrome.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(chrome.find("journey.1"), std::string::npos);
}

// --- end-to-end on the instrumented rig -------------------------------------

TEST(ProvenanceRig, WearoutJourneyProgressesThroughTheStages) {
  scenario::Fig10Options opts;
  opts.provenance = true;
  scenario::Fig10System rig(opts);
  rig.injector().inject_wearout(1, at_us(300'000), sim::milliseconds(80));
  rig.run(sim::seconds(3));

  auto& tracer = rig.sim().provenance();
  ASSERT_EQ(tracer.journeys().size(), 1u);
  const obs::ProvJourney& jr = tracer.journeys().front();
  EXPECT_EQ(jr.entity.view(), "component.1");
  // The chain reached every diagnostic stage: manifestation episodes,
  // agent symptoms, assessor evidence and a verdict.
  EXPECT_GE(jr.first_stage_ns[static_cast<int>(obs::ProvStage::kInjection)], 0);
  EXPECT_GT(jr.first_stage_ns[static_cast<int>(obs::ProvStage::kManifestation)],
            0);
  EXPECT_GT(jr.first_stage_ns[static_cast<int>(obs::ProvStage::kSymptom)], 0);
  EXPECT_GT(jr.first_stage_ns[static_cast<int>(obs::ProvStage::kEvidence)], 0);
  EXPECT_GT(jr.first_stage_ns[static_cast<int>(obs::ProvStage::kVerdict)], 0);
  // Stages appear in causal order.
  EXPECT_LE(jr.first_stage_ns[static_cast<int>(obs::ProvStage::kManifestation)],
            jr.first_stage_ns[static_cast<int>(obs::ProvStage::kSymptom)]);
  EXPECT_LE(jr.first_stage_ns[static_cast<int>(obs::ProvStage::kSymptom)],
            jr.first_stage_ns[static_cast<int>(obs::ProvStage::kVerdict)]);
  // The per-stage latency histograms got fed.
  const obs::Snapshot snap = rig.sim().metrics().snapshot();
  bool saw_stage_latency = false;
  for (const auto& e : snap.entries) {
    if (e.kind == obs::MetricKind::kHistogram &&
        e.name == "prov.stage_latency_us" && e.hist_count > 0) {
      saw_stage_latency = true;
    }
  }
  EXPECT_TRUE(saw_stage_latency);
}

TEST(ProvenanceRig, DisabledByDefaultAndFreeOfSpans) {
  scenario::Fig10System rig;  // provenance defaults to off
  rig.injector().inject_wearout(1, at_us(300'000), sim::milliseconds(80));
  rig.run(sim::seconds(1));
  EXPECT_FALSE(rig.sim().provenance().enabled());
  EXPECT_TRUE(rig.sim().provenance().spans().empty());
}

// --- parallel determinism ---------------------------------------------------

TEST(ProvenanceCampaign, NdjsonBitIdenticalAcrossJobCounts) {
  auto archetypes = scenario::standard_archetypes();
  archetypes.resize(2);  // keep the test quick; the bench runs the full set
  const std::vector<std::uint64_t> seeds{1};
  scenario::Fig10Options traced;
  traced.provenance = true;

  const auto serial =
      scenario::run_chaos_campaign(archetypes, seeds, {}, traced, 1);
  const auto parallel =
      scenario::run_chaos_campaign(archetypes, seeds, {}, traced, 4);

  EXPECT_FALSE(serial.provenance_ndjson.empty());
  EXPECT_EQ(serial.provenance_ndjson, parallel.provenance_ndjson);
  EXPECT_EQ(serial.journeys, parallel.journeys);
  EXPECT_EQ(serial.orphaned_journeys, parallel.orphaned_journeys);
  EXPECT_EQ(serial.spans, parallel.spans);

  // Journey completeness: the injected archetype faults all reach a
  // terminal outcome — zero orphans is the E19 acceptance criterion.
  EXPECT_GT(serial.journeys, 0u);
  EXPECT_EQ(serial.orphaned_journeys, 0u);
}

}  // namespace
}  // namespace decos
