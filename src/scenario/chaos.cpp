#include "scenario/chaos.hpp"

#include <string>

namespace decos::scenario {
namespace {

constexpr sim::SimTime ms(std::int64_t v) {
  return sim::SimTime{0} + sim::milliseconds(v);
}

/// The chaos treatment. Diagnostic-channel degradation is active from
/// t = 0: per-message drop and corruption probabilities on virtual
/// network 0. The primary assessor's host dies mid-run, after fault
/// onset, and revives before the end, forcing failover and a reconciled
/// failback.
constexpr double kDropProb = 0.10;
constexpr double kCorruptProb = 0.05;
constexpr sim::SimTime kKillAt = ms(800);
constexpr sim::SimTime kReviveAt = ms(2200);
static_assert(kKillAt < kReviveAt);
/// Host of the replica assessor that covers the primary's outage.
constexpr platform::ComponentId kReplicaHost = 6;

/// What one chaos run hands back to the merge thread: the worker tears
/// the rig down after harvesting, so the merged ChaosCampaignResult is
/// only ever touched on the calling thread.
struct ChaosOutcome {
  fault::FaultClass predicted = fault::FaultClass::kNone;
  ChaosTally tally;
};

ChaosOutcome run_one_chaos(const Archetype& arch, std::uint64_t seed,
                           const ChaosOptions& chaos,
                           const Fig10Options& base_options) {
  Fig10Options opts = chaos_rig_options(base_options, chaos);
  opts.seed = seed;
  Fig10System rig(opts);
  arch.inject(rig);

  fault::ChaosInjector storm(rig.sim(), rig.system());
  storm.degrade_diagnostic_channel(kDropProb, kCorruptProb, ms(0));
  storm.kill_host(chaos.assessor_host, kKillAt);
  storm.revive_host(chaos.assessor_host, kReviveAt);

  rig.run(arch.horizon);
  // Diagnosing goes through DiagnosticService::assessor(), which
  // re-evaluates failover lazily — by now the revived primary has
  // reconciled from the replica that covered the outage.
  ChaosOutcome out;
  out.predicted = arch.diagnose(rig).cls;

  ChaosTally& t = out.tally;
  auto& service = rig.diag();
  t.failovers = service.failovers();
  t.failbacks = service.failbacks();
  for (std::size_t i = 0; i < service.assessor_count(); ++i) {
    const auto& a = service.assessor(i);
    t.symptom_gaps += a.symptom_gaps();
    t.duplicates_dropped += a.duplicates_dropped();
    t.agent_drops_reported += a.agent_drops_reported();
    t.heartbeats_received += a.heartbeats_received();
  }
  for (platform::ComponentId c = 0; c < chaos.components; ++c) {
    const auto& agent = service.agent(c);
    t.retransmissions += agent.retransmissions();
    t.heartbeats_sent += agent.heartbeats_sent();
  }
  t.chaos_dropped = storm.messages_dropped();
  t.chaos_corrupted = storm.messages_corrupted();
  t.metrics = rig.sim().metrics().snapshot();

  auto& tracer = rig.sim().provenance();
  if (tracer.enabled()) {
    // The campaign's final diagnosis closes the ledger journeys whose
    // chain actually reached the verdict stage.
    discharge_classified_journeys(tracer, rig.injector().ledger());
    const obs::JourneyAudit audit = tracer.audit();
    t.journeys = audit.journeys;
    t.chaos_journeys = audit.chaos_journeys;
    t.journeys_classified = audit.classified;
    t.orphaned_journeys = audit.orphans;
    t.spans = audit.spans;
    t.spans_dropped = audit.spans_dropped;
    t.provenance_ndjson = tracer.ndjson();
  }
  return out;
}

}  // namespace

Fig10Options chaos_rig_options(Fig10Options base, const ChaosOptions& chaos) {
  base.components = chaos.components;
  base.assessor_host = chaos.assessor_host;
  base.assessor_replicas = {kReplicaHost};
  return base;
}

void discharge_classified_journeys(
    obs::ProvenanceTracer& tracer,
    const std::vector<fault::InjectedFault>& ledger) {
  const auto verdict_reached = [&tracer](obs::ProvenanceId id) {
    const obs::ProvJourney* jr = tracer.journey(id);
    return jr != nullptr &&
           jr->first_stage_ns[static_cast<int>(obs::ProvStage::kVerdict)] >= 0;
  };
  for (const fault::InjectedFault& f : ledger) {
    bool discharged = verdict_reached(f.provenance);
    if (!discharged) {
      // Overlapping faults on one FRU: the latest injection takes over
      // the FRU map, so downstream stages land on the owning journey. A
      // verdict discharges the FRU as a whole — credit every ledger
      // journey that fed the same evidence stream.
      const obs::ProvenanceId owner =
          f.job.has_value() ? tracer.journey_for_job(*f.job)
                            : tracer.journey_for_component(f.component);
      discharged = owner != f.provenance && verdict_reached(owner);
    }
    if (discharged) {
      tracer.set_terminal(f.provenance, obs::ProvOutcome::kClassified);
    }
  }
}

ChaosTally& ChaosTally::operator+=(const ChaosTally& other) {
  failovers += other.failovers;
  failbacks += other.failbacks;
  symptom_gaps += other.symptom_gaps;
  duplicates_dropped += other.duplicates_dropped;
  agent_drops_reported += other.agent_drops_reported;
  retransmissions += other.retransmissions;
  heartbeats_sent += other.heartbeats_sent;
  heartbeats_received += other.heartbeats_received;
  chaos_dropped += other.chaos_dropped;
  chaos_corrupted += other.chaos_corrupted;
  metrics.merge(other.metrics);
  journeys += other.journeys;
  chaos_journeys += other.chaos_journeys;
  journeys_classified += other.journeys_classified;
  orphaned_journeys += other.orphaned_journeys;
  spans += other.spans;
  spans_dropped += other.spans_dropped;
  provenance_ndjson += other.provenance_ndjson;
  return *this;
}

ChaosCampaignResult run_chaos_campaign(const std::vector<Archetype>& archetypes,
                                       const std::vector<std::uint64_t>& seeds,
                                       ChaosOptions chaos,
                                       Fig10Options base_options,
                                       unsigned jobs) {
  ChaosCampaignResult result;
  result.open_rows(archetypes);
  run_grid(
      archetypes, seeds, jobs,
      [&chaos, &base_options](const Archetype& arch, std::uint64_t seed) {
        return run_one_chaos(arch, seed, chaos, base_options);
      },
      [&result](std::size_t row, const ChaosOutcome& r) {
        ++result.runs;
        if (result.score(row, r.predicted)) ++result.correct;
        result += r.tally;
      });
  return result;
}

SilentAgentOutcome run_silent_agent_scenario(bool hardening,
                                             std::uint64_t seed,
                                             platform::ComponentId victim,
                                             sim::Duration horizon) {
  Fig10Options opts;
  opts.seed = seed;
  opts.assessor.hardening = hardening;
  Fig10System rig(opts);

  fault::ChaosInjector storm(rig.sim(), rig.system());
  storm.silence_job(rig.diag().agent_job(victim), ms(300));
  rig.run(horizon);

  SilentAgentOutcome out;
  out.trust = rig.diag().assessor().component_trust(victim);
  for (const diag::FruReport& r : rig.diag().report()) {
    if (r.job || r.component != victim) continue;
    out.evidence_quality = r.evidence_quality;
    out.evidence_age = r.evidence_age;
    out.action_is_none = r.action == fault::MaintenanceAction::kNoAction;
    for (const diag::Ona ona : r.asserted_onas) {
      if (ona == diag::Ona::kChannelDegraded) out.channel_degraded_ona = true;
    }
    break;
  }
  return out;
}

}  // namespace decos::scenario
