// Chaos campaign: diagnosis accuracy while the diagnostic path itself is
// under attack (E15).
//
// The standard campaign (scenario/campaign.hpp) scores the classifier
// against injected application faults over a healthy diagnostic path.
// This module re-runs the same archetype catalogue on the same campaign
// grid (run_grid) while a ChaosInjector degrades the diagnostic virtual
// network (drop/corrupt), kills the primary assessor's host mid-run and
// revives it later — exercising heartbeats, retransmission, dedupe,
// staleness tracking, failover and failback end to end. Each run yields a
// ChaosTally, and the campaign sums them with its one operator+=. The
// headline numbers: hardened accuracy stays close to the fault-free
// baseline, and a silenced agent is never reported as verified-healthy.
//
// The treatment is fixed (constants in chaos.cpp): 10 % of diagnostic
// messages dropped and 5 % corrupted from t = 0, the primary's host
// killed at 800 ms and revived at 2200 ms. The hardening ablation and
// provenance tracing are rig options (Fig10Options::assessor.hardening,
// Fig10Options::provenance); the campaign applies only the chaos
// treatment and the geometry below.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/chaos.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "scenario/campaign.hpp"

namespace decos::scenario {

struct ChaosOptions {
  /// Cluster geometry: two components beyond the Fig. 10 five host the
  /// primary and replica assessors (the replica on `kReplicaHost` in
  /// chaos.cpp), so archetype injections never touch an assessor host
  /// and the kill is attributable to chaos alone.
  std::uint32_t components = 7;
  platform::ComponentId assessor_host = 5;
};

/// `base` on the chaos-rig geometry of `chaos` (components, primary and
/// replica assessor hosts); every other option is left as given.
[[nodiscard]] Fig10Options chaos_rig_options(Fig10Options base,
                                             const ChaosOptions& chaos = {});

/// The journey-discharge rule: closes with a kClassified terminal every
/// ledger fault whose journey — or, for overlapping faults on one FRU, the
/// journey that owns the FRU's evidence stream — reached the verdict stage
/// (first terminal wins, so repaired/quarantined outcomes persist). A
/// journey that never produced a verdict stays open and counts as an
/// orphan in the audit: completeness is earned, not declared.
void discharge_classified_journeys(
    obs::ProvenanceTracer& tracer,
    const std::vector<fault::InjectedFault>& ledger);

/// Diagnostic-path health and provenance totals: what one chaos run
/// harvests from its rig and, summed by operator+= in submission order,
/// what a chaos campaign reports.
struct ChaosTally {
  std::uint64_t failovers = 0;
  std::uint64_t failbacks = 0;
  std::uint64_t symptom_gaps = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t agent_drops_reported = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_received = 0;
  std::uint64_t chaos_dropped = 0;
  std::uint64_t chaos_corrupted = 0;
  /// Union of the runs' metrics registries (counters add across runs), so
  /// the native diagnostic-path metrics — `diag.agent.retransmissions`,
  /// `diag.assessor.symptom_gaps`, `diag.assessor.failovers`,
  /// `diag.evidence_staleness{fru=...}` — survive into bench exports.
  obs::Snapshot metrics;
  // Journey-completeness audit totals (provenance-armed rigs only).
  // Orphans are non-chaos journeys that never reached a terminal outcome —
  // faults the diagnostic/maintenance pipeline lost track of.
  std::uint64_t journeys = 0;
  std::uint64_t chaos_journeys = 0;
  std::uint64_t journeys_classified = 0;
  std::uint64_t orphaned_journeys = 0;
  std::uint64_t spans = 0;
  std::uint64_t spans_dropped = 0;
  /// Concatenated per-run NDJSON journey dumps: bit-identical for every
  /// --jobs value (simulated time only).
  std::string provenance_ndjson;

  ChaosTally& operator+=(const ChaosTally& other);
};

struct ChaosCampaignResult : CampaignResult, ChaosTally {
  std::size_t runs = 0;
  std::size_t correct = 0;

  [[nodiscard]] double accuracy() const {
    return runs == 0 ? 0.0
                     : static_cast<double>(correct) / static_cast<double>(runs);
  }
};

/// Runs every archetype across the seeds on run_grid with the chaos
/// treatment applied to each fresh rig (`base_options` on the chaos
/// geometry). The diagnosis is taken from the *active* assessor,
/// whichever that is after failover/failback.
[[nodiscard]] ChaosCampaignResult run_chaos_campaign(
    const std::vector<Archetype>& archetypes,
    const std::vector<std::uint64_t>& seeds, ChaosOptions chaos = {},
    Fig10Options base_options = {}, unsigned jobs = 0);

/// Outcome of the silent-agent scenario: the victim component stays
/// perfectly healthy, only its diagnostic agent is crashed. The
/// pre-hardening architecture reports it verified-healthy — the worst
/// failure mode of a maintenance system.
struct SilentAgentOutcome {
  double trust = 1.0;
  double evidence_quality = 1.0;
  tta::RoundId evidence_age = 0;
  bool action_is_none = true;
  /// Whether the component's report row carries the
  /// "diagnostic-channel-degraded" meta-ONA.
  bool channel_degraded_ona = false;

  /// The trap this PR exists to close: no action requested AND full
  /// evidence quality, i.e. the silence is indistinguishable from health.
  [[nodiscard]] bool false_healthy() const {
    return action_is_none && evidence_quality >= 1.0;
  }
};

/// Crashes the victim's agent job at 300 ms on an otherwise fault-free
/// Fig. 10 rig and reports how the maintenance view describes the victim
/// after `horizon`.
[[nodiscard]] SilentAgentOutcome run_silent_agent_scenario(
    bool hardening, std::uint64_t seed = 1, platform::ComponentId victim = 1,
    sim::Duration horizon = sim::seconds(3));

}  // namespace decos::scenario
