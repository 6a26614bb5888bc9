// The assessment stage of the diagnostic DAS.
//
// The assessor runs as an encapsulated job, consumes the symptom stream
// arriving on the virtual diagnostic network, maintains the evidence store
// (the distributed state) and a *trust level* per FRU — the paper's output
// to the maintenance engineer (Section II-D, Fig. 9). Classification into
// the maintenance-oriented fault classes is performed on demand by the
// Classifier over the features the evidence summary reads. A job verdict
// takes its host's verdict as an input (Fig. 10), so each FRU diagnosed
// counts and traces one verdict.
//
// Trust is an evidence accumulator in [0,1]: it recovers slowly through
// healthy rounds and drops with each symptomatic round, so a healthy FRU's
// trajectory hugs 1.0 while a degrading FRU's trajectory descends — the
// two arrows of Fig. 9.
//
// The assessor also polices its own evidence channel. Each agent's symptom
// port carries a contiguous wire sequence number and a periodic heartbeat;
// the assessor tracks per-channel staleness and sequence gaps, so agent
// silence degrades the FRU's *evidence quality* instead of letting trust
// quietly recover toward 1.0 — silence of the monitor is not health of
// the monitored. Retransmitted symptoms are deduplicated on their
// observation key so resends never double-charge trust.
//
// Params hold only what an experiment turns: the classifier's two
// thresholds, the trust drop (E13) and the hardening switch (E15). The
// trust levels and the assessor's horizons (sampling, staleness, dedupe,
// dissemination) are constants; assessor.cpp static_asserts how the
// horizons relate to the agents' heartbeat and resend timing.
//
// The assessor holds each fact once, and only the present: it keeps no
// trust history (the Fig. 9 benches sample component_trust() themselves,
// through Fig10System::run_sampled), and its dissemination counts live
// only in the `diag.hierarchy.*` registry counters.
//
// Per-FRU state is dense: component trust, violation round and channel in
// vectors indexed by ComponentId; per-job trust, violation round, host and
// dissemination flag in one vector indexed by JobId (sized from the job
// count, grown on enrolment); agent and peer lookups in JobId-indexed
// arrays with a sentinel. The per-round trust and emission passes visit
// only *watched* FRUs (a bitset per id space, see watched_components_),
// so a healthy FRU at initial trust costs a round nothing, and a round
// costs its inbox, its watched FRUs and its slice's emissions. Only the
// dissemination state (delta cache, flood dedupe, outbound queue) is
// node-based.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "fault/faultpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "diag/classifier.hpp"
#include "diag/evidence.hpp"
#include "diag/log.hpp"
#include "diag/summary.hpp"
#include "diag/symptom.hpp"
#include "diag/topology.hpp"
#include "platform/job.hpp"
#include "platform/types.hpp"

namespace decos::diag {

struct TrustParams {
  /// Trust of a FRU never charged, and after a repair reset.
  static constexpr double kInitial = 1.0;
  /// Recovery per healthy assessment round.
  static constexpr double kRecovery = 0.001;
  /// Trust below which the FRU is reported to the maintenance engineer.
  static constexpr double kReportThreshold = 0.5;
  /// Trust below which the FRU counts as *suspected* — the detection
  /// instant of the detection-latency metric (injection -> first trust
  /// violation). Above kReportThreshold on purpose: suspicion is the
  /// early signal, the report threshold drives maintenance decisions.
  static constexpr double kViolationThreshold = 0.9;
  /// Drop per symptomatic round (scaled by min(symptoms, 4)); E13 sweeps
  /// it.
  double drop = 0.02;
};

/// Per-agent diagnostic-channel state: when the assessor last heard the
/// agent (symptom *or* heartbeat), the next expected wire sequence number
/// on its symptom port, and the agent's self-confessed drop count.
struct AgentChannel {
  tta::RoundId last_heard = 0;
  std::uint32_t next_seq = 0;
  bool seq_seen = false;
  std::uint64_t reported_detected = 0;
  std::uint32_t reported_dropped = 0;
  std::uint64_t heartbeats = 0;
};

/// Observation key: unique per symptom because agents coalesce to at
/// most one symptom per (type, subject) per observation round.
struct DedupKey {
  platform::ComponentId observer;
  SymptomType type;
  platform::ComponentId subj_c;
  platform::JobId subj_j;
  tta::RoundId round;
  bool operator==(const DedupKey&) const = default;
};

/// The assessor's set of observation keys: an open-addressed table with
/// linear probing and no tombstones. Its membership is that of a
/// std::set<DedupKey> given the same inserts, erase_before calls and
/// merges; nothing reads its order. A key takes one 16-byte slot, and the
/// table doubles before its load passes 3/4, so past its first 16 slots
/// it holds at most 43 bytes per key it has held at once, where a tree
/// node takes 64. The observer is a node of one cluster (below
/// EvidenceStore::kMaxComponents), and a slot of type 0, which no symptom
/// has, is vacant.
class DedupeSet {
 public:
  /// Adds `k`; false if it was already a member.
  bool insert(const DedupKey& k);
  [[nodiscard]] bool contains(const DedupKey& k) const;
  /// Drops every key of a round before `horizon`, in place.
  void erase_before(tta::RoundId horizon);
  /// Adds every member of `other`.
  void merge(const DedupeSet& other);
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    tta::RoundId round = 0;
    platform::ComponentId subj_c = 0;
    platform::JobId subj_j = 0;
    std::uint8_t observer = 0;
    SymptomType type{};
    bool operator==(const Slot&) const = default;
  };
  static_assert(sizeof(Slot) == 16);
  [[nodiscard]] static bool vacant(const Slot& s) {
    return s.type == SymptomType{};
  }
  [[nodiscard]] static Slot slot_of(const DedupKey& k);
  /// Index of `s` if present, else of the vacant slot ending its run.
  [[nodiscard]] std::size_t probe(const Slot& s) const;
  bool insert(const Slot& s);
  /// Stores `s`, known to be absent, at the end of its run.
  void place(const Slot& s);
  void grow();

  /// Power-of-two sized, or empty before the first insert.
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

class Assessor {
 public:
  struct Params {
    Classifier::Params classifier{};
    TrustParams trust{};
    /// Master switch for channel hardening (staleness watchdog, dedupe,
    /// gap tracking, recovery gating). Off reproduces the pre-hardening
    /// assessor, for ablation runs.
    bool hardening = true;
  };

  /// Rounds between exports of the `diag.evidence_staleness` gauges. The
  /// Fig. 9 benches sample trust at the same period.
  static constexpr tta::RoundId kSamplePeriod = 50;
  /// Rounds of agent silence before the FRU's evidence counts stale.
  static constexpr tta::RoundId kStaleAfter = 32;
  /// Observation-key dedupe horizon in rounds.
  static constexpr tta::RoundId kDedupeWindow = 512;
  /// Hierarchy mode: rounds between periodic re-emissions of a still-
  /// standing verdict delta (edge-triggered emissions happen at the
  /// violation instant regardless).
  static constexpr tta::RoundId kDeltaRefreshPeriod = 16;
  /// Hierarchy mode: verdict deltas handed to the dissemination port
  /// per assessment round (own emissions + forwards; leftovers queue).
  static constexpr std::size_t kDissemBudget = 16;

  Assessor(Params p, fault::SpatialLayout layout, std::uint32_t component_count,
           std::uint32_t job_count);
  // The evidence summary points into this assessor's own store.
  Assessor(const Assessor&) = delete;
  Assessor& operator=(const Assessor&) = delete;

  /// Registers which agent job reports for which component (observer
  /// reconstruction on decode).
  void register_agent(platform::JobId agent_job, platform::ComponentId component);

  /// Declares an application job to be assessed, with its host component.
  void register_subject_job(platform::JobId job, platform::ComponentId host);

  /// Job behaviour: decode + ingest the inbox, update trust levels.
  void process(platform::JobContext& ctx);

  /// Ingests a symptom arriving outside the diagnostic vnet — currently
  /// only the star coupler's guardian-block reports, which physically
  /// originate at the bus, not at any component agent.
  void ingest_external(const Symptom& s);

  /// Attaches a flight recorder: every ingested symptom is also appended
  /// to `log` (not owned; pass nullptr to detach). The recorded log can
  /// later be replayed off-board (see diag/log.hpp).
  void set_flight_recorder(DiagnosticLog* log) { recorder_ = log; }

  /// Binds the assessor's instrumentation (symptoms ingested, trust
  /// violations, classifications per fault class) to `registry`, which
  /// must outlive the assessor. DiagnosticService binds to the
  /// simulator's registry automatically.
  void bind_metrics(obs::Registry& registry);

  /// Binds the hierarchy-mode dissemination counters. Unlike bind_metrics
  /// (primary only — replicas would double-count the shared multicast),
  /// these are bound on *every* assessor: each position filters and
  /// forwards its own slice, so the cluster-wide sums are the meaningful
  /// quantities (diag.hierarchy.* counters). The assessor keeps no other
  /// copy; HierarchyStats reads them back.
  void bind_hierarchy_metrics(obs::Registry& registry);

  /// Attaches the provenance tracer (not owned; nullptr detaches): every
  /// ingested symptom appends a kEvidence span, the first trust violation
  /// per FRU and each classification append kVerdict spans — all linked to
  /// the injected fault's journey via the subject FRU. DiagnosticService
  /// binds the simulator's tracer automatically.
  void bind_provenance(obs::ProvenanceTracer* prov) { prov_ = prov; }

  /// Attaches the fault-point registry (not owned; nullptr detaches): the
  /// heartbeat-receive and staleness-expiry edges become enumerable
  /// injection sites. DiagnosticService::bind_fault_points wires every
  /// assessor replica.
  void bind_fault_points(fault::FaultPointRegistry* fp) { fp_ = fp; }

  /// Max-staleness state merge from a fresher replica, used on failback:
  /// per FRU, whichever side heard that FRU's agent later contributes the
  /// trust level and channel state; violation instants take the earlier of
  /// the two sides. Both assessors subscribe to the same symptom
  /// multicast, so when `fresher` is ahead in rounds its evidence store
  /// and dedupe set are supersets of ours and are adopted wholesale — the
  /// adopted dedupe set then filters any backlog the revived assessor
  /// still re-ingests.
  void reconcile_from(const Assessor& fresher);

  /// Maintenance reset after an executed repair: the replacement FRU
  /// starts with fresh trust and no violation history. Accumulated
  /// evidence and channel state are deliberately kept — a mis-repair must
  /// stay classifiable from the full symptom history, and the agent
  /// channel belongs to the diagnostic path, not to the repaired FRU.
  /// In hierarchy mode the reset also drops the FRU's cached disseminated
  /// verdict and queues a clear delta, so a reconciling peer cannot
  /// resurrect suspicion of a unit that is no longer installed.
  void reset_component_trust(platform::ComponentId c);
  void reset_job_trust(platform::JobId j);

  // --- hierarchy mode ----------------------------------------------------
  /// Switches this assessor into the VCube overlay: it keeps per-FRU
  /// evidence only for its tester slice, filters everything else at the
  /// inbox, and exchanges verdict deltas with its cube neighbours on
  /// `dissem_port`. `topology` is this assessor's *local* view — each
  /// replica owns one and recomputes it from its own membership view.
  void enable_hierarchy(HierarchyTopology topology, std::uint32_t position,
                        platform::PortId dissem_port);
  [[nodiscard]] bool hierarchical() const { return topo_.has_value(); }
  [[nodiscard]] std::uint32_t position() const { return position_; }
  [[nodiscard]] const HierarchyTopology& topology() const { return *topo_; }

  /// Declares a peer assessor job and its cube position (delta acceptance
  /// resolves senders through this map and checks the cube edge).
  void register_peer(platform::JobId assessor_job, std::uint32_t position);

  /// Feeds this assessor's membership view into its local topology.
  /// Recomputed only when the view changed; the tester-reassignment fault
  /// site defers one recompute by a round (the enumerable race between a
  /// membership change and the overlay catching up).
  void refresh_topology(const std::vector<bool>& alive);

  /// Best disseminated verdict this assessor holds about a FRU outside
  /// its own evidence (latest emission round wins; ties to the lowest
  /// origin position). nullptr when nothing (non-cleared) is cached.
  [[nodiscard]] const VerdictDelta* cached_component_delta(
      platform::ComponentId c) const;
  [[nodiscard]] const VerdictDelta* cached_job_delta(platform::JobId j) const;

  /// Whether this assessor ever heard the FRU's agent at all — the
  /// composition fallback test: a responsible tester that never heard the
  /// agent (promoted after a multi-kill) serves the cached delta instead.
  [[nodiscard]] bool ever_heard(platform::ComponentId c) const {
    const AgentChannel& ch = channels_.at(c);
    return ch.seq_seen || ch.last_heard != 0;
  }

  /// The incremental evidence summary classification reads
  /// (tests/inspection).
  [[nodiscard]] const EvidenceSummary& summary() const { return summary_; }

  // --- results -----------------------------------------------------------
  [[nodiscard]] Diagnosis diagnose_component(platform::ComponentId c) const;
  /// The verdict over `f`, the features summary() reads for `c` at
  /// current_round() — for a caller that hands the same value to the
  /// ONAs (DiagnosticService::report).
  [[nodiscard]] Diagnosis diagnose_component(
      platform::ComponentId c,
      const EvidenceSummary::ComponentFeatures& f) const;
  /// The verdict on job `j` given its host's verdict `host`: an input,
  /// not a verdict served, so only the job's verdict is counted in
  /// `diag.classifications` and traced.
  [[nodiscard]] Diagnosis diagnose_job(platform::JobId j,
                                       const Diagnosis& host) const;
  /// The same, classifying the host from its features first.
  [[nodiscard]] Diagnosis diagnose_job(platform::JobId j) const;

  [[nodiscard]] double component_trust(platform::ComponentId c) const {
    return component_trust_.at(c);
  }
  /// Trust of an enrolled job; 1.0 for a job the assessor never heard of.
  [[nodiscard]] double job_trust(platform::JobId j) const {
    return enrolled(j) ? jobs_[j].trust : 1.0;
  }

  /// Round at which the FRU's trust first fell below the violation
  /// threshold (the "detection instant"); nullopt while unsuspected.
  [[nodiscard]] std::optional<tta::RoundId> first_component_violation(
      platform::ComponentId c) const;
  [[nodiscard]] std::optional<tta::RoundId> first_job_violation(
      platform::JobId j) const;

  // --- diagnostic-channel health ----------------------------------------
  /// Rounds since the assessor last heard anything (symptom or heartbeat)
  /// from component `c`'s agent.
  [[nodiscard]] tta::RoundId evidence_age(platform::ComponentId c) const;
  /// Evidence quality in [0,1]: 1.0 while the agent is fresh, decaying
  /// linearly once its silence exceeds kStaleAfter. Always 1.0 with
  /// hardening off (the pre-hardening blind spot, by construction).
  [[nodiscard]] double evidence_quality(platform::ComponentId c) const;
  /// Quality of the evidence about job `j` = quality of its host
  /// component's agent channel (job-level symptoms originate there).
  [[nodiscard]] double job_evidence_quality(platform::JobId j) const;
  /// Whether `c`'s agent was heard within the staleness threshold. Judged
  /// on the integer evidence age, not on the decayed quality double, so
  /// floating-point rounding can never flip a fresh channel to stale.
  /// Always fresh with hardening off (the ablated assessor is blind to
  /// silence by construction).
  [[nodiscard]] bool evidence_fresh(platform::ComponentId c) const {
    return !p_.hardening || evidence_age(c) <= kStaleAfter;
  }
  [[nodiscard]] bool channel_degraded(platform::ComponentId c) const {
    return !evidence_fresh(c);
  }
  [[nodiscard]] const AgentChannel& channel(platform::ComponentId c) const {
    return channels_.at(c);
  }

  /// Wire-sequence gaps observed across all agent channels (messages lost
  /// between an agent's multiplexer and this assessor's inbox).
  [[nodiscard]] std::uint64_t symptom_gaps() const { return gaps_; }
  /// Retransmitted symptoms filtered by the observation-key dedupe.
  [[nodiscard]] std::uint64_t duplicates_dropped() const { return duplicates_; }
  /// Source-side drops confessed by agents via their heartbeats.
  [[nodiscard]] std::uint64_t agent_drops_reported() const {
    return agent_drops_;
  }
  [[nodiscard]] std::uint64_t heartbeats_received() const {
    return heartbeats_;
  }

  [[nodiscard]] const EvidenceStore& evidence() const { return store_; }
  [[nodiscard]] const Classifier& classifier() const { return classifier_; }
  [[nodiscard]] tta::RoundId current_round() const { return round_; }
  [[nodiscard]] std::uint64_t symptoms_processed() const {
    return store_.symptoms_ingested();
  }

 private:
  Params p_;
  Classifier classifier_;
  EvidenceStore store_;
  std::uint32_t component_count_;
  /// Folded features over store_, the classifier's only feature source.
  EvidenceSummary summary_;
  static constexpr platform::ComponentId kNoComponent =
      std::numeric_limits<platform::ComponentId>::max();
  /// Round of a FRU never suspected.
  static constexpr tta::RoundId kNever =
      std::numeric_limits<tta::RoundId>::max();
  /// Reporting component per agent JobId; kNoComponent for other jobs.
  std::vector<platform::ComponentId> agent_component_;
  /// Registered subject jobs per host ComponentId, in registration order.
  std::vector<std::vector<platform::JobId>> jobs_by_host_;

  std::vector<double> component_trust_;
  /// First violation round per ComponentId, kNever while unsuspected.
  std::vector<tta::RoundId> component_violation_round_;
  /// Per-job state, indexed by JobId. A job is enrolled by
  /// register_subject_job or by reset_job_trust; only enrolled jobs carry
  /// trust, and only registered ones know their host. A violation round
  /// can also arrive by reconcile_from for a job never enrolled here.
  struct JobState {
    double trust = 1.0;
    tta::RoundId violation_round = kNever;
    platform::ComponentId host = kNoComponent;
    bool enrolled = false;
    /// Hierarchy mode: an emitted suspicion stands (not yet cleared).
    bool delta_active = false;
  };
  std::vector<JobState> jobs_;
  [[nodiscard]] bool enrolled(platform::JobId j) const {
    return j < jobs_.size() && jobs_[j].enrolled;
  }
  /// Enrols `j` (idempotent) with initial trust; returns its state.
  JobState& enrol(platform::JobId j);
  /// Host of `j`, or component 0 when unknown (the classification and
  /// reconciliation fallback).
  [[nodiscard]] platform::ComponentId host_or_zero(platform::JobId j) const {
    return j < jobs_.size() && jobs_[j].host != kNoComponent ? jobs_[j].host
                                                              : 0;
  }
  tta::RoundId round_ = 0;
  tta::RoundId last_sample_ = 0;
  DiagnosticLog* recorder_ = nullptr;

  void note_component_trust(platform::ComponentId c);
  void note_job_trust(platform::JobId j);

  /// Journey owning the symptom's subject FRU (job first, else component);
  /// kNoJourney when tracing is off or the FRU has no active journey.
  [[nodiscard]] obs::ProvenanceId journey_for(const Symptom& s) const;
  obs::ProvenanceTracer* prov_ = nullptr;
  fault::FaultPointRegistry* fp_ = nullptr;
  /// Per-component staleness edge detector for the staleness-expiry fault
  /// site: hit() is reached only on a fresh->stale transition, keeping the
  /// site's occurrence space proportional to expiry *events*, not rounds.
  std::vector<bool> was_stale_;

  /// Updates the agent's channel state (liveness + wire-seq gap check)
  /// for one inbox message.
  void track_channel(platform::ComponentId agent, const vnet::Message& m);
  /// True if the symptom's observation key has not been seen within the
  /// dedupe window (and records it).
  bool dedupe_accept(const Symptom& s);
  void export_staleness();

  /// Observation keys ingested within the dedupe horizon.
  DedupeSet seen_;
  tta::RoundId last_dedupe_prune_ = 0;

  std::vector<AgentChannel> channels_;

  // Dispatch-local scratch, hoisted to members so the steady-state
  // process() pass allocates nothing: hit counters per FRU and one
  // bitmask of implicated subjects per transport observer (flattened,
  // `mask_words_` words per observer). The passes that read them zero
  // them again, so no pass touches an idle FRU's entry.
  std::vector<std::uint32_t> component_hits_;
  std::vector<std::uint32_t> job_hits_;  // indexed by JobId
  std::vector<std::uint64_t> transport_masks_;
  std::size_t mask_words_ = 1;

  /// Watch bits, one per ComponentId and one per JobId: the FRUs the
  /// trust pass and emit_deltas visit, in ascending id order (so the
  /// dissemination FIFO order is ascending ComponentId, then JobId).
  /// Every writer that can lower trust (a hit, ingest_external,
  /// reconcile_from) sets the bit, and the trust pass clears it only once
  /// trust is exactly kInitial and no delta stands. An unwatched FRU
  /// therefore has initial trust, no hits and no standing delta, and both
  /// passes would leave it as it is: recovery saturates at 1.0 and it is
  /// no suspect.
  std::vector<std::uint64_t> watched_components_;
  std::vector<std::uint64_t> watched_jobs_;
  void watch_component(platform::ComponentId c) {
    watched_components_[c / 64] |= std::uint64_t{1} << (c % 64);
  }
  void watch_job(platform::JobId j);
  /// Counts `n` hits on component `c` this dispatch and watches it.
  void charge_component(platform::ComponentId c, std::uint32_t n) {
    component_hits_[c] += n;
    watch_component(c);
  }

  std::uint64_t gaps_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t agent_drops_ = 0;
  std::uint64_t heartbeats_ = 0;

  // --- hierarchy state ---------------------------------------------------
  std::optional<HierarchyTopology> topo_;
  std::uint32_t position_ = 0;
  platform::PortId dissem_port_ = 0;
  static constexpr std::uint32_t kNoPeer =
      std::numeric_limits<std::uint32_t>::max();
  /// Cube position per peer assessor JobId; kNoPeer for other jobs.
  std::vector<std::uint32_t> peer_position_;
  /// Cached verdicts per FRU key {job_level, fru id}.
  using DeltaKey = std::pair<bool, std::uint32_t>;
  std::map<DeltaKey, VerdictDelta> delta_cache_;
  /// Latest emission round seen per (origin, job_level, fru) — the flood
  /// dedup: each emission is forwarded at most once per node.
  std::map<std::tuple<std::uint32_t, bool, std::uint32_t>, tta::RoundId>
      delta_seen_;
  struct PendingDelta {
    VerdictDelta d;
    bool forward = false;
  };
  std::deque<PendingDelta> dissem_out_;
  /// Per slice FRU: an emitted suspicion stands (not yet cleared).
  std::vector<bool> comp_delta_active_;
  tta::RoundId last_delta_refresh_ = 0;

  /// Accepts/dedupes/merges/forwards one incoming delta message.
  void handle_delta(const vnet::Message& m);
  /// Emits edge-triggered + periodic-refresh deltas for the tester slice
  /// and drains the dissemination queue within the per-round budget.
  void emit_deltas(platform::JobContext& ctx);
  void queue_clear_delta(bool job_level, std::uint32_t fru, double trust);

  obs::Counter hier_accepted_metric_;
  obs::Counter hier_filtered_metric_;
  obs::Counter hier_emitted_metric_;
  obs::Counter hier_forwarded_metric_;
  obs::Counter hier_delta_accepted_metric_;
  obs::Counter hier_duplicate_metric_;
  obs::Counter hier_rejected_metric_;

  obs::Registry* metrics_ = nullptr;  // for label-keyed lazy registration
  /// `diag.classifications` cells by fault class, each registered on the
  /// first verdict of its class.
  mutable std::array<std::optional<obs::Counter>,
                     static_cast<std::size_t>(fault::FaultClass::kNone) + 1>
      classification_metrics_;
  void count_classification(fault::FaultClass cls) const;
  /// `diag.evidence_staleness` cells by component, each registered on
  /// the first export of its row.
  std::vector<std::optional<obs::Gauge>> staleness_metrics_;
  obs::Counter symptoms_metric_;
  obs::Counter violations_metric_;
  obs::Counter gaps_metric_;
  obs::Counter duplicates_metric_;
  obs::Counter agent_drops_metric_;
};

}  // namespace decos::diag
