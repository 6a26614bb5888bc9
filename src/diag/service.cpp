#include "diag/service.hpp"

#include <algorithm>

namespace decos::diag {
namespace {

/// How long a revived higher-priority host must stay continuously alive
/// before the service hands back to it. A restarted node can briefly drop
/// out of sync again while its clock reintegrates; the hold keeps that
/// flap from causing failover churn.
constexpr sim::Duration kFailbackHold = sim::milliseconds(50);
/// Dissemination vnet budget (messages per round per node) and queue
/// depth, hierarchy mode only.
constexpr std::uint16_t kDissemMsgsPerRound = 16;
constexpr std::uint16_t kDissemQueueDepth = 128;

/// A verdict served second-hand from the dissemination cache.
Diagnosis disseminated(const VerdictDelta& d) {
  // Confidence 0.5: no local evidence behind it.
  return {d.cls, fault::Persistence::kTransient, 0.5, Rule::kDisseminated,
          d.origin, d.round};
}

}  // namespace

DiagnosticService::DiagnosticService(platform::System& system, SpecTable specs,
                                     fault::SpatialLayout layout, Params params)
    : system_(system), specs_(std::move(specs)),
      hardening_(params.assessor.hardening),
      hierarchy_(params.hierarchy) {
  // Application jobs existing now are the diagnosis subjects; everything
  // created below belongs to the diagnostic DAS.
  for (platform::JobId j = 0; j < static_cast<platform::JobId>(system_.job_count());
       ++j) {
    subject_jobs_.push_back(j);
  }

  das_ = system_.add_das("diagnostic", platform::Criticality::kSafetyCritical);

  hosts_.push_back(params.assessor_host);
  hosts_.insert(hosts_.end(), params.replica_hosts.begin(),
                params.replica_hosts.end());

  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    assessors_.push_back(std::make_unique<Assessor>(
        params.assessor, layout, system_.component_count(),
        static_cast<std::uint32_t>(system_.job_count())));
    Assessor* assessor = assessors_.back().get();
    // Only the primary feeds the metrics registry: replicas ingest the
    // same multicast symptom stream and would double-count it.
    if (i == 0) assessor->bind_metrics(system_.simulator().metrics());
    // Every replica traces provenance: spans carry the journey id, so a
    // failover's replacement assessor keeps the journey record seamless
    // (the tracer dedupes repeats by coalescing, not by source).
    assessor->bind_provenance(&system_.simulator().provenance());
    platform::Job& job = system_.add_job(
        das_, i == 0 ? "diag.assessor" : "diag.assessor.r" + std::to_string(i),
        hosts_[i],
        [this, assessor, i](platform::JobContext& ctx) {
          if (hierarchy_) {
            // The overlay replaces failover: each position re-derives its
            // tester sets from its own host's membership view, so a dead
            // assessor's slice migrates by local recomputation alone.
            refresh_local_view(*assessor, i);
            assessor->process(ctx);
            return;
          }
          assessor->process(ctx);
          // Re-evaluate failover in-band every assessment round, not only
          // when a client queries: an outage that begins AND ends between
          // two report() calls must still promote the replica, reconcile
          // on revival, and show up in the failover counters.
          check_failover();
        });
    assessor_jobs_.push_back(job.id());
    for (platform::JobId j : subject_jobs_) {
      assessor->register_subject_job(j, system_.job(j).host());
    }
  }
  assessor_job_ = assessor_jobs_.front();

  // Agents mirror the assessor's hardening switch so one Params flag
  // ablates the whole diagnostic-path hardening end to end.
  for (platform::ComponentId c = 0; c < system_.component_count(); ++c) {
    agents_.push_back(std::make_unique<Agent>(system_, das_, c, specs_,
                                              assessor_jobs_, hardening_));
    for (auto& assessor : assessors_) {
      assessor->register_agent(agents_.back()->job_id(), c);
    }
  }

  // The star coupler (bus guardian) reports blocked transmissions
  // directly: it is physically part of the interconnect, not of any
  // component, so its evidence does not travel over a component's agent.
  system_.cluster().bus().on_blocked = [this](tta::NodeId sender,
                                              sim::SimTime when) {
    Symptom s;
    s.type = SymptomType::kGuardianBlock;
    s.observer = sender;  // self-incriminating by construction
    s.subject_component = sender;
    s.round = system_.cluster().schedule().round_at(when);
    s.magnitude = 1.0;
    for (auto& assessor : assessors_) assessor->ingest_external(s);
  };

  if (hierarchy_) {
    view_topo_.emplace(hosts_, system_.component_count());
    const std::uint32_t dim = view_topo_->dimension();
    // Verdict deltas travel on their own vnet: dissemination must compete
    // for bandwidth like everything else, but never with the symptom
    // stream it summarises.
    const platform::VnetId dissem = system_.add_vnet(
        "vn.diag.dissem", kDissemMsgsPerRound, kDissemQueueDepth);
    for (std::size_t i = 0; i < assessors_.size(); ++i) {
      // Cube edges are fixed by position (p <-> p xor 2^s); only liveness
      // changes at runtime, so the port's receiver set never needs rewiring.
      std::vector<platform::JobId> cube_neighbors;
      for (std::uint32_t s = 0; s < dim; ++s) {
        const std::size_t q = i ^ (std::size_t{1} << s);
        if (q < assessor_jobs_.size()) {
          cube_neighbors.push_back(assessor_jobs_[q]);
        }
      }
      const platform::PortId port = system_.add_port(
          assessor_jobs_[i], "diag.dissem." + std::to_string(i), dissem,
          std::move(cube_neighbors));
      assessors_[i]->enable_hierarchy(
          HierarchyTopology(hosts_, system_.component_count()),
          static_cast<std::uint32_t>(i), port);
      for (std::size_t q = 0; q < assessor_jobs_.size(); ++q) {
        if (q != i) {
          assessors_[i]->register_peer(assessor_jobs_[q],
                                       static_cast<std::uint32_t>(q));
        }
      }
      assessors_[i]->bind_hierarchy_metrics(system_.simulator().metrics());
    }
    // Agents route by subject over per-position unicast ports; the shared
    // multicast port stays wired but idle (flush() branches to routing).
    for (platform::ComponentId c = 0; c < system_.component_count(); ++c) {
      std::vector<platform::PortId> tester_ports;
      tester_ports.reserve(assessor_jobs_.size());
      for (std::size_t i = 0; i < assessor_jobs_.size(); ++i) {
        tester_ports.push_back(system_.add_port(
            agents_[c]->job_id(),
            "symptoms." + std::to_string(c) + ".p" + std::to_string(i),
            platform::kDiagnosticVnet, {assessor_jobs_[i]}));
      }
      agents_[c]->enable_hierarchy(&*view_topo_, std::move(tester_ports));
    }
    obs::Registry& metrics = system_.simulator().metrics();
    metrics.gauge("diag.hierarchy.dimension")
        .set(static_cast<double>(dim));
    metrics.gauge("diag.hierarchy.positions")
        .set(static_cast<double>(view_topo_->positions()));
  }
}

void DiagnosticService::refresh_local_view(Assessor& a, std::size_t i) {
  const std::uint64_t membership =
      system_.cluster().node(hosts_[i]).membership();
  alive_scratch_.assign(hosts_.size(), false);
  for (std::size_t k = 0; k < hosts_.size(); ++k) {
    alive_scratch_[k] = ((membership >> hosts_[k]) & 1u) != 0;
  }
  a.refresh_topology(alive_scratch_);
}

void DiagnosticService::refresh_view() const {
  // The engineer-facing view composes each host's *self*-liveness — the
  // same fail-silent self-exclusion rule every assessor applies locally.
  alive_scratch_.assign(hosts_.size(), false);
  for (std::size_t k = 0; k < hosts_.size(); ++k) {
    alive_scratch_[k] = host_alive(hosts_[k]);
  }
  view_topo_->update(alive_scratch_);
}

const HierarchyTopology& DiagnosticService::topology() const {
  refresh_view();
  return *view_topo_;
}

const Assessor* DiagnosticService::resolve_component(
    platform::ComponentId c, const VerdictDelta** delta) const {
  if (delta) *delta = nullptr;
  // Legacy mode: the active assessor holds the whole cluster's evidence.
  if (!hierarchy_) return assessors_[active_].get();
  refresh_view();
  const auto& testers = view_topo_->testers(c);
  for (const HierarchyTopology::Position p : testers) {
    const Assessor& a = *assessors_[p];
    // First tester (in priority order) that actually heard the FRU's
    // agent composes the verdict from its local evidence.
    if (a.ever_heard(c)) return &a;
  }
  if (!testers.empty()) {
    // Responsible tester was (re)assigned after the agent went quiet —
    // serve the disseminated verdict it caches, if any.
    const Assessor& a = *assessors_[testers.front()];
    if (delta) *delta = a.cached_component_delta(c);
    return &a;
  }
  // Every position dead: the primary's frozen state is the best view left.
  return assessors_.front().get();
}

const Assessor* DiagnosticService::resolve_job(
    platform::JobId j, const VerdictDelta** delta) const {
  const platform::ComponentId host = system_.job(j).host();
  const Assessor* a = resolve_component(host, nullptr);
  // Only a host resolver that never heard the host's agent (hierarchy
  // mode, tester reassigned) serves the cached job verdict.
  *delta = a->ever_heard(host) ? nullptr : a->cached_job_delta(j);
  return a;
}

double DiagnosticService::component_trust(platform::ComponentId c) const {
  check_failover();
  const VerdictDelta* d = nullptr;
  const Assessor* a = resolve_component(c, &d);
  return d ? d->trust : a->component_trust(c);
}

double DiagnosticService::job_trust(platform::JobId j) const {
  check_failover();
  const VerdictDelta* d = nullptr;
  const Assessor* a = resolve_job(j, &d);
  return d ? d->trust : a->job_trust(j);
}

Diagnosis DiagnosticService::diagnose_component(
    platform::ComponentId c) const {
  check_failover();
  const VerdictDelta* d = nullptr;
  const Assessor* a = resolve_component(c, &d);
  return d ? disseminated(*d) : a->diagnose_component(c);
}

Diagnosis DiagnosticService::diagnose_job(platform::JobId j) const {
  check_failover();
  const VerdictDelta* d = nullptr;
  const Assessor* a = resolve_job(j, &d);
  return d ? disseminated(*d) : a->diagnose_job(j);
}

std::optional<tta::RoundId> DiagnosticService::first_component_violation(
    platform::ComponentId c) const {
  if (!hierarchy_) return assessor().first_component_violation(c);
  // Composed minimum over every position: only `c`'s testers ever ingest
  // evidence about it, so this is the earliest detection instant any
  // (possibly since-reassigned) tester recorded.
  std::optional<tta::RoundId> best;
  for (const auto& a : assessors_) {
    const auto v = a->first_component_violation(c);
    if (v && (!best || *v < *best)) best = v;
  }
  return best;
}

std::optional<tta::RoundId> DiagnosticService::first_job_violation(
    platform::JobId j) const {
  if (!hierarchy_) return assessor().first_job_violation(j);
  std::optional<tta::RoundId> best;
  for (const auto& a : assessors_) {
    const auto v = a->first_job_violation(j);
    if (v && (!best || *v < *best)) best = v;
  }
  return best;
}

HierarchyStats HierarchyStats::from(const obs::Snapshot& s) {
  auto count = [&s](std::string_view name) {
    const obs::SnapshotEntry* e = s.find(name);
    return e ? e->counter : 0;
  };
  return {count("diag.hierarchy.symptoms_accepted"),
          count("diag.hierarchy.symptoms_filtered"),
          count("diag.hierarchy.deltas_emitted"),
          count("diag.hierarchy.deltas_forwarded"),
          count("diag.hierarchy.deltas_accepted"),
          count("diag.hierarchy.deltas_duplicate"),
          count("diag.hierarchy.deltas_rejected")};
}

HierarchyStats DiagnosticService::hierarchy_stats() const {
  return HierarchyStats::from(system_.simulator().metrics().snapshot());
}

bool DiagnosticService::is_diagnostic_job(platform::JobId j) const {
  if (std::find(assessor_jobs_.begin(), assessor_jobs_.end(), j) !=
      assessor_jobs_.end()) {
    return true;
  }
  return std::any_of(agents_.begin(), agents_.end(),
                     [j](const auto& a) { return a->job_id() == j; });
}

bool DiagnosticService::host_alive(platform::ComponentId c) const {
  // A fail-silent node drops its own bit from its membership vector, so
  // the node's self-view is a clean liveness test that needs no quorum.
  const auto& node = system_.cluster().node(c);
  return ((node.membership() >> c) & 1u) != 0;
}

void DiagnosticService::check_failover() const {
  // The overlay has no active assessor to fail over: tester reassignment
  // on membership change is the (strictly more general) healing mechanism.
  if (hierarchy_) return;
  // Failover is part of the hardening package: the ablated architecture
  // stays pinned to the primary even when its host is dead.
  if (!hardening_ || assessors_.size() <= 1) return;
  std::size_t chosen = active_;
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    if (host_alive(hosts_[i])) {
      chosen = i;
      break;
    }
    // All hosts dead: keep the current assessor — its frozen state is the
    // best maintenance view that exists.
  }
  if (chosen == active_) {
    failback_candidate_ = SIZE_MAX;
    return;
  }
  if (host_alive(hosts_[active_])) {
    // The active assessor is healthy and a higher-priority host came back:
    // debounce the hand-back. A restarted node can drop out of sync again
    // for a few rounds while its clock reintegrates, and flapping between
    // assessors would churn reconciliations for nothing.
    const sim::SimTime now = system_.simulator().now();
    if (failback_candidate_ != chosen) {
      failback_candidate_ = chosen;
      failback_candidate_since_ = now;
      return;
    }
    if ((now - failback_candidate_since_).ns() < kFailbackHold.ns()) return;
  }
  // Failover/failback fault sites: firing defers the transition by one
  // evaluation (the decision logic glitches, the next assessment round
  // re-evaluates from scratch). Placed before any state mutation so the
  // deferred transition replays cleanly.
  const bool is_failback = chosen < active_;
  if (fp_ && fp_->hit(is_failback ? fault::FaultSite::kFailback
                                  : fault::FaultSite::kFailover)) {
    return;
  }
  // A dead active assessor serves nobody: promote immediately.
  failback_candidate_ = SIZE_MAX;
  // The newly active assessor adopts whatever fresher state the outgoing
  // one holds. On failover the outgoing (dead) side is per-FRU staler so
  // the merge is a no-op; on failback it is exactly the reconciliation of
  // the revived host with the replica that stayed alive.
  assessors_[chosen]->reconcile_from(*assessors_[active_]);
  obs::Registry& metrics = system_.simulator().metrics();
  if (chosen < active_) {
    ++failbacks_;
    metrics.counter("diag.assessor.failbacks").inc();
  } else {
    ++failovers_;
    metrics.counter("diag.assessor.failovers").inc();
  }
  active_ = chosen;
}

void DiagnosticService::assert_external_ona(platform::ComponentId c, Ona ona) {
  auto& onas = external_onas_[c];
  if (std::find(onas.begin(), onas.end(), ona) == onas.end()) {
    onas.push_back(ona);
  }
}

void DiagnosticService::retract_external_ona(platform::ComponentId c, Ona ona) {
  auto it = external_onas_.find(c);
  if (it == external_onas_.end()) return;
  std::erase(it->second, ona);
}

void DiagnosticService::count_ona(Ona ona) const {
  auto& metric = ona_metrics_[static_cast<std::size_t>(ona)];
  if (!metric) {
    metric = system_.simulator().metrics().counter(
        "diag.ona_assertions", std::string("ona=") + to_string(ona));
  }
  metric->inc();
}

void DiagnosticService::reset_component_trust(platform::ComponentId c) {
  for (auto& assessor : assessors_) assessor->reset_component_trust(c);
}

void DiagnosticService::reset_job_trust(platform::JobId j) {
  for (auto& assessor : assessors_) assessor->reset_job_trust(j);
}

void DiagnosticService::bind_fault_points(fault::FaultPointRegistry* fp) {
  fp_ = fp;
  for (auto& assessor : assessors_) assessor->bind_fault_points(fp);
  for (auto& agent : agents_) agent->bind_fault_points(fp);
}

std::size_t DiagnosticService::record_detection_latency(
    const fault::FaultInjector& injector) {
  obs::Registry& metrics = system_.simulator().metrics();
  obs::Histogram aggregate = metrics.histogram("diag.detection_latency_us");
  const sim::Duration round_len = system_.cluster().schedule().round_length();

  std::size_t recorded = 0;
  for (const fault::InjectedFault& f : injector.ledger()) {
    // A job-level fault is detected when its software FRU is suspected; a
    // component-level fault when the hardware FRU is. The composed
    // accessors resolve to the active assessor in legacy mode and to the
    // earliest-recording tester in hierarchy mode.
    std::optional<tta::RoundId> violation =
        f.job ? first_job_violation(*f.job)
              : first_component_violation(f.component);
    if (!violation) continue;
    // Rounds open at round * round_length on the reference base; the
    // violation instant is the end of the assessment round that tripped.
    const sim::SimTime detected = sim::SimTime::zero() +
                                  round_len * static_cast<std::int64_t>(*violation + 1);
    if (detected < f.start) continue;  // suspected before this injection
    const std::int64_t latency_us = (detected - f.start).ns() / 1000;
    aggregate.record(latency_us);
    const std::string fru_label =
        f.job ? "fru=job." + std::to_string(*f.job)
              : "fru=component." + std::to_string(f.component);
    metrics.histogram("diag.detection_latency_us", fru_label).record(latency_us);
    ++recorded;
  }
  return recorded;
}

std::string FruReport::label() const {
  std::string out;
  if (job) {
    out.append("job ").append(job_name).append(" (j");
    out.append(std::to_string(*job)).append(") on ");
  }
  return out.append("component ").append(std::to_string(component));
}

std::vector<FruReport> DiagnosticService::report() const {
  // The Fig. 11 report. Each row is answered by the FRU's serving
  // assessor: the active one in legacy mode; in hierarchy mode the
  // serving tester (local evidence first, disseminated verdict as the
  // fallback), so no single assessor ever needs the whole cluster's
  // evidence in memory. Failover is evaluated once per report, not per row.
  check_failover();
  obs::Registry& metrics = system_.simulator().metrics();
  std::vector<FruReport> rows;
  rows.reserve(system_.component_count() + subject_jobs_.size());
  // Each component's verdict from its serving assessor's own evidence: the
  // host verdict of its job rows, which resolve to the same assessor.
  std::vector<Diagnosis> local(system_.component_count());
  EvidenceSummary::ComponentFeatures feat;
  for (platform::ComponentId c = 0; c < system_.component_count(); ++c) {
    const VerdictDelta* delta = nullptr;
    const Assessor* a = resolve_component(c, &delta);
    FruReport row;
    row.component = c;
    row.trust = delta ? delta->trust : a->component_trust(c);
    // One feature read per row: the verdict and the pattern ONAs both
    // evaluate this value, under the summary's resolved parameters.
    a->summary().component_features(c, a->current_round(), feat);
    local[c] = delta ? a->classifier().classify(feat, a->current_round())
                     : a->diagnose_component(c, feat);
    row.diagnosis = delta ? disseminated(*delta) : local[c];
    row.action = row.diagnosis.action();
    row.evidence_quality = delta ? 0.0 : a->evidence_quality(c);
    row.evidence_age = a->evidence_age(c);
    row.evidence_fresh = delta ? false : a->evidence_fresh(c);
    row.asserted_onas = pattern_onas(feat, a->current_round());
    // Meta-ONA: the diagnostic channel itself is out of norm — the FRU's
    // agent has gone silent and this row's verdict rests on stale data.
    if (a->channel_degraded(c)) {
      row.asserted_onas.push_back(Ona::kChannelDegraded);
    }
    auto ext = external_onas_.find(c);
    if (ext != external_onas_.end()) {
      row.asserted_onas.insert(row.asserted_onas.end(), ext->second.begin(),
                               ext->second.end());
    }
    for (const Ona ona : row.asserted_onas) count_ona(ona);
    // The staleness gauges track the *serving* assessor's view, so the
    // exported metrics survive a primary death and cover FRUs outside the
    // primary's tester slice.
    if (staleness_metrics_.size() <= c) staleness_metrics_.resize(c + 1);
    auto& gauge = staleness_metrics_[c];
    if (!gauge) {
      gauge = metrics.gauge("diag.evidence_staleness",
                            "fru=c" + std::to_string(c));
    }
    gauge->set(static_cast<double>(row.evidence_age));
    rows.push_back(std::move(row));
  }
  for (platform::JobId j : subject_jobs_) {
    const auto& job = system_.job(j);
    const VerdictDelta* delta = nullptr;
    const Assessor* a = resolve_job(j, &delta);
    FruReport row;
    row.component = job.host();
    row.job = j;
    row.job_name = job.name();
    row.trust = delta ? delta->trust : a->job_trust(j);
    row.diagnosis =
        delta ? disseminated(*delta) : a->diagnose_job(j, local[job.host()]);
    row.action = row.diagnosis.action();
    row.evidence_quality = a->job_evidence_quality(j);
    row.evidence_age = a->evidence_age(job.host());
    row.evidence_fresh = a->evidence_fresh(job.host());
    rows.push_back(std::move(row));
  }
  if (view_topo_) {
    metrics.gauge("diag.hierarchy.recomputes")
        .set(static_cast<double>(view_topo_->recomputes()));
  }
  return rows;
}

}  // namespace decos::diag
