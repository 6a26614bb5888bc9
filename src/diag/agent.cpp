#include "diag/agent.hpp"

#include <algorithm>
#include <cmath>

namespace decos::diag {

Agent::Agent(platform::System& system, platform::DasId diag_das,
             platform::ComponentId component, const SpecTable& specs,
             const std::vector<platform::JobId>& assessors, bool hardening)
    : system_(system),
      component_(component),
      specs_(specs),
      hardening_(hardening),
      prov_(&system.simulator().provenance()),
      entity_("agent." + std::to_string(component)),
      heartbeats_metric_(
          system.simulator().metrics().counter("diag.agent.heartbeats")),
      retransmissions_metric_(
          system.simulator().metrics().counter("diag.agent.retransmissions")),
      dropped_metric_(
          system.simulator().metrics().counter("diag.agent.symptoms_dropped")) {
  platform::Job& job = system_.add_job(
      diag_das, "diag.agent." + std::to_string(component), component,
      [this](platform::JobContext& ctx) { flush(ctx); });
  job_id_ = job.id();
  port_ = system_.add_port(job_id_, "symptoms." + std::to_string(component),
                           platform::kDiagnosticVnet, assessors);

  system_.cluster().node(component).observation_sink =
      [this](const tta::SlotObservation& obs) { on_observation(obs); };
  system_.component(component).mux().on_overflow =
      [this](platform::PortId p, platform::VnetId vn, tta::RoundId r) {
        if (vn == platform::kDiagnosticVnet) return;  // see on_overflow()
        on_overflow(p, r);
      };
  system_.component(component).on_message_sent =
      [this](const vnet::Message& m, tta::RoundId r) { on_sent(m, r); };
  system_.component(component).on_transducer_anomaly =
      [this](platform::JobId j, double magnitude, tta::RoundId r) {
        Symptom s;
        s.type = SymptomType::kTransducerSuspect;
        s.observer = component_;
        s.subject_component = component_;
        s.subject_job = j;
        s.round = r;
        s.magnitude = magnitude;
        note(s);
      };
}

void Agent::enable_hierarchy(const HierarchyTopology* view,
                             std::vector<platform::PortId> tester_ports) {
  topo_ = view;
  tester_ports_ = std::move(tester_ports);
  fanout_metric_ =
      system_.simulator().metrics().counter("diag.agent.route_fanout");
}

std::size_t Agent::route(platform::JobContext& ctx, const vnet::Message& m,
                         platform::ComponentId subject) {
  std::size_t ok = 0;
  for (const HierarchyTopology::Position p : topo_->testers(subject)) {
    if (p >= tester_ports_.size()) continue;
    if (ctx.send(tester_ports_[p], m.value, m.kind, m.aux)) ++ok;
  }
  if (ok > 0) fanout_metric_.inc(ok);
  return ok;
}

void Agent::trace_symptom(const Symptom& s, std::string_view detail) {
  if (!prov_->enabled()) return;
  // Attribute by subject FRU: job-level faults own the job mapping, every
  // other symptom points at the subject component's journey.
  obs::ProvenanceId j = obs::kNoJourney;
  if (s.subject_job.has_value()) j = prov_->journey_for_job(*s.subject_job);
  if (j == obs::kNoJourney) {
    j = prov_->journey_for_component(s.subject_component);
  }
  prov_->event(j, obs::ProvStage::kSymptom, entity_, detail, s.round);
}

void Agent::note(Symptom s) {
  trace_symptom(s, to_string(s.type));
  if (s.round > coalesce_round_) {
    for (auto& [key, sym] : this_round_) pending_.push_back(sym);
    this_round_.clear();
    coalesce_round_ = s.round;
  }
  // Bound the backlog: when the component cannot flush (e.g. its node is
  // re-integrating), keep the most recent window and drop the oldest —
  // fresh evidence is worth more to the assessor than stale repeats. The
  // drop is counted and confessed in the next heartbeat, so the loss is
  // visible to the assessor instead of silent.
  if (pending_.size() > 4096) {
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(1024));
    dropped_ += 1024;
    dropped_metric_.inc(1024);
  }
  ++detected_;
  const Key key{s.type, s.subject_component,
                s.subject_job.value_or(platform::kInvalidJob)};
  auto it = this_round_.find(key);
  if (it == this_round_.end()) {
    this_round_.emplace(key, s);
  } else {
    // Coalesce: keep the worst magnitude seen this round.
    it->second.magnitude = std::max(it->second.magnitude, s.magnitude);
  }
}

void Agent::on_observation(const tta::SlotObservation& obs) {
  if (obs.verdict == tta::SlotVerdict::kCorrect) return;
  Symptom s;
  s.observer = component_;
  s.subject_component = obs.sender;
  s.round = obs.round;
  switch (obs.verdict) {
    case tta::SlotVerdict::kCrcError:
      s.type = SymptomType::kSlotCrcError;
      s.magnitude = 1.0;
      break;
    case tta::SlotVerdict::kTimingError:
      s.type = SymptomType::kSlotTimingError;
      s.magnitude = std::abs(obs.arrival_offset.us());
      break;
    case tta::SlotVerdict::kOmission:
      s.type = SymptomType::kSlotOmission;
      s.magnitude = 1.0;
      break;
    case tta::SlotVerdict::kCorrect:
      return;
  }
  note(s);
}

void Agent::on_overflow(platform::PortId port, tta::RoundId round) {
  const auto& pc = system_.plan().port(port);
  // The diagnostic vnet polices itself; feeding its overflows back in
  // would create a symptom->overflow->symptom loop.
  if (pc.vnet == platform::kDiagnosticVnet) return;
  Symptom s;
  s.type = SymptomType::kQueueOverflow;
  s.observer = component_;
  s.subject_component = component_;
  s.subject_job = pc.owner;
  s.round = round;
  s.magnitude = 1.0;
  note(s);
}

std::vector<Agent::SpecPort>& Agent::spec_ports() {
  if (spec_ports_built_) return spec_ports_;
  spec_ports_built_ = true;
  const auto& ports = system_.plan().ports();
  for (const auto& [id, spec] : specs_.all()) {
    if (id >= ports.size()) continue;
    const vnet::PortConfig& pc = ports[id];
    if (system_.job(pc.owner).host() != component_) continue;
    const bool gap_checked =
        pc.vnet != platform::kDiagnosticVnet && spec.period_rounds != 0;
    spec_ports_.push_back(SpecPort{
        id, pc.owner, spec.min_value, spec.max_value, gap_checked,
        static_cast<tta::RoundId>(spec.period_rounds) *
            spec.gap_tolerance_periods});
  }
  return spec_ports_;
}

void Agent::on_sent(const vnet::Message& msg, tta::RoundId round) {
  std::vector<SpecPort>& table = spec_ports();
  const auto it = std::lower_bound(
      table.begin(), table.end(), msg.port,
      [](const SpecPort& sp, platform::PortId p) { return sp.port < p; });
  if (it == table.end() || it->port != msg.port) return;
  it->last_sent = round;
  if (msg.value >= it->min_value && msg.value <= it->max_value) return;
  Symptom s;
  s.type = SymptomType::kValueOutOfRange;
  s.observer = component_;
  s.subject_component = component_;
  s.subject_job = msg.sender;
  s.round = round;
  s.magnitude = msg.value > it->max_value ? msg.value - it->max_value
                                          : it->min_value - msg.value;
  note(s);
}

void Agent::flush(platform::JobContext& ctx) {
  const tta::RoundId round = ctx.round();

  // LIF temporal monitor: has any locally hosted, spec'd port gone silent
  // beyond its gap tolerance?
  for (SpecPort& sp : spec_ports()) {
    if (!sp.gap_checked) continue;
    // Rate-limit to one report per tolerance window.
    if (round > sp.last_sent + sp.gap_limit &&
        round >= sp.last_report + sp.gap_limit) {
      sp.last_report = round;
      Symptom s;
      s.type = SymptomType::kMessageGap;
      s.observer = component_;
      s.subject_component = component_;
      s.subject_job = sp.owner;
      s.round = round;
      s.magnitude = static_cast<double>(round - sp.last_sent);
      note(s);
    }
  }

  // Promote the previous round's coalesced symptoms.
  if (!this_round_.empty() && coalesce_round_ < round) {
    for (auto& [key, sym] : this_round_) pending_.push_back(sym);
    this_round_.clear();
  }

  std::size_t sent = 0;

  // Heartbeat first: the assessor's staleness watchdog must keep being
  // fed even when the component is perfectly healthy — its absence is the
  // one signal that survives every agent-death mode.
  if (hardening_ &&
      (last_heartbeat_ == 0 || round >= last_heartbeat_ + kHeartbeatPeriod)) {
    if (fp_ && fp_->hit(fault::FaultSite::kHeartbeatSend)) {
      // Heartbeat lost at the send instant: the agent believes it fed the
      // watchdog (the period restarts) but nothing reaches the wire.
      last_heartbeat_ = round;
    } else {
      Heartbeat hb;
      hb.symptoms_detected = detected_;
      hb.symptoms_dropped = static_cast<std::uint32_t>(
          dropped_ > 0xFFFFFFFFu ? 0xFFFFFFFFu : dropped_);
      const vnet::Message m = encode_heartbeat(hb, round);
      if (hierarchical()) {
        // Heartbeats feed the staleness watchdogs of this component's own
        // testers — nobody else keeps channel state for it.
        const std::size_t copies = route(ctx, m, component_);
        if (copies > 0) {
          last_heartbeat_ = round;
          ++heartbeats_;
          heartbeats_metric_.inc();
          sent += copies;
        }
      } else if (ctx.send(port_, m.value, m.kind, m.aux)) {
        last_heartbeat_ = round;
        ++heartbeats_;
        heartbeats_metric_.inc();
        ++sent;
      }
    }
  }

  // Flush under the diagnostic vnet's real bandwidth: excess stays pending.
  while (!pending_.empty() && sent < 16) {
    const Symptom& s = pending_.front();
    const vnet::Message m = encode(s, round);
    if (hierarchical()) {
      // Routed by subject: only the FRU's current testers receive the
      // symptom, so per-symptom traffic is the tester-set size (log A + 1)
      // instead of the assessor count.
      const std::size_t copies = route(ctx, m, s.subject_component);
      if (copies == 0) break;  // all destination queues full
      sent += copies;
    } else {
      if (!ctx.send(port_, m.value, m.kind, m.aux)) break;  // queue full
      ++sent;
    }
    // Resend-push fault site: firing means this symptom never enters the
    // retransmission buffer — its original send is its only chance.
    if (hardening_ && !(fp_ && fp_->hit(fault::FaultSite::kResendPush))) {
      resend_.push_back(Resend{s, round + kResendBackoff, 1});
      while (resend_.size() > kResendBuffer) resend_.pop_front();
    }
    pending_.pop_front();
  }

  // Retransmissions with exponential backoff: a lost original becomes a
  // duplicate at the assessor (deduplicated there by observation key)
  // instead of a hole in the evidence. Spare bandwidth only.
  if (hardening_) {
    for (auto& r : resend_) {
      if (sent >= 16) break;
      if (r.sends > kMaxResends || round < r.due) continue;
      const vnet::Message m = encode(r.s, round);
      if (hierarchical()) {
        // Resends re-route through the *current* tester set, so a symptom
        // whose testers were reassigned mid-backoff still lands where the
        // evidence is now being kept.
        const std::size_t copies = route(ctx, m, r.s.subject_component);
        if (copies == 0) break;
        sent += copies - 1;  // loop header adds the final +1 below
      } else if (!ctx.send(port_, m.value, m.kind, m.aux)) {
        break;
      }
      trace_symptom(r.s, "resend");
      ++sent;
      ++resent_;
      retransmissions_metric_.inc();
      r.due = round + (kResendBackoff << r.sends);
      ++r.sends;
    }
    while (!resend_.empty() && resend_.front().sends > kMaxResends) {
      resend_.pop_front();
    }
  }
}

}  // namespace decos::diag
