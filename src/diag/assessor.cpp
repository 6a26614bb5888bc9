#include "diag/assessor.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

#include "diag/agent.hpp"

namespace decos::diag {

// The assessor's horizons against the agents' channel timing (agent.hpp).
// A retransmission still folds into the summary as a late arrival instead
// of forcing a rebuild: the fold lag covers the symptom age field's
// 255-round saturation plus the resend span.
static_assert(EvidenceSummary::kFoldLag > 255 + Agent::kResendSpan);
// A retransmission still meets its original's dedupe key.
static_assert(Assessor::kDedupeWindow > Agent::kResendSpan);
// One or two lost heartbeats must not read as agent silence.
static_assert(Assessor::kStaleAfter >= 4 * Agent::kHeartbeatPeriod);

DedupeSet::Slot DedupeSet::slot_of(const DedupKey& k) {
  assert(k.type != SymptomType{} &&
         k.observer < EvidenceStore::kMaxComponents);
  return Slot{k.round, k.subj_c, k.subj_j,
              static_cast<std::uint8_t>(k.observer), k.type};
}

std::size_t DedupeSet::probe(const Slot& s) const {
  // MurmurHash3's 64-bit finaliser over the round and the rest of the
  // key packed into one word.
  const std::uint64_t rest =
      std::uint64_t{s.subj_c} << 32 | std::uint64_t{s.subj_j} << 16 |
      std::uint64_t{s.observer} << 8 | static_cast<std::uint64_t>(s.type);
  std::uint64_t h = s.round ^ rest * 0x9E3779B97F4A7C15ull;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(h) & mask;
  while (!vacant(slots_[i]) && slots_[i] != s) i = (i + 1) & mask;
  return i;
}

void DedupeSet::place(const Slot& s) {
  slots_[probe(s)] = s;
  ++size_;
}

void DedupeSet::grow() {
  std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
  old.swap(slots_);
  size_ = 0;
  for (const Slot& s : old) {
    if (!vacant(s)) place(s);
  }
}

bool DedupeSet::insert(const Slot& s) {
  if (!slots_.empty() && !vacant(slots_[probe(s)])) return false;
  if (4 * (size_ + 1) > 3 * slots_.size()) grow();
  place(s);
  return true;
}

bool DedupeSet::insert(const DedupKey& k) { return insert(slot_of(k)); }

bool DedupeSet::contains(const DedupKey& k) const {
  return !slots_.empty() && !vacant(slots_[probe(slot_of(k))]);
}

void DedupeSet::erase_before(tta::RoundId horizon) {
  if (size_ == 0) return;
  // Walk the table once from just after a vacant slot, which no probe run
  // crosses, taking every key out and placing the survivors back. A key
  // placed back lands at or before its old slot, behind keys already
  // placed, so every run stays unbroken from its home slot.
  const std::size_t mask = slots_.size() - 1;
  std::size_t start = 0;
  while (!vacant(slots_[start])) ++start;
  for (std::size_t n = 1; n < slots_.size(); ++n) {
    Slot& slot = slots_[(start + n) & mask];
    if (vacant(slot)) continue;
    const Slot s = slot;
    slot = Slot{};
    --size_;
    if (s.round >= horizon) place(s);
  }
}

void DedupeSet::merge(const DedupeSet& other) {
  for (const Slot& s : other.slots_) {
    if (!vacant(s)) insert(s);
  }
}

namespace {

/// Calls `visit(id)` for each set bit of `bits` in ascending id order and
/// clears the bit when `visit` returns false. A word is read once, before
/// its bits are visited.
template <typename Visit>
void for_each_watched(std::vector<std::uint64_t>& bits, Visit&& visit) {
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
      const int bit = std::countr_zero(word);
      const auto id = static_cast<std::uint32_t>(w * 64) +
                      static_cast<std::uint32_t>(bit);
      if (!visit(id)) bits[w] &= ~(std::uint64_t{1} << bit);
    }
  }
}

}  // namespace

Assessor::Assessor(Params p, fault::SpatialLayout layout,
                   std::uint32_t component_count, std::uint32_t job_count)
    : p_(p),
      classifier_(p.classifier),
      component_count_(component_count),
      summary_(&store_, classifier_.feature_params(component_count),
               component_count, std::move(layout)),
      jobs_by_host_(component_count),
      component_trust_(component_count, TrustParams::kInitial),
      component_violation_round_(component_count, kNever),
      jobs_(job_count),
      was_stale_(component_count, false),
      channels_(component_count),
      component_hits_(component_count, 0),
      mask_words_((component_count + 63) / 64),
      watched_components_((component_count + 63) / 64, 0),
      watched_jobs_((job_count + 63) / 64, 0) {
  if (mask_words_ == 0) mask_words_ = 1;
  transport_masks_.assign(component_count_ * mask_words_, 0);
}

void Assessor::enable_hierarchy(HierarchyTopology topology,
                                std::uint32_t position,
                                platform::PortId dissem_port) {
  topo_ = std::move(topology);
  position_ = position;
  dissem_port_ = dissem_port;
  comp_delta_active_.assign(component_count_, false);
}

void Assessor::register_peer(platform::JobId assessor_job,
                             std::uint32_t position) {
  if (assessor_job >= peer_position_.size()) {
    peer_position_.resize(assessor_job + 1, kNoPeer);
  }
  peer_position_[assessor_job] = position;
}

void Assessor::refresh_topology(const std::vector<bool>& alive) {
  if (!topo_) return;
  if (!topo_->would_change(alive)) return;
  if (fp_ && fp_->hit(fault::FaultSite::kTesterReassign)) {
    // The recompute lags the membership change by one assessment round:
    // this side keeps routing/accepting on the stale tester sets while
    // its peers have already moved — the reassignment race the E20
    // oracle must show convergence under.
    return;
  }
  topo_->update(alive);
}

void Assessor::bind_hierarchy_metrics(obs::Registry& registry) {
  hier_accepted_metric_ = registry.counter("diag.hierarchy.symptoms_accepted");
  hier_filtered_metric_ = registry.counter("diag.hierarchy.symptoms_filtered");
  hier_emitted_metric_ = registry.counter("diag.hierarchy.deltas_emitted");
  hier_forwarded_metric_ = registry.counter("diag.hierarchy.deltas_forwarded");
  hier_delta_accepted_metric_ =
      registry.counter("diag.hierarchy.deltas_accepted");
  hier_duplicate_metric_ = registry.counter("diag.hierarchy.deltas_duplicate");
  hier_rejected_metric_ = registry.counter("diag.hierarchy.deltas_rejected");
}

void Assessor::register_agent(platform::JobId agent_job,
                              platform::ComponentId component) {
  if (agent_job >= agent_component_.size()) {
    agent_component_.resize(agent_job + 1, kNoComponent);
  }
  agent_component_[agent_job] = component;
}

Assessor::JobState& Assessor::enrol(platform::JobId j) {
  if (j >= jobs_.size()) jobs_.resize(j + 1);
  JobState& js = jobs_[j];
  if (!js.enrolled) {
    js.enrolled = true;
    js.trust = TrustParams::kInitial;
  }
  return js;
}

void Assessor::watch_job(platform::JobId j) {
  if (j / 64 >= watched_jobs_.size()) watched_jobs_.resize(j / 64 + 1, 0);
  watched_jobs_[j / 64] |= std::uint64_t{1} << (j % 64);
}

void Assessor::register_subject_job(platform::JobId job,
                                    platform::ComponentId host) {
  jobs_by_host_.at(host).push_back(job);
  enrol(job).host = host;
  if (job >= job_hits_.size()) job_hits_.resize(job + 1, 0);
}

void Assessor::bind_metrics(obs::Registry& registry) {
  metrics_ = &registry;
  classification_metrics_ = {};
  staleness_metrics_.assign(component_count_, std::nullopt);
  symptoms_metric_ = registry.counter("diag.symptoms_ingested");
  violations_metric_ = registry.counter("diag.trust_violations");
  gaps_metric_ = registry.counter("diag.assessor.symptom_gaps");
  duplicates_metric_ = registry.counter("diag.assessor.duplicates_dropped");
  agent_drops_metric_ = registry.counter("diag.assessor.agent_drops_reported");
}

obs::ProvenanceId Assessor::journey_for(const Symptom& s) const {
  if (!prov_ || !prov_->enabled()) return obs::kNoJourney;
  obs::ProvenanceId j = obs::kNoJourney;
  if (s.subject_job.has_value()) j = prov_->journey_for_job(*s.subject_job);
  if (j == obs::kNoJourney) {
    j = prov_->journey_for_component(s.subject_component);
  }
  return j;
}

void Assessor::note_component_trust(platform::ComponentId c) {
  if (component_trust_[c] < TrustParams::kViolationThreshold &&
      component_violation_round_[c] == kNever) {
    component_violation_round_[c] = round_;
    violations_metric_.inc();
    if (prov_ && prov_->enabled()) {
      prov_->event(prov_->journey_for_component(c), obs::ProvStage::kVerdict,
                   "assessor", "trust-violation", round_);
    }
  }
}

void Assessor::note_job_trust(platform::JobId j) {
  JobState& js = jobs_[j];
  if (js.trust < TrustParams::kViolationThreshold &&
      js.violation_round == kNever) {
    js.violation_round = round_;
    violations_metric_.inc();
    if (prov_ && prov_->enabled()) {
      prov_->event(prov_->journey_for_job(j), obs::ProvStage::kVerdict,
                   "assessor", "trust-violation", round_);
    }
  }
}

std::optional<tta::RoundId> Assessor::first_component_violation(
    platform::ComponentId c) const {
  if (c >= component_count_ || component_violation_round_[c] == kNever) {
    return std::nullopt;
  }
  return component_violation_round_[c];
}

std::optional<tta::RoundId> Assessor::first_job_violation(
    platform::JobId j) const {
  if (j >= jobs_.size() || jobs_[j].violation_round == kNever) {
    return std::nullopt;
  }
  return jobs_[j].violation_round;
}

tta::RoundId Assessor::evidence_age(platform::ComponentId c) const {
  const AgentChannel& ch = channels_.at(c);
  return round_ > ch.last_heard ? round_ - ch.last_heard : 0;
}

double Assessor::evidence_quality(platform::ComponentId c) const {
  if (!p_.hardening) return 1.0;
  const tta::RoundId age = evidence_age(c);
  if (age <= kStaleAfter) return 1.0;
  // Linear decay after the staleness threshold; floor at 0 once silence
  // reaches five thresholds.
  const double excess = static_cast<double>(age - kStaleAfter);
  return std::max(0.0, 1.0 - excess / static_cast<double>(4 * kStaleAfter));
}

double Assessor::job_evidence_quality(platform::JobId j) const {
  return evidence_quality(host_or_zero(j));
}

void Assessor::track_channel(platform::ComponentId agent,
                             const vnet::Message& m) {
  AgentChannel& ch = channels_[agent];
  ch.last_heard = std::max(ch.last_heard, round_);
  // The multiplexer assigns contiguous per-port sequence numbers to every
  // accepted message, so a jump on the symptom port is exactly the number
  // of diagnostic messages the channel lost in flight.
  if (!ch.seq_seen) {
    ch.seq_seen = true;
    ch.next_seq = m.seq + 1;
    return;
  }
  if (m.seq > ch.next_seq) {
    const std::uint32_t lost = m.seq - ch.next_seq;
    gaps_ += lost;
    gaps_metric_.inc(lost);
  }
  if (m.seq + 1 > ch.next_seq) ch.next_seq = m.seq + 1;
}

bool Assessor::dedupe_accept(const Symptom& s) {
  return seen_.insert(DedupKey{s.observer, s.type, s.subject_component,
                               s.subject_job.value_or(platform::kInvalidJob),
                               s.round});
}

void Assessor::ingest_external(const Symptom& s) {
  if (hierarchical() && !topo_->is_tester(position_, s.subject_component)) {
    // Guardian-block reports follow the same implicit addressing as the
    // wire stream: only the subject's testers account them.
    hier_filtered_metric_.inc();
    return;
  }
  if (recorder_) recorder_->record(s);
  store_.ingest(s);
  summary_.note_ingest(s);
  symptoms_metric_.inc();
  if (prov_ && prov_->enabled()) {
    prov_->event(journey_for(s), obs::ProvStage::kEvidence, "assessor",
                 to_string(s.type), s.round);
  }
  if (s.subject_component < component_trust_.size()) {
    component_trust_[s.subject_component] = std::max(
        0.0, component_trust_[s.subject_component] - p_.trust.drop);
    watch_component(s.subject_component);
    note_component_trust(s.subject_component);
  }
}

void Assessor::process(platform::JobContext& ctx) {
  round_ = ctx.round();

  // Which FRUs were implicated by symptoms ingested this dispatch, in
  // member scratch that arrives zeroed: the steady-state dispatch
  // allocates nothing, and every hit watches its FRU, so the trust pass
  // below meets and zeroes each counter it reads.
  for (const vnet::Message& m : ctx.inbox()) {
    const platform::ComponentId agent = m.sender < agent_component_.size()
                                            ? agent_component_[m.sender]
                                            : kNoComponent;
    if (agent == kNoComponent) {
      // Not a known agent: in hierarchy mode this is where verdict
      // deltas from peer assessors arrive on the dissemination vnet.
      if (hierarchical()) handle_delta(m);
      continue;
    }
    if (const auto hb = decode_heartbeat(m)) {
      if (hierarchical() && !topo_->is_tester(position_, agent)) {
        // Implicit addressing: the overlay's routing is enforced at the
        // receiver — a tester keeps channel state only for its slice.
        hier_filtered_metric_.inc();
        continue;
      }
      if (fp_ && fp_->hit(fault::FaultSite::kHeartbeatReceive)) {
        // Heartbeat dropped at the inbox: neither liveness nor the wire
        // sequence advances, so the loss surfaces later as staleness plus
        // a sequence gap — exactly like a frame lost in flight.
        continue;
      }
      if (hierarchical()) hier_accepted_metric_.inc();
      if (p_.hardening) track_channel(agent, m);
      ++heartbeats_;
      AgentChannel& ch = channels_[agent];
      ch.reported_detected = hb->symptoms_detected;
      ++ch.heartbeats;
      if (hb->symptoms_dropped > ch.reported_dropped) {
        const std::uint32_t delta = hb->symptoms_dropped - ch.reported_dropped;
        agent_drops_ += delta;
        agent_drops_metric_.inc(delta);
        ch.reported_dropped = hb->symptoms_dropped;
      }
      continue;
    }
    if (p_.hardening && !hierarchical()) track_channel(agent, m);
    const auto symptom = decode(m, agent);
    if (!symptom) continue;
    if (hierarchical()) {
      // The routing key is the subject component (job symptoms carry
      // their host there), so every tester of a FRU sees the identical
      // evidence stream about it — and nothing else.
      if (!topo_->is_tester(position_, symptom->subject_component)) {
        hier_filtered_metric_.inc();
        continue;
      }
      hier_accepted_metric_.inc();
      // Liveness only, no wire-sequence accounting: a slice subscriber
      // legitimately skips most of an agent's stream, so sequence jumps
      // carry no loss signal here (gaps never feed trust either way).
      AgentChannel& ch = channels_[agent];
      ch.last_heard = std::max(ch.last_heard, round_);
    }
    // Retransmissions arrive as duplicates of an already-ingested
    // observation key; charging them again would let the resend machinery
    // itself erode trust.
    if (p_.hardening && !dedupe_accept(*symptom)) {
      ++duplicates_;
      duplicates_metric_.inc();
      continue;
    }
    if (recorder_) recorder_->record(*symptom);
    store_.ingest(*symptom);
    summary_.note_ingest(*symptom);
    symptoms_metric_.inc();
    if (prov_ && prov_->enabled()) {
      prov_->event(journey_for(*symptom), obs::ProvStage::kEvidence,
                   "assessor", to_string(symptom->type), symptom->round);
    }
    // Trust is kept per FRU: job-level symptoms (value, gap, overflow)
    // charge the software FRU — a misconfigured job must not erode
    // confidence in the healthy board it runs on. Transport symptoms are
    // deferred: the charged side depends on the observer's spread.
    if (symptom->subject_job) {
      const platform::JobId j = *symptom->subject_job;
      if (j >= job_hits_.size()) job_hits_.resize(j + 1, 0);
      ++job_hits_[j];
      watch_job(j);
    } else if ((symptom->type == SymptomType::kSlotCrcError ||
                symptom->type == SymptomType::kSlotTimingError ||
                symptom->type == SymptomType::kSlotOmission) &&
               symptom->observer < component_count_ &&
               symptom->subject_component < component_count_) {
      transport_masks_[symptom->observer * mask_words_ +
                       symptom->subject_component / 64] |=
          std::uint64_t{1} << (symptom->subject_component % 64);
    } else if (symptom->subject_component < component_count_) {
      charge_component(symptom->subject_component, 1);
    }
  }

  // An observer flagging most of its peers at once is itself the suspect
  // (connector/EMI on its receive path): charge the observer, not the
  // blameless senders — the classifier's credibility rule, at its bar.
  const std::size_t spread_bar = summary_.feature_params().sender_spread;
  for (platform::ComponentId observer = 0; observer < component_count_;
       ++observer) {
    std::uint64_t* mask = &transport_masks_[observer * mask_words_];
    std::size_t spread = 0;
    for (std::size_t w = 0; w < mask_words_; ++w) {
      spread += static_cast<std::size_t>(std::popcount(mask[w]));
    }
    if (spread == 0) continue;
    if (spread >= spread_bar) {
      charge_component(observer, static_cast<std::uint32_t>(spread));
    } else {
      for (std::size_t w = 0; w < mask_words_; ++w) {
        for (std::uint64_t word = mask[w]; word != 0; word &= word - 1) {
          charge_component(
              static_cast<platform::ComponentId>(
                  w * 64 + static_cast<std::size_t>(std::countr_zero(word))),
              1);
        }
      }
    }
    std::fill(mask, mask + mask_words_, 0u);
  }

  // Staleness-expiry fault site: reached once per fresh->stale transition
  // of an agent channel. Firing models a watchdog glitch — the expiry
  // tick is missed and the channel reads fresh for another full window,
  // so trust keeps recovering on absent evidence.
  if (fp_ && p_.hardening) {
    for (platform::ComponentId c = 0; c < component_count_; ++c) {
      bool stale = evidence_age(c) > kStaleAfter;
      if (stale && !was_stale_[c] &&
          fp_->hit(fault::FaultSite::kStalenessExpiry)) {
        channels_[c].last_heard = round_;
        stale = false;
      }
      was_stale_[c] = stale;
    }
  }

  // Trust update: recovery for quiet FRUs, drop scaled by symptom volume.
  // "Quiet" only earns recovery while the FRU's agent channel is fresh: a
  // silent agent means *absence of evidence*, and absence of evidence must
  // freeze trust, not launder it back toward 1.0. Only watched FRUs can
  // change; one back at initial trust with no standing delta leaves the
  // watch.
  for_each_watched(watched_components_, [&](std::uint32_t id) {
    const auto c = static_cast<platform::ComponentId>(id);
    const std::uint32_t hits = component_hits_[c];
    component_hits_[c] = 0;
    if (hits == 0) {
      if (!channel_degraded(c)) {
        component_trust_[c] =
            std::min(1.0, component_trust_[c] + TrustParams::kRecovery);
      }
    } else {
      const double scale = static_cast<double>(std::min(hits, 4u));
      component_trust_[c] =
          std::max(0.0, component_trust_[c] - p_.trust.drop * scale);
      note_component_trust(c);
    }
    return component_trust_[c] != TrustParams::kInitial ||
           (hierarchical() && comp_delta_active_[c]);
  });
  for_each_watched(watched_jobs_, [&](std::uint32_t id) {
    const auto j = static_cast<platform::JobId>(id);
    std::uint32_t hits = 0;
    if (j < job_hits_.size()) std::swap(hits, job_hits_[j]);
    if (!enrolled(j)) return false;
    double& trust = jobs_[j].trust;
    if (hits == 0) {
      const platform::ComponentId host = jobs_[j].host;
      if (host == kNoComponent || !channel_degraded(host)) {
        trust = std::min(1.0, trust + TrustParams::kRecovery);
      }
    } else {
      const double scale = static_cast<double>(std::min(hits, 4u));
      trust = std::max(0.0, trust - p_.trust.drop * scale);
      note_job_trust(j);
    }
    return trust != TrustParams::kInitial || jobs_[j].delta_active;
  });

  if (hierarchical()) emit_deltas(ctx);

  if (round_ >= last_sample_ + kSamplePeriod) {
    last_sample_ = round_;
    export_staleness();
  }

  // Dedupe keys older than the window can never be duplicated again (the
  // resend buffer is far shorter); drop them to stay bounded.
  if (p_.hardening && round_ >= last_dedupe_prune_ + kDedupeWindow) {
    last_dedupe_prune_ = round_;
    const tta::RoundId horizon =
        round_ > kDedupeWindow ? round_ - kDedupeWindow : 0;
    seen_.erase_before(horizon);
  }

  summary_.fold(round_);
  summary_.note_prune(store_.prune(round_));
}

void Assessor::handle_delta(const vnet::Message& m) {
  const std::uint32_t peer = m.sender < peer_position_.size()
                                 ? peer_position_[m.sender]
                                 : kNoPeer;
  if (peer == kNoPeer) return;  // not a peer assessor either
  auto delta = decode_delta(m);
  if (!delta) return;
  // Deltas travel strictly along cube edges; anything else is a routing
  // anomaly (stale peer view, misconfiguration) and is refused so the
  // flood's termination argument stays edge-local.
  if (!topo_->are_neighbors(position_, peer)) {
    hier_rejected_metric_.inc();
    return;
  }
  if (fp_ && fp_->hit(fault::FaultSite::kStaleVerdict)) {
    // Stale-verdict delivery: the copy arrives claiming an ancient
    // emission instant. The monotonic merge below must shrug it off —
    // any cached entry is newer, and a round-0 ghost can never displace
    // a live verdict.
    delta->round = 0;
  }
  const auto seen_key = std::make_tuple(delta->origin, delta->job_level,
                                        delta->fru);
  auto [seen_it, first_time] = delta_seen_.emplace(seen_key, delta->round);
  if (!first_time) {
    if (delta->round <= seen_it->second) {
      // Re-flooded copy of an emission we already propagated (or an older
      // one): absorb silently. This is what terminates the flood.
      hier_duplicate_metric_.inc();
      return;
    }
    seen_it->second = delta->round;
  }
  hier_delta_accepted_metric_.inc();
  const DeltaKey key{delta->job_level, delta->fru};
  if (delta->clear) {
    // A clear only withdraws the *origin's own* suspicion; a verdict
    // cached from a different tester stands until that tester clears it.
    auto it = delta_cache_.find(key);
    if (it != delta_cache_.end() && it->second.origin == delta->origin) {
      delta_cache_.erase(it);
    }
  } else {
    auto [it, inserted] = delta_cache_.emplace(key, *delta);
    if (!inserted) {
      VerdictDelta& cur = it->second;
      // Latest emission wins; ties break to the lower origin position so
      // every node converges on the identical cache entry.
      if (delta->round > cur.round ||
          (delta->round == cur.round && delta->origin < cur.origin)) {
        cur = *delta;
      }
    }
  }
  if (prov_ && prov_->enabled() && !delta->job_level && !delta->clear) {
    prov_->event(prov_->journey_for_component(
                     static_cast<platform::ComponentId>(delta->fru)),
                 obs::ProvStage::kVerdict, "dissemination",
                 fault::to_string(delta->cls), round_);
  }
  // Forward exactly once per newly-seen emission, to all neighbours (the
  // budget-bounded drain excludes the edge it arrived on implicitly: the
  // sender already saw this emission and will dedupe it).
  dissem_out_.push_back(PendingDelta{*delta, /*forward=*/true});
}

void Assessor::queue_clear_delta(bool job_level, std::uint32_t fru,
                                 double trust) {
  VerdictDelta d;
  d.job_level = job_level;
  d.fru = fru;
  d.origin = position_;
  d.trust = trust;
  d.cls = fault::FaultClass::kNone;
  d.clear = true;
  d.round = round_;
  delta_seen_[std::make_tuple(position_, job_level, fru)] = round_;
  dissem_out_.push_back(PendingDelta{d, /*forward=*/false});
}

void Assessor::emit_deltas(platform::JobContext& ctx) {
  // Edge-triggered emissions: a slice FRU crossing the violation threshold
  // publishes one delta immediately; recovery above it publishes a clear.
  // A standing suspicion is re-emitted every refresh period so late
  // joiners and lossy paths converge without any retransmission protocol.
  const bool refresh =
      round_ >= last_delta_refresh_ + kDeltaRefreshPeriod;
  if (refresh) last_delta_refresh_ = round_;
  auto emit = [&](bool job_level, std::uint32_t fru, double trust) {
    VerdictDelta d;
    d.job_level = job_level;
    d.fru = fru;
    d.origin = position_;
    d.trust = trust;
    d.cls = job_level
                ? diagnose_job(static_cast<platform::JobId>(fru)).cls
                : diagnose_component(static_cast<platform::ComponentId>(fru))
                      .cls;
    d.clear = false;
    d.round = round_;
    delta_seen_[std::make_tuple(position_, job_level, fru)] = round_;
    dissem_out_.push_back(PendingDelta{d, /*forward=*/false});
  };
  // Only watched FRUs can be suspects or hold a standing delta.
  for_each_watched(watched_components_, [&](std::uint32_t id) {
    const auto c = static_cast<platform::ComponentId>(id);
    if (!topo_->is_tester(position_, c)) return true;
    const bool suspect =
        component_trust_[c] < TrustParams::kViolationThreshold;
    if (suspect && (!comp_delta_active_[c] || refresh)) {
      comp_delta_active_[c] = true;
      emit(false, c, component_trust_[c]);
    } else if (!suspect && comp_delta_active_[c]) {
      comp_delta_active_[c] = false;
      queue_clear_delta(false, c, component_trust_[c]);
    }
    return true;
  });
  for_each_watched(watched_jobs_, [&](std::uint32_t id) {
    const auto j = static_cast<platform::JobId>(id);
    if (!enrolled(j)) return true;
    JobState& js = jobs_[j];
    if (js.host == kNoComponent) return true;
    if (!topo_->is_tester(position_, js.host)) return true;
    const double trust = js.trust;
    const bool suspect = trust < TrustParams::kViolationThreshold;
    bool& active = js.delta_active;
    if (suspect && (!active || refresh)) {
      active = true;
      emit(true, j, trust);
    } else if (!suspect && active) {
      active = false;
      queue_clear_delta(true, j, trust);
    }
    return true;
  });
  // Budgeted drain: own emissions and forwards share the per-round send
  // allowance; leftovers stay queued (FIFO) for the next round.
  std::size_t sent = 0;
  while (!dissem_out_.empty() && sent < kDissemBudget) {
    const PendingDelta pd = dissem_out_.front();
    dissem_out_.pop_front();
    if (pd.forward && fp_ && fp_->hit(fault::FaultSite::kDissemForward)) {
      // Forward drop: the copy vanishes at this hop. Other cube paths
      // and the origin's periodic refresh must still converge the cache.
      continue;
    }
    const vnet::Message m = encode_delta(pd.d, round_);
    if (!ctx.send(dissem_port_, m.value, m.kind, m.aux)) {
      // Port back-pressure: requeue at the front and stop — order is
      // preserved and the budget retries next round.
      dissem_out_.push_front(pd);
      break;
    }
    ++sent;
    (pd.forward ? hier_forwarded_metric_ : hier_emitted_metric_).inc();
  }
}

const VerdictDelta* Assessor::cached_component_delta(
    platform::ComponentId c) const {
  const auto it = delta_cache_.find(DeltaKey{false, c});
  return it == delta_cache_.end() ? nullptr : &it->second;
}

const VerdictDelta* Assessor::cached_job_delta(platform::JobId j) const {
  const auto it = delta_cache_.find(DeltaKey{true, j});
  return it == delta_cache_.end() ? nullptr : &it->second;
}

void Assessor::export_staleness() {
  if (!metrics_ || !p_.hardening) return;
  for (platform::ComponentId c = 0; c < component_count_; ++c) {
    // A position never hears agents outside its tester slice; its age for
    // them is not the FRU's staleness (report() writes those rows from
    // their serving tester).
    if (hierarchical() && !topo_->is_tester(position_, c)) continue;
    auto& gauge = staleness_metrics_[c];
    if (!gauge) {
      gauge = metrics_->gauge("diag.evidence_staleness",
                              "fru=c" + std::to_string(c));
    }
    gauge->set(static_cast<double>(evidence_age(c)));
  }
}

void Assessor::reset_component_trust(platform::ComponentId c) {
  component_trust_.at(c) = TrustParams::kInitial;
  component_violation_round_[c] = kNever;
  if (hierarchical()) {
    delta_cache_.erase(DeltaKey{false, c});
    if (comp_delta_active_[c]) {
      comp_delta_active_[c] = false;
      queue_clear_delta(false, c, TrustParams::kInitial);
    }
  }
}

void Assessor::reset_job_trust(platform::JobId j) {
  JobState& js = enrol(j);
  js.trust = TrustParams::kInitial;
  js.violation_round = kNever;
  if (hierarchical()) {
    delta_cache_.erase(DeltaKey{true, j});
    if (js.delta_active) {
      js.delta_active = false;
      queue_clear_delta(true, j, TrustParams::kInitial);
    }
  }
}

void Assessor::reconcile_from(const Assessor& fresher) {
  // Per-FRU max-staleness merge: the side that heard the FRU's agent more
  // recently contributes trust and channel state. Adopted trust may be
  // lower, so every FRU is watched afterwards.
  for (platform::ComponentId c = 0; c < component_count_; ++c) {
    watch_component(c);
    if (fresher.channels_[c].last_heard >= channels_[c].last_heard) {
      channels_[c] = fresher.channels_[c];
      component_trust_[c] = fresher.component_trust_[c];
    }
    component_violation_round_[c] = std::min(
        component_violation_round_[c], fresher.component_violation_round_[c]);
  }
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const auto j = static_cast<platform::JobId>(i);
    if (!jobs_[j].enrolled) continue;
    watch_job(j);
    const platform::ComponentId host = host_or_zero(j);
    if (fresher.enrolled(j) &&
        fresher.channels_[host].last_heard >= channels_[host].last_heard) {
      jobs_[j].trust = fresher.jobs_[j].trust;
    }
  }
  // Violation instants cover every job the fresher side saw violate,
  // enrolled here or not.
  if (fresher.jobs_.size() > jobs_.size()) jobs_.resize(fresher.jobs_.size());
  for (std::size_t j = 0; j < fresher.jobs_.size(); ++j) {
    jobs_[j].violation_round = std::min(jobs_[j].violation_round,
                                        fresher.jobs_[j].violation_round);
  }
  // Both assessors subscribe to the same symptom multicast, so the side
  // that stayed alive holds (essentially) a superset of the other's
  // evidence: adopt its store wholesale when it is ahead in rounds or in
  // ingested volume. The dedupe sets are unioned so that neither side's
  // already-charged observations can be double-ingested afterwards.
  if (fresher.round_ >= round_ ||
      fresher.store_.symptoms_ingested() > store_.symptoms_ingested()) {
    store_ = fresher.store_;
    last_sample_ = fresher.last_sample_;
    summary_ = fresher.summary_;
    summary_.rebind(&store_);
  }
  seen_.merge(fresher.seen_);
}

void Assessor::count_classification(fault::FaultClass cls) const {
  if (!metrics_) return;
  auto& metric = classification_metrics_[static_cast<std::size_t>(cls)];
  if (!metric) {
    metric = metrics_->counter("diag.classifications",
                               std::string("cls=") + fault::to_string(cls));
  }
  metric->inc();
}

Diagnosis Assessor::diagnose_component(platform::ComponentId c) const {
  EvidenceSummary::ComponentFeatures f;
  summary_.component_features(c, round_, f);
  return diagnose_component(c, f);
}

Diagnosis Assessor::diagnose_component(
    platform::ComponentId c,
    const EvidenceSummary::ComponentFeatures& f) const {
  Diagnosis d = classifier_.classify(f, round_);
  count_classification(d.cls);
  if (prov_ && prov_->enabled() && d.cls != fault::FaultClass::kNone) {
    prov_->event(prov_->journey_for_component(c), obs::ProvStage::kVerdict,
                 "assessor", fault::to_string(d.cls), round_);
  }
  return d;
}

Diagnosis Assessor::diagnose_job(platform::JobId j) const {
  EvidenceSummary::ComponentFeatures f;
  summary_.component_features(host_or_zero(j), round_, f);
  return diagnose_job(j, classifier_.classify(f, round_));
}

Diagnosis Assessor::diagnose_job(platform::JobId j,
                                 const Diagnosis& host) const {
  std::size_t symptomatic_siblings = 0;
  for (const platform::JobId s : jobs_by_host_[host_or_zero(j)]) {
    if (s != j && summary_.job_features(s).value_symptomatic()) {
      ++symptomatic_siblings;
    }
  }
  Diagnosis d = classifier_.classify_job(summary_.job_features(j), host,
                                         symptomatic_siblings, round_);
  count_classification(d.cls);
  if (prov_ && prov_->enabled() && d.cls != fault::FaultClass::kNone) {
    prov_->event(prov_->journey_for_job(j), obs::ProvStage::kVerdict,
                 "assessor", fault::to_string(d.cls), round_);
  }
  return d;
}

}  // namespace decos::diag
