#include "diag/evidence.hpp"

namespace decos::diag {

namespace {

/// The log of component `c`, growing `logs` to hold it.
template <class Record>
RoundLog<Record>& log_of(std::vector<RoundLog<Record>>& logs,
                         platform::ComponentId c) {
  if (c >= logs.size()) logs.resize(c + 1);
  return logs[c];
}

/// The log of component `c`, or `empty` if it was never mentioned.
template <class Record>
const RoundLog<Record>& log_of(const std::vector<RoundLog<Record>>& logs,
                               platform::ComponentId c,
                               const RoundLog<Record>& empty) {
  return c < logs.size() ? logs[c] : empty;
}

}  // namespace

const RoundLog<SubjectRound> EvidenceStore::kEmptySubject{};
const RoundLog<ObserverRound> EvidenceStore::kEmptyObserver{};
const JobEvidence EvidenceStore::kEmptyJob{};
const std::vector<tta::RoundId> EvidenceStore::kEmptyRounds{};

void EvidenceStore::ingest(const Symptom& s) {
  ++ingested_;
  switch (s.type) {
    case SymptomType::kSlotCrcError:
    case SymptomType::kSlotTimingError:
    case SymptomType::kSlotOmission: {
      // One mask bit per node of a cluster of at most 64 (tta::Cluster
      // asserts it): a symptom naming another node, which only a
      // hand-written log can carry, is no evidence about this cluster.
      if (s.observer >= kMaxComponents ||
          s.subject_component >= kMaxComponents) {
        break;
      }
      SubjectRound& sr = log_of(about_, s.subject_component)[s.round];
      sr.observers |= std::uint64_t{1} << s.observer;
      if (s.type == SymptomType::kSlotCrcError) ++sr.crc;
      if (s.type == SymptomType::kSlotTimingError) ++sr.timing;
      if (s.type == SymptomType::kSlotOmission) ++sr.omission;
      log_of(by_observer_, s.observer)[s.round].senders_reported |=
          std::uint64_t{1} << s.subject_component;
      break;
    }
    case SymptomType::kQueueOverflow: {
      if (!s.subject_job) break;
      ++jobs_[*s.subject_job].overflow_count;
      break;
    }
    case SymptomType::kValueOutOfRange: {
      if (!s.subject_job) break;
      JobEvidence& je = jobs_[*s.subject_job];
      if (!je.value_rounds.empty() && je.value_rounds.back() == s.round) {
        je.value_magnitudes.back() =
            std::max(je.value_magnitudes.back(), s.magnitude);
      } else {
        je.value_rounds.push_back(s.round);
        je.value_magnitudes.push_back(s.magnitude);
      }
      break;
    }
    case SymptomType::kMessageGap: {
      if (!s.subject_job) break;
      jobs_[*s.subject_job].gap_rounds.push_back(s.round);
      break;
    }
    case SymptomType::kTransducerSuspect: {
      if (!s.subject_job) break;
      auto& rounds = jobs_[*s.subject_job].transducer_suspect_rounds;
      if (rounds.empty() || rounds.back() < s.round) rounds.push_back(s.round);
      break;
    }
    case SymptomType::kGuardianBlock: {
      auto& rounds = guardian_blocks_[s.subject_component];
      if (rounds.empty() || rounds.back() < s.round) rounds.push_back(s.round);
      // Bound memory for pathological babble floods.
      if (rounds.size() > 10'000) {
        rounds.erase(rounds.begin(), rounds.begin() + 1'000);
      }
      break;
    }
  }
}

tta::RoundId EvidenceStore::prune(tta::RoundId now) {
  if (now <= kWindowRounds) return 0;
  const tta::RoundId cutoff = now - kWindowRounds;
  for (auto& rounds : about_) rounds.prune(cutoff);
  for (auto& rounds : by_observer_) rounds.prune(cutoff);
  // Job evidence: value/gap histories are bounded by one entry per round
  // of actual misbehaviour; trim the front beyond the window.
  const auto old = [cutoff](tta::RoundId r) { return r < cutoff; };
  for (auto& [j, je] : jobs_) {
    je.value_magnitudes.drop_front(je.value_rounds.drop_front_while(old));
    je.gap_rounds.drop_front_while(old);
    je.transducer_suspect_rounds.drop_front_while(old);
  }
  return cutoff;
}

const RoundLog<SubjectRound>& EvidenceStore::about(
    platform::ComponentId c) const {
  return log_of(about_, c, kEmptySubject);
}

const RoundLog<ObserverRound>& EvidenceStore::reported_by(
    platform::ComponentId c) const {
  return log_of(by_observer_, c, kEmptyObserver);
}

const std::vector<tta::RoundId>& EvidenceStore::guardian_blocks(
    platform::ComponentId c) const {
  auto it = guardian_blocks_.find(c);
  return it == guardian_blocks_.end() ? kEmptyRounds : it->second;
}

const JobEvidence& EvidenceStore::job(platform::JobId j) const {
  auto it = jobs_.find(j);
  return it == jobs_.end() ? kEmptyJob : it->second;
}

}  // namespace decos::diag
