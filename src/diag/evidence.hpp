// Evidence store of the diagnostic DAS.
//
// This is the "distributed state" of Section V-A, as reassembled from the
// symptom stream: for every component, who reported what about it in which
// round (the subject view), and what it reported about others (the
// observer view); for every job, its value/gap/overflow history. The
// evidence summary (diag/summary.hpp) derives the time/space/value
// features of the fault patterns (Fig. 8) from these structures; the
// classifier reads only those features.
//
// Old per-round detail is pruned beyond a window, with running totals
// retained, so multi-hour runs stay bounded in memory.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "diag/symptom.hpp"
#include "platform/types.hpp"
#include "tta/types.hpp"

namespace decos::diag {

/// Aggregate of symptoms *about* one subject component in one round.
struct SubjectRound {
  std::set<platform::ComponentId> observers;
  std::uint32_t crc = 0;
  std::uint32_t timing = 0;
  std::uint32_t omission = 0;
};

/// Aggregate of transport symptoms one component *reported* in one round.
struct ObserverRound {
  std::set<platform::ComponentId> senders_reported;
};

struct JobEvidence {
  /// Rounds with at least one value-out-of-range symptom, with the worst
  /// magnitude of the round (parallel arrays, ascending rounds).
  std::vector<tta::RoundId> value_rounds;
  std::vector<double> value_magnitudes;
  std::vector<tta::RoundId> gap_rounds;
  /// Rounds with a model-based transducer assertion from the job itself.
  std::vector<tta::RoundId> transducer_suspect_rounds;
  std::uint64_t overflow_count = 0;
};

class EvidenceStore {
 public:
  /// Rounds of per-round detail retained.
  static constexpr tta::RoundId kWindowRounds = 200'000;

  /// Ingests one decoded symptom.
  void ingest(const Symptom& s);

  /// Drops per-round detail older than `now - window`; returns that
  /// cutoff (0 while nothing is old enough).
  tta::RoundId prune(tta::RoundId now);

  // --- subject view -------------------------------------------------------
  [[nodiscard]] const std::map<tta::RoundId, SubjectRound>& about(
      platform::ComponentId c) const;

  // --- observer view --------------------------------------------------------
  [[nodiscard]] const std::map<tta::RoundId, ObserverRound>& reported_by(
      platform::ComponentId c) const;

  /// Rounds in which the guardian blocked transmissions of `c` (deduped,
  /// ascending). Star-coupler evidence for contained babbling.
  [[nodiscard]] const std::vector<tta::RoundId>& guardian_blocks(
      platform::ComponentId c) const;

  // --- job view ----------------------------------------------------------------
  [[nodiscard]] const JobEvidence& job(platform::JobId j) const;

  [[nodiscard]] std::uint64_t symptoms_ingested() const { return ingested_; }

 private:
  std::map<platform::ComponentId, std::map<tta::RoundId, SubjectRound>> about_;
  std::map<platform::ComponentId, std::map<tta::RoundId, ObserverRound>> by_observer_;
  std::map<platform::ComponentId, std::vector<tta::RoundId>> guardian_blocks_;
  std::map<platform::JobId, JobEvidence> jobs_;
  std::uint64_t ingested_ = 0;

  static const std::map<tta::RoundId, SubjectRound> kEmptySubject;
  static const std::map<tta::RoundId, ObserverRound> kEmptyObserver;
  static const JobEvidence kEmptyJob;
  static const std::vector<tta::RoundId> kEmptyRounds;
};

}  // namespace decos::diag
