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
// The transport views are flat, because every assessor rebuilds them
// from the whole symptom stream. An observer set is a 64-bit mask, one
// bit per node: tta::Cluster caps a cluster at 64 nodes, and the store
// keeps no transport symptom that names a node beyond that. Each
// component's subject view and observer view is a RoundLog, an array of
// {round, record} entries ascending by round. An ingest into the newest
// round appends or updates the back entry; a late round is found by
// binary search and inserted in place. The array therefore holds the
// same rounds, in the same order, with the same records as a round-keyed
// map would.
//
// Old per-round detail is pruned beyond a window, so multi-hour runs stay
// bounded in memory. Every pruned array, the round logs and the job
// histories alike, is a TrimmedVector: a prune advances a head index past
// the dropped rounds and compacts the array only once the dead prefix is
// as long as the live part — amortised O(1) per dropped round, and no
// allocation once the array has reached its high-water mark.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "diag/symptom.hpp"
#include "platform/types.hpp"
#include "tta/types.hpp"

namespace decos::diag {

/// Aggregate of symptoms *about* one subject component in one round.
struct SubjectRound {
  /// Observers that reported the subject, bit o for component o.
  std::uint64_t observers = 0;
  std::uint32_t crc = 0;
  std::uint32_t timing = 0;
  std::uint32_t omission = 0;

  [[nodiscard]] std::size_t observer_count() const {
    return static_cast<std::size_t>(std::popcount(observers));
  }
};

/// Aggregate of transport symptoms one component *reported* in one round.
struct ObserverRound {
  /// Senders the observer reported, bit c for component c.
  std::uint64_t senders_reported = 0;

  /// How many distinct senders the observer reported.
  [[nodiscard]] std::size_t spread() const {
    return static_cast<std::size_t>(std::popcount(senders_reported));
  }
};

/// A vector whose front is trimmed through a head index: entries before
/// the head are dead and await compaction, which happens only once the
/// dead prefix is as long as the live part. Each entry the compaction
/// moves is paid for by a dropped one, so a trim costs amortised O(1) per
/// dropped entry and allocates nothing once the vector has reached its
/// high-water mark.
template <class T>
class TrimmedVector {
 public:
  [[nodiscard]] const T* begin() const { return items_.data() + head_; }
  [[nodiscard]] const T* end() const { return items_.data() + items_.size(); }
  [[nodiscard]] std::size_t size() const { return items_.size() - head_; }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return items_[head_ + i];
  }
  [[nodiscard]] T& operator[](std::size_t i) { return items_[head_ + i]; }
  [[nodiscard]] const T& back() const { return items_.back(); }
  [[nodiscard]] T& back() { return items_.back(); }

  T& push_back(T v) { return items_.emplace_back(std::move(v)); }
  /// Inserts `v` before live entry `i`.
  T& insert(std::size_t i, T v) {
    return *items_.insert(
        items_.begin() + static_cast<std::ptrdiff_t>(head_ + i), std::move(v));
  }
  /// Drops the first `n` live entries.
  void drop_front(std::size_t n) {
    head_ += n;
    if (head_ >= size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }
  /// Drops the leading live entries for which `old` holds; returns how
  /// many.
  template <class Pred>
  std::size_t drop_front_while(Pred old) {
    std::size_t n = 0;
    while (n < size() && old((*this)[n])) ++n;
    drop_front(n);
    return n;
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

/// One component's per-round records in ascending round order, holding
/// what a std::map<RoundId, Record> would: entries are iterated as
/// `{round, record}` pairs from begin() to end().
template <class Record>
class RoundLog {
 public:
  struct Entry {
    tta::RoundId round;
    Record record;
  };

  [[nodiscard]] const Entry* begin() const { return entries_.begin(); }
  [[nodiscard]] const Entry* end() const { return entries_.end(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// First entry of a round at or after `r`.
  [[nodiscard]] const Entry* lower_bound(tta::RoundId r) const {
    return std::lower_bound(
        begin(), end(), r,
        [](const Entry& e, tta::RoundId x) { return e.round < x; });
  }
  /// The record of round `r`, or nullptr.
  [[nodiscard]] const Record* find(tta::RoundId r) const {
    const Entry* e = lower_bound(r);
    return e != end() && e->round == r ? &e->record : nullptr;
  }

  /// The record of round `r`, inserted empty in place if absent (as
  /// std::map::operator[]).
  Record& operator[](tta::RoundId r) {
    if (empty() || entries_.back().round < r) {
      return entries_.push_back(Entry{r, Record{}}).record;
    }
    if (entries_.back().round == r) return entries_.back().record;
    const auto i = static_cast<std::size_t>(lower_bound(r) - begin());
    if (entries_[i].round != r) return entries_.insert(i, {r, Record{}}).record;
    return entries_[i].record;
  }

  /// Drops the entries of rounds before `cutoff`.
  void prune(tta::RoundId cutoff) {
    entries_.drop_front_while(
        [cutoff](const Entry& e) { return e.round < cutoff; });
  }

 private:
  TrimmedVector<Entry> entries_;
};

/// A job's symptom rounds in arrival order (a late round lands at the
/// back), and the worst magnitude of each value round beside them. The
/// store trims each history's front past the window, up to its first
/// round inside it.
struct JobEvidence {
  /// Rounds with at least one value-out-of-range symptom, with the worst
  /// magnitude of the round (parallel arrays).
  TrimmedVector<tta::RoundId> value_rounds;
  TrimmedVector<double> value_magnitudes;
  TrimmedVector<tta::RoundId> gap_rounds;
  /// Rounds with a model-based transducer assertion from the job itself.
  TrimmedVector<tta::RoundId> transducer_suspect_rounds;
  std::uint64_t overflow_count = 0;
};

class EvidenceStore {
 public:
  /// Components a transport symptom may name: one bit each in a mask.
  static constexpr platform::ComponentId kMaxComponents = 64;
  /// Rounds of per-round detail retained.
  static constexpr tta::RoundId kWindowRounds = 200'000;

  /// Ingests one decoded symptom.
  void ingest(const Symptom& s);

  /// Drops per-round detail older than `now - window`; returns that
  /// cutoff (0 while nothing is old enough).
  tta::RoundId prune(tta::RoundId now);

  // --- subject view -------------------------------------------------------
  [[nodiscard]] const RoundLog<SubjectRound>& about(
      platform::ComponentId c) const;

  // --- observer view --------------------------------------------------------
  [[nodiscard]] const RoundLog<ObserverRound>& reported_by(
      platform::ComponentId c) const;

  /// Rounds in which the guardian blocked transmissions of `c` (deduped,
  /// ascending). Star-coupler evidence for contained babbling.
  [[nodiscard]] const std::vector<tta::RoundId>& guardian_blocks(
      platform::ComponentId c) const;

  // --- job view ----------------------------------------------------------------
  [[nodiscard]] const JobEvidence& job(platform::JobId j) const;

  [[nodiscard]] std::uint64_t symptoms_ingested() const { return ingested_; }

 private:
  /// Transport views, indexed by ComponentId (grown on first mention).
  std::vector<RoundLog<SubjectRound>> about_;
  std::vector<RoundLog<ObserverRound>> by_observer_;
  std::map<platform::ComponentId, std::vector<tta::RoundId>> guardian_blocks_;
  std::map<platform::JobId, JobEvidence> jobs_;
  std::uint64_t ingested_ = 0;

  static const RoundLog<SubjectRound> kEmptySubject;
  static const RoundLog<ObserverRound> kEmptyObserver;
  static const JobEvidence kEmptyJob;
  static const std::vector<tta::RoundId> kEmptyRounds;
};

}  // namespace decos::diag
