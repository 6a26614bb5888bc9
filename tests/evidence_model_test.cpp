// Model-based tests for the assessor's flat write side: the evidence
// store's round logs and observer masks against the round-keyed maps and
// observer sets they replace, its job histories against the front-erased
// vectors they replace, and the open-addressed dedupe set against a
// std::set under the assessor's own insert, prune and merge schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "diag/assessor.hpp"
#include "diag/evidence.hpp"
#include "sim/rng.hpp"

namespace decos::diag {
namespace {

using platform::ComponentId;
using tta::RoundId;

// --- round logs --------------------------------------------------------------

struct Count {
  int n = 0;
};

/// `lag` rounds before `r`, stopping at round 0.
RoundId back(RoundId r, std::int64_t lag) {
  return r - std::min(r, static_cast<RoundId>(lag));
}

/// Checks that `log` holds exactly the entries of `ref`, in order, and
/// that lower_bound/find agree with the map's at every probed round.
void expect_same(const RoundLog<Count>& log, const std::map<RoundId, int>& ref,
                 const std::vector<RoundId>& probes) {
  ASSERT_EQ(log.size(), ref.size());
  EXPECT_EQ(log.empty(), ref.empty());
  auto it = ref.begin();
  for (const auto& [r, rec] : log) {
    EXPECT_EQ(r, it->first);
    EXPECT_EQ(rec.n, it->second);
    ++it;
  }
  for (const RoundId r : probes) {
    const auto want = ref.lower_bound(r);
    const auto* got = log.lower_bound(r);
    if (want == ref.end()) {
      EXPECT_EQ(got, log.end()) << "lower_bound(" << r << ")";
    } else {
      ASSERT_NE(got, log.end()) << "lower_bound(" << r << ")";
      EXPECT_EQ(got->round, want->first);
    }
    const Count* found = log.find(r);
    const auto exact = ref.find(r);
    if (exact == ref.end()) {
      EXPECT_EQ(found, nullptr) << "find(" << r << ")";
    } else {
      ASSERT_NE(found, nullptr) << "find(" << r << ")";
      EXPECT_EQ(found->n, exact->second);
    }
  }
}

TEST(RoundLogModel, MatchesRoundKeyedMapUnderLateRoundsAndPrunes) {
  sim::Rng rng(11);
  RoundLog<Count> log;
  std::map<RoundId, int> ref;
  RoundId now = 100;
  RoundId cutoff = 0;
  for (int step = 0; step < 20'000; ++step) {
    now += static_cast<RoundId>(rng.uniform_int(0, 3));
    // Mostly the newest round or a repeat of it; some late rounds up to
    // 40 back, and some older than the last prune cutoff.
    RoundId r = now;
    const double pick = rng.uniform(0.0, 1.0);
    if (pick < 0.25) {
      r = back(now, rng.uniform_int(1, 40));
    } else if (pick < 0.28) {
      r = cutoff > 0 ? back(cutoff - 1, rng.uniform_int(0, 5)) : 0;
    }
    ++log[r].n;
    ++ref[r];
    if (rng.bernoulli(0.5)) {
      // A window that drifts forward with pauses and bursts.
      const RoundId window = static_cast<RoundId>(rng.uniform_int(20, 120));
      cutoff = std::max(cutoff, now > window ? now - window : 0);
      log.prune(cutoff);
      ref.erase(ref.begin(), ref.lower_bound(cutoff));
    }
    if (step % 97 == 0) {
      std::vector<RoundId> probes;
      for (RoundId p = now > 150 ? now - 150 : 0; p <= now + 2; ++p) {
        probes.push_back(p);
      }
      expect_same(log, ref, probes);
      if (HasFatalFailure()) return;
    }
  }
  // A prune past every round empties the log, and it refills in order.
  log.prune(now + 1);
  ref.clear();
  expect_same(log, ref, {0, now, now + 1});
  for (RoundId r : {now + 5, now + 3, now + 4, now + 5}) {
    ++log[r].n;
    ++ref[r];
  }
  expect_same(log, ref, {now + 2, now + 3, now + 4, now + 5, now + 6});
}

TEST(RoundLogModel, PruneCompactsOnlyOnceTheDeadPrefixOutgrowsTheLiveRounds) {
  // The live entries stay in place while the dead prefix is shorter than
  // them: begin() moves forward through the same array.
  RoundLog<Count> log;
  for (RoundId r = 0; r < 10; ++r) log[r].n = static_cast<int>(r);
  const auto* first = log.begin();
  log.prune(3);  // 3 dead, 7 live
  EXPECT_EQ(log.begin(), first + 3);
  EXPECT_EQ(log.begin()->round, 3u);
  log.prune(5);  // 5 dead, 5 live: compacted to the array's front
  EXPECT_EQ(log.begin(), first);
  EXPECT_EQ(log.begin()->round, 5u);
  EXPECT_EQ(log.size(), 5u);
  EXPECT_EQ(log.find(9)->n, 9);
  // One dead entry short of the live count still stays in place.
  log.prune(7);  // 2 dead, 3 live
  EXPECT_EQ(log.begin(), first + 2);
  EXPECT_EQ(log.begin()->round, 7u);
}

// --- evidence store transport views ------------------------------------------

/// The store's transport views as they were kept before they were
/// flattened: round-keyed maps of observer and sender sets.
struct MapStore {
  struct Subject {
    std::set<ComponentId> observers;
    std::uint32_t crc = 0, timing = 0, omission = 0;
  };
  std::map<ComponentId, std::map<RoundId, Subject>> about;
  std::map<ComponentId, std::map<RoundId, std::set<ComponentId>>> by_observer;

  void ingest(const Symptom& s) {
    Subject& sr = about[s.subject_component][s.round];
    sr.observers.insert(s.observer);
    if (s.type == SymptomType::kSlotCrcError) ++sr.crc;
    if (s.type == SymptomType::kSlotTimingError) ++sr.timing;
    if (s.type == SymptomType::kSlotOmission) ++sr.omission;
    by_observer[s.observer][s.round].insert(s.subject_component);
  }
  void prune(RoundId now) {
    if (now <= EvidenceStore::kWindowRounds) return;
    const RoundId cutoff = now - EvidenceStore::kWindowRounds;
    for (auto& [c, rounds] : about) {
      rounds.erase(rounds.begin(), rounds.lower_bound(cutoff));
    }
    for (auto& [c, rounds] : by_observer) {
      rounds.erase(rounds.begin(), rounds.lower_bound(cutoff));
    }
  }
};

std::uint64_t mask_of(const std::set<ComponentId>& ids) {
  std::uint64_t m = 0;
  for (const ComponentId c : ids) m |= std::uint64_t{1} << c;
  return m;
}

void expect_same(const EvidenceStore& ev, const MapStore& ref) {
  for (ComponentId c = 0; c < EvidenceStore::kMaxComponents; ++c) {
    const auto a = ref.about.find(c);
    const auto& about = ev.about(c);
    ASSERT_EQ(about.size(), a == ref.about.end() ? 0u : a->second.size())
        << "about(" << c << ")";
    if (a != ref.about.end()) {
      auto it = a->second.begin();
      for (const auto& [r, sr] : about) {
        EXPECT_EQ(r, it->first);
        EXPECT_EQ(sr.observers, mask_of(it->second.observers));
        EXPECT_EQ(sr.observer_count(), it->second.observers.size());
        EXPECT_EQ(sr.crc, it->second.crc);
        EXPECT_EQ(sr.timing, it->second.timing);
        EXPECT_EQ(sr.omission, it->second.omission);
        ++it;
      }
    }
    const auto o = ref.by_observer.find(c);
    const auto& reported = ev.reported_by(c);
    ASSERT_EQ(reported.size(),
              o == ref.by_observer.end() ? 0u : o->second.size())
        << "reported_by(" << c << ")";
    if (o != ref.by_observer.end()) {
      auto it = o->second.begin();
      for (const auto& [r, orow] : reported) {
        EXPECT_EQ(r, it->first);
        EXPECT_EQ(orow.senders_reported, mask_of(it->second));
        EXPECT_EQ(orow.spread(), it->second.size());
        ++it;
      }
    }
  }
}

TEST(EvidenceStoreModel, TransportViewsMatchMapsAcrossTheWindow) {
  sim::Rng rng(5);
  EvidenceStore ev;
  MapStore ref;
  // Start just below the window so the run crosses kWindowRounds, then
  // advance in strides that make old rounds fall out steadily.
  RoundId now = EvidenceStore::kWindowRounds - 3'000;
  const SymptomType kinds[] = {SymptomType::kSlotCrcError,
                               SymptomType::kSlotTimingError,
                               SymptomType::kSlotOmission};
  for (int step = 0; step < 1'500; ++step) {
    now += static_cast<RoundId>(rng.uniform_int(0, 600));
    const int burst = static_cast<int>(rng.uniform_int(1, 8));
    for (int i = 0; i < burst; ++i) {
      Symptom s;
      s.type = kinds[rng.uniform_int(0, 2)];
      // Few nodes so rounds repeat, with the top mask bit in play.
      const ComponentId pool[] = {0, 1, 2, 31, 32, 62, 63};
      s.observer = pool[rng.uniform_int(0, 6)];
      s.subject_component = pool[rng.uniform_int(0, 6)];
      s.round = now - static_cast<RoundId>(rng.uniform_int(0, 300));
      ev.ingest(s);
      ref.ingest(s);
    }
    ev.prune(now);
    ref.prune(now);
    if (step % 50 == 0) {
      expect_same(ev, ref);
      if (HasFatalFailure()) return;
    }
  }
  expect_same(ev, ref);
}

// --- evidence store job histories ---------------------------------------------

/// One job's histories as they were kept before the front trim went
/// through a head index: plain vectors, front-erased on every prune.
struct VectorJob {
  std::vector<RoundId> value_rounds;
  std::vector<double> value_magnitudes;
  std::vector<RoundId> gap_rounds;
  std::vector<RoundId> transducer_suspect_rounds;
  std::size_t dropped = 0;

  void ingest(const Symptom& s) {
    if (s.type == SymptomType::kValueOutOfRange) {
      if (!value_rounds.empty() && value_rounds.back() == s.round) {
        value_magnitudes.back() = std::max(value_magnitudes.back(), s.magnitude);
      } else {
        value_rounds.push_back(s.round);
        value_magnitudes.push_back(s.magnitude);
      }
    } else if (s.type == SymptomType::kMessageGap) {
      gap_rounds.push_back(s.round);
    } else if (transducer_suspect_rounds.empty() ||
               transducer_suspect_rounds.back() < s.round) {
      transducer_suspect_rounds.push_back(s.round);
    }
  }
  void prune(RoundId now) {
    if (now <= EvidenceStore::kWindowRounds) return;
    const RoundId cutoff = now - EvidenceStore::kWindowRounds;
    std::size_t drop = 0;
    while (drop < value_rounds.size() && value_rounds[drop] < cutoff) ++drop;
    dropped += drop;
    value_rounds.erase(value_rounds.begin(), value_rounds.begin() + drop);
    value_magnitudes.erase(value_magnitudes.begin(),
                           value_magnitudes.begin() + drop);
    for (auto* rounds : {&gap_rounds, &transducer_suspect_rounds}) {
      drop = 0;
      while (drop < rounds->size() && (*rounds)[drop] < cutoff) ++drop;
      dropped += drop;
      rounds->erase(rounds->begin(), rounds->begin() + drop);
    }
  }
};

template <class T>
void expect_same_history(const TrimmedVector<T>& got,
                         const std::vector<T>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(got.empty(), want.empty()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << what << "[" << i << "]";
    EXPECT_EQ(got.begin()[i], want[i]) << what << "[" << i << "]";
  }
  if (!want.empty()) EXPECT_EQ(got.back(), want.back()) << what;
}

TEST(EvidenceStoreModel, JobHistoriesMatchFrontErasedVectorsAcrossTheWindow) {
  sim::Rng rng(17);
  EvidenceStore ev;
  std::map<platform::JobId, VectorJob> ref;
  const platform::JobId jobs[] = {0, 1, 2, 7};
  const SymptomType kinds[] = {SymptomType::kValueOutOfRange,
                               SymptomType::kMessageGap,
                               SymptomType::kTransducerSuspect};
  RoundId now = EvidenceStore::kWindowRounds - 3'000;
  for (int step = 0; step < 3'000; ++step) {
    now += static_cast<RoundId>(rng.uniform_int(0, 400));
    const int burst = static_cast<int>(rng.uniform_int(1, 6));
    for (int i = 0; i < burst; ++i) {
      Symptom s;
      s.type = kinds[rng.uniform_int(0, 2)];
      s.subject_job = jobs[rng.uniform_int(0, 3)];
      // Mostly the newest round, repeated; some late rounds up to 300
      // back, which land at the back of the arrival-order histories.
      s.round = rng.bernoulli(0.6)
                    ? now
                    : now - static_cast<RoundId>(rng.uniform_int(1, 300));
      s.magnitude = rng.uniform(0.0, 10.0);
      ev.ingest(s);
      ref[*s.subject_job].ingest(s);
    }
    // A prune schedule that pauses and resumes, so a prune may drop one
    // round or many.
    if (rng.bernoulli(0.4)) {
      ev.prune(now);
      for (auto& [j, job] : ref) job.prune(now);
    }
    for (const auto& [j, want] : ref) {
      const JobEvidence& got = ev.job(j);
      expect_same_history(got.value_rounds, want.value_rounds, "value_rounds");
      expect_same_history(got.value_magnitudes, want.value_magnitudes,
                          "value_magnitudes");
      expect_same_history(got.gap_rounds, want.gap_rounds, "gap_rounds");
      expect_same_history(got.transducer_suspect_rounds,
                          want.transducer_suspect_rounds,
                          "transducer_suspect_rounds");
      if (HasFatalFailure()) return;
    }
  }
  // The run crossed the window: every job's histories were trimmed.
  for (const auto& [j, want] : ref) EXPECT_GT(want.dropped, 0u) << j;
}

TEST(EvidenceStoreModel, TopMaskBitIsComponent63) {
  EvidenceStore ev;
  Symptom s;
  s.type = SymptomType::kSlotOmission;
  s.round = 7;
  s.observer = 63;
  s.subject_component = 0;
  ev.ingest(s);
  s.subject_component = 63;
  ev.ingest(s);
  s.observer = 0;
  ev.ingest(s);
  const SubjectRound* about63 = ev.about(63).find(7);
  ASSERT_NE(about63, nullptr);
  EXPECT_EQ(about63->observers, (std::uint64_t{1} << 63) | 1u);
  EXPECT_EQ(about63->observer_count(), 2u);
  EXPECT_EQ(about63->omission, 2u);
  const ObserverRound* by63 = ev.reported_by(63).find(7);
  ASSERT_NE(by63, nullptr);
  EXPECT_EQ(by63->senders_reported, (std::uint64_t{1} << 63) | 1u);
  EXPECT_EQ(by63->spread(), 2u);
  EXPECT_TRUE(ev.about(62).empty());
  // A node beyond the mask (a hand-written log can name one) is not kept.
  s.observer = 64;
  ev.ingest(s);
  s.observer = 1;
  s.subject_component = 200;
  ev.ingest(s);
  EXPECT_TRUE(ev.reported_by(64).empty());
  EXPECT_TRUE(ev.about(200).empty());
  EXPECT_TRUE(ev.reported_by(1).empty());
  EXPECT_EQ(ev.about(63).find(7)->observers, (std::uint64_t{1} << 63) | 1u);
  EXPECT_EQ(ev.symptoms_ingested(), 5u);
}

// --- dedupe set --------------------------------------------------------------

using KeyTuple = std::tuple<ComponentId, SymptomType, ComponentId,
                            platform::JobId, RoundId>;

KeyTuple tuple_of(const DedupKey& k) {
  return {k.observer, k.type, k.subj_c, k.subj_j, k.round};
}

/// A key from a small space, so that repeats are common.
DedupKey random_key(sim::Rng& rng, RoundId round) {
  const ComponentId observers[] = {0, 1, 5, 62, 63};
  DedupKey k{};
  k.observer = observers[rng.uniform_int(0, 4)];
  k.type = static_cast<SymptomType>(rng.uniform_int(1, 8));
  k.subj_c = static_cast<ComponentId>(rng.uniform_int(0, 255));
  k.subj_j = rng.bernoulli(0.5)
                 ? platform::kInvalidJob
                 : static_cast<platform::JobId>(rng.uniform_int(0, 3));
  k.round = round;
  return k;
}

/// One replica's dedupe state beside its reference, pruned on the
/// assessor's schedule.
struct Replica {
  DedupeSet set;
  std::set<KeyTuple> ref;
  RoundId last_prune = 0;
  std::size_t peak = 0;

  void insert(const DedupKey& k) {
    EXPECT_EQ(set.insert(k), ref.insert(tuple_of(k)).second);
    // Never fuller than 3/4.
    EXPECT_LE(4 * set.size(), 3 * set.capacity());
    peak = std::max(peak, ref.size());
  }
  void maybe_prune(RoundId now) {
    if (now < last_prune + Assessor::kDedupeWindow) return;
    last_prune = now;
    const RoundId horizon =
        now > Assessor::kDedupeWindow ? now - Assessor::kDedupeWindow : 0;
    set.erase_before(horizon);
    std::erase_if(ref, [horizon](const KeyTuple& k) {
      return std::get<4>(k) < horizon;
    });
  }
  void check(sim::Rng& rng, RoundId now) {
    ASSERT_EQ(set.size(), ref.size());
    // Never more bytes than a tree of 64-byte nodes would take at the
    // peak key count (16 slots at the least).
    EXPECT_LE(set.capacity() * 16, std::max<std::size_t>(16 * 16, 64 * peak));
    for (const KeyTuple& t : ref) {
      const auto& [o, ty, c, j, r] = t;
      EXPECT_TRUE(set.contains(DedupKey{o, ty, c, j, r}));
    }
    for (int i = 0; i < 200; ++i) {
      const DedupKey k = random_key(rng, back(now, rng.uniform_int(0, 1'500)));
      EXPECT_EQ(set.contains(k), ref.count(tuple_of(k)) == 1);
    }
  }
};

TEST(DedupeSetModel, MatchesStdSetUnderInsertsPrunesAndMerges) {
  sim::Rng rng(3);
  // Two assessors on one lossy symptom multicast: each misses some
  // keys, and retransmissions repeat them.
  Replica a, b;
  for (RoundId now = 1; now <= 6'000; ++now) {
    const int n = static_cast<int>(rng.uniform_int(0, 6));
    for (int i = 0; i < n; ++i) {
      RoundId r = back(now, rng.uniform_int(0, 40));
      // Sometimes a key older than the horizon arrives after a prune:
      // it is a member again until the next prune drops it.
      if (rng.bernoulli(0.02) && a.last_prune > Assessor::kDedupeWindow) {
        r = a.last_prune - Assessor::kDedupeWindow -
            static_cast<RoundId>(rng.uniform_int(1, 100));
      }
      const DedupKey k = random_key(rng, r);
      if (!rng.bernoulli(0.1)) a.insert(k);
      if (!rng.bernoulli(0.1)) b.insert(k);
    }
    a.maybe_prune(now);
    b.maybe_prune(now);
    if (now % 1'000 == 0) {
      // Failback: the reconciled side unions the other's keys.
      a.set.merge(b.set);
      a.ref.insert(b.ref.begin(), b.ref.end());
      a.peak = std::max(a.peak, a.ref.size());
    }
    if (now % 250 == 0) {
      a.check(rng, now);
      b.check(rng, now);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(DedupeSetModel, EmptySetAndFullPrune) {
  DedupeSet s;
  const DedupKey k{63, SymptomType::kSlotCrcError, 63, platform::kInvalidJob,
                   9};
  EXPECT_FALSE(s.contains(k));
  s.erase_before(100);
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.capacity(), 0u);
  DedupeSet other;
  s.merge(other);
  EXPECT_EQ(s.capacity(), 0u);
  EXPECT_TRUE(s.insert(k));
  EXPECT_FALSE(s.insert(k));
  EXPECT_TRUE(s.contains(k));
  DedupKey same_but_observer = k;
  same_but_observer.observer = 62;
  EXPECT_FALSE(s.contains(same_but_observer));
  s.erase_before(9);
  EXPECT_TRUE(s.contains(k));
  s.erase_before(10);
  EXPECT_FALSE(s.contains(k));
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.insert(k));
}

}  // namespace
}  // namespace decos::diag
