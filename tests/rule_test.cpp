// The classifier's rule identity: one feature value per decision rule
// drives every component rule and every job rule, each verdict names the
// rule that fired, and neither classify nor classify_job allocates — a
// verdict is a value, its text is rendered only on demand by rationale().
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <vector>

#include "diag/classifier.hpp"

namespace {
// Counting global allocator hooks for the allocation-free classify test.
// Every variant funnels through malloc/free so replaced and sanitizer
// allocators never mix.
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace decos::diag {
namespace {

using Features = EvidenceSummary::ComponentFeatures;
using JobFeatures = EvidenceSummary::JobFeatures;
static_assert(std::is_trivially_copyable_v<JobFeatures>);

constexpr tta::RoundId kNow = 5000;

/// `n` three-round episodes starting at round 100, the gap between them
/// scaled by `gap_factor` each time (below 1 = accelerating).
std::vector<Episode> episodes(int n, double gap_factor) {
  std::vector<Episode> eps;
  double gap = 400.0;
  tta::RoundId r = 100;
  for (int i = 0; i < n; ++i) {
    eps.push_back({r, r + 2, 3});
    r += static_cast<tta::RoundId>(gap);
    gap *= gap_factor;
  }
  return eps;
}

/// A dense sender run ongoing at kNow, with the given verdict totals.
Features dense_tail(VerdictTotals totals) {
  Features f;
  f.sender_eps = {{kNow - 300, kNow, 300}};
  f.totals = totals;
  return f;
}

/// `n` observer episodes, `hits` of them coinciding with proximate ones.
Features observer_side(int n, int hits) {
  Features f;
  f.observer_eps = episodes(n, 1.0);
  for (int i = 0; i < n; ++i) f.observer_hit.push_back(i < hits);
  return f;
}

TEST(ClassifierRules, EveryRuleFiresWithoutAllocating) {
  const Classifier classifier({});

  const Features guardian{.guardian_episodes = 3};
  const std::vector<std::pair<Features, Rule>> components = {
      {guardian, Rule::kGuardian},
      {dense_tail({.omission = 300, .quorum_rounds = 300}),
       Rule::kPermanentOmission},
      {dense_tail({.timing = 300, .quorum_rounds = 300}), Rule::kTiming},
      {Features{.sender_eps = episodes(8, 0.6)}, Rule::kWearout},
      {Features{.sender_eps = episodes(8, 1.0)}, Rule::kRecurrence},
      {Features{.sender_eps = episodes(1, 1.0), .alpha = 50.0}, Rule::kAlpha},
      {Features{.sender_eps = episodes(1, 1.0)},
       Rule::kIsolatedSenderTransient},
      {observer_side(1, 1), Rule::kMassiveTransient},
      {observer_side(3, 0), Rule::kConnector},
      {observer_side(1, 0), Rule::kIsolatedObserverTransient},
      {Features{}, Rule::kNoEvidence},
  };

  // Each job rule fires at its threshold; one below it, the next rule in
  // the order takes over.
  const JobFeatures value{.value_rounds = 3};
  const Diagnosis healthy_host = classifier.classify(Features{}, kNow);
  const Diagnosis faulty_host = classifier.classify(guardian, kNow);
  struct JobCase {
    JobFeatures f;
    Diagnosis host;
    std::size_t siblings;
    Rule rule;
  };
  const std::vector<JobCase> jobs = {
      {{.value_rounds = 2, .transducer_suspect_rounds = 3,
        .overflow_count = 9},
       faulty_host, 1, Rule::kJobConforms},
      {value, faulty_host, 1, Rule::kJobHostFault},
      {value, healthy_host, 1, Rule::kJobSiblings},
      {{.value_rounds = 3, .transducer_suspect_rounds = 3, .drifting = true},
       healthy_host, 0, Rule::kJobTransducerAssertion},
      {{.value_rounds = 3, .transducer_suspect_rounds = 2, .drifting = true},
       healthy_host, 0, Rule::kJobDrift},
      {value, healthy_host, 0, Rule::kJobSoftware},
      {{.value_rounds = 2, .overflow_count = 10, .last_gap = kNow},
       healthy_host, 1, Rule::kJobConfiguration},
      {{.value_rounds = 2, .overflow_count = 9,
        .last_gap = kNow - 4 * kEpisodeGap},
       healthy_host, 1, Rule::kJobCrash},
  };

  std::array<Diagnosis, 19> verdicts{};
  ASSERT_EQ(components.size() + jobs.size(), verdicts.size());
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::size_t k = 0;
  for (const auto& [f, rule] : components) {
    verdicts[k++] = classifier.classify(f, kNow);
  }
  for (const JobCase& c : jobs) {
    verdicts[k++] = classifier.classify_job(c.f, c.host, c.siblings, kNow);
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u);

  // Every rule but the disseminated verdict, each exactly once.
  k = 0;
  for (const auto& [f, rule] : components) {
    EXPECT_EQ(verdicts[k++].rule, rule) << rationale({.rule = rule});
  }
  for (const JobCase& c : jobs) {
    EXPECT_EQ(verdicts[k++].rule, c.rule) << rationale({.rule = c.rule});
  }
  // A crash whose last gap is at most 4 episode gaps old is permanent.
  EXPECT_EQ(verdicts.back().persistence, fault::Persistence::kPermanent);
  const JobFeatures older_gap{.last_gap = kNow - 4 * kEpisodeGap - 1};
  EXPECT_EQ(
      classifier.classify_job(older_gap, healthy_host, 0, kNow).persistence,
      fault::Persistence::kTransient);
}

TEST(ClassifierRules, DisseminatedRationaleNamesOriginAndRound) {
  const Diagnosis d{.cls = fault::FaultClass::kComponentInternal,
                    .confidence = 0.5,
                    .rule = Rule::kDisseminated,
                    .origin = 3,
                    .round = 1200};
  EXPECT_EQ(rationale(d), "disseminated verdict (origin position 3, round 1200)");
  EXPECT_EQ(rationale({.rule = Rule::kNoEvidence}), "no out-of-norm evidence");
}

}  // namespace
}  // namespace decos::diag
