// Tests for the diagnostic subsystem: symptom wire codec, episode
// grouping, evidence store, and — the heart of the reproduction — the
// end-to-end classification of every fault class of the maintenance-
// oriented model on the Fig. 10 system: inject, run, diagnose, compare
// with ground truth. The assessor's per-job state is also driven
// directly, one hand-built inbox per round.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "diag/assessor.hpp"
#include "diag/classifier.hpp"
#include "diag/evidence.hpp"
#include "diag/service.hpp"
#include "diag/symptom.hpp"
#include "platform/job.hpp"
#include "scenario/fig10.hpp"

namespace decos::diag {
namespace {

// --- symptom codec ---------------------------------------------------------------

TEST(SymptomCodec, RoundTripsAllFields) {
  Symptom s;
  s.type = SymptomType::kSlotTimingError;
  s.observer = 3;
  s.subject_component = 2;
  s.subject_job = 17;
  s.round = 1000;
  s.magnitude = 42.5;
  const vnet::Message m = encode(s, 1004);  // flushed 4 rounds later
  vnet::Message wire = m;
  wire.sent_round = 1004;  // what the mux would stamp
  const auto back = decode(wire, 3);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, s.type);
  EXPECT_EQ(back->observer, 3u);
  EXPECT_EQ(back->subject_component, 2u);
  ASSERT_TRUE(back->subject_job.has_value());
  EXPECT_EQ(*back->subject_job, 17);
  EXPECT_EQ(back->round, 1000u);  // age recovered
  EXPECT_DOUBLE_EQ(back->magnitude, 42.5);
}

TEST(SymptomCodec, NoJobMeansNullopt) {
  Symptom s;
  s.type = SymptomType::kSlotOmission;
  s.subject_component = 1;
  s.round = 5;
  vnet::Message m = encode(s, 5);
  m.sent_round = 5;
  const auto back = decode(m, 0);
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->subject_job.has_value());
}

TEST(SymptomCodec, NonSymptomKindRejected) {
  vnet::Message m;
  m.kind = 0;
  EXPECT_FALSE(decode(m, 0).has_value());
  m.kind = 99;
  EXPECT_FALSE(decode(m, 0).has_value());
}

// --- episode grouping -------------------------------------------------------------

TEST(Episodes, GroupsByGap) {
  const std::vector<tta::RoundId> rounds{10, 11, 12, 50, 51, 200};
  const auto eps = episodes_of(rounds, 25);
  ASSERT_EQ(eps.size(), 3u);
  EXPECT_EQ(eps[0].first, 10u);
  EXPECT_EQ(eps[0].last, 12u);
  EXPECT_EQ(eps[0].rounds, 3u);
  EXPECT_EQ(eps[1].first, 50u);
  EXPECT_EQ(eps[2].first, 200u);
}

TEST(Episodes, EmptyInput) {
  EXPECT_TRUE(episodes_of({}, 10).empty());
}

TEST(Episodes, SingleRound) {
  const auto eps = episodes_of({7}, 10);
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].rounds, 1u);
}

// --- evidence store --------------------------------------------------------------

TEST(EvidenceStore, IngestsTransportSymptoms) {
  EvidenceStore ev;
  Symptom s;
  s.type = SymptomType::kSlotCrcError;
  s.observer = 0;
  s.subject_component = 2;
  s.round = 10;
  ev.ingest(s);
  s.observer = 1;
  ev.ingest(s);
  const auto& about = ev.about(2);
  ASSERT_EQ(about.size(), 1u);
  ASSERT_NE(about.find(10), nullptr);
  EXPECT_EQ(about.find(10)->observer_count(), 2u);
  EXPECT_EQ(about.find(10)->crc, 2u);
  ASSERT_NE(ev.reported_by(0).find(10), nullptr);
  EXPECT_EQ(ev.reported_by(0).find(10)->spread(), 1u);
}

TEST(EvidenceStore, IngestsJobSymptoms) {
  EvidenceStore ev;
  Symptom s;
  s.type = SymptomType::kValueOutOfRange;
  s.observer = 1;
  s.subject_component = 1;
  s.subject_job = 4;
  s.round = 20;
  s.magnitude = 3.0;
  ev.ingest(s);
  s.magnitude = 5.0;  // same round: keep worst
  ev.ingest(s);
  s.round = 21;
  s.magnitude = 1.0;
  ev.ingest(s);
  const auto& je = ev.job(4);
  ASSERT_EQ(je.value_rounds.size(), 2u);
  EXPECT_DOUBLE_EQ(je.value_magnitudes[0], 5.0);
  EXPECT_DOUBLE_EQ(je.value_magnitudes[1], 1.0);
}

TEST(EvidenceStore, PruneDropsOldDetailKeepsTotals) {
  EvidenceStore ev;
  Symptom s;
  s.type = SymptomType::kSlotCrcError;
  s.subject_component = 1;
  for (tta::RoundId r = 0; r < 50; ++r) {
    s.round = r;
    s.observer = 0;
    ev.ingest(s);
    s.observer = 2;
    ev.ingest(s);
  }
  EXPECT_EQ(ev.about(1).size(), 50u);
  ev.prune(EvidenceStore::kWindowRounds + 500);
  EXPECT_TRUE(ev.about(1).empty());
}

// --- assessor per-job state ------------------------------------------------------

// Agent job reporting for component c: kAgentBase + c.
constexpr platform::JobId kAgentBase = 800;

// Runs an Assessor one round at a time over a hand-built inbox and keeps
// what it sends (verdict deltas in hierarchy mode).
struct AssessorHarness {
  platform::Job job{platform::Job::Params{.id = 900},
                    [](platform::JobContext&) {}, sim::Rng(1)};
  std::vector<vnet::Message> sent;

  void round(Assessor& a, tta::RoundId r,
             const std::vector<vnet::Message>& inbox) {
    auto send = [&](platform::PortId port, double value, std::uint8_t kind,
                    std::uint32_t aux) {
      vnet::Message m;
      m.port = port;
      m.value = value;
      m.kind = kind;
      m.aux = aux;
      m.sent_round = r;
      sent.push_back(m);
      return true;
    };
    platform::JobContext ctx(job, r, sim::SimTime{0}, inbox, send);
    a.process(ctx);
  }

  [[nodiscard]] std::vector<std::uint32_t> job_delta_frus() const {
    std::vector<std::uint32_t> frus;
    for (const vnet::Message& m : sent) {
      const auto d = decode_delta(m);
      if (d && d->job_level && !d->clear) frus.push_back(d->fru);
    }
    return frus;
  }
};

// A value-out-of-range symptom about job `j`, from its host's agent.
vnet::Message job_symptom(platform::JobId j, platform::ComponentId host,
                          tta::RoundId r) {
  Symptom s;
  s.type = SymptomType::kValueOutOfRange;
  s.observer = host;
  s.subject_component = host;
  s.subject_job = j;
  s.round = r;
  s.magnitude = 1.0;
  vnet::Message m = encode(s, r);
  m.sent_round = r;
  m.sender = static_cast<platform::JobId>(kAgentBase + host);
  return m;
}

Assessor make_assessor(const Assessor::Params& p, std::uint32_t job_count) {
  return Assessor(p, fault::SpatialLayout::linear(4), 4, job_count);
}

void register_agents(Assessor& a) {
  for (platform::ComponentId c = 0; c < 4; ++c) {
    a.register_agent(static_cast<platform::JobId>(kAgentBase + c), c);
  }
}

TEST(AssessorJobState, OutOfOrderRegistrationKeepsAscendingJobOrder) {
  Assessor::Params p;
  p.trust.drop = 0.2;  // one symptomatic round crosses the 0.9 threshold
  Assessor a = make_assessor(p, /*job_count=*/3);
  register_agents(a);
  // Non-contiguous ids, registered out of order, one past job_count.
  a.register_subject_job(9, 3);
  a.register_subject_job(2, 1);
  a.register_subject_job(5, 2);
  a.enable_hierarchy(HierarchyTopology({0}, 4), 0, /*dissem_port=*/7);

  AssessorHarness d;
  d.round(a, 1, {job_symptom(9, 3, 1), job_symptom(2, 1, 1),
                 job_symptom(5, 2, 1)});
  for (const platform::JobId j : {2, 5, 9}) {
    EXPECT_DOUBLE_EQ(a.job_trust(j), 0.8) << "job " << j;
    EXPECT_EQ(a.first_job_violation(j), std::optional<tta::RoundId>(1));
  }
  // Suspicions are emitted in ascending JobId order, whatever the
  // registration order.
  EXPECT_EQ(d.job_delta_frus(), (std::vector<std::uint32_t>{2, 5, 9}));

  // The periodic refresh re-emits the standing suspicions in the same
  // order; healthy rounds in between emit nothing about jobs.
  d.sent.clear();
  for (tta::RoundId r = 2; r <= 1 + Assessor::kDeltaRefreshPeriod; ++r) {
    d.round(a, r, {});
  }
  EXPECT_EQ(d.job_delta_frus(), (std::vector<std::uint32_t>{2, 5, 9}));
}

TEST(AssessorJobState, UnregisteredJobReadsFullTrust) {
  Assessor::Params p;
  p.trust.drop = 0.3;
  Assessor a = make_assessor(p, /*job_count=*/3);
  register_agents(a);
  a.register_subject_job(1, 0);
  AssessorHarness d;
  d.round(a, 1, {job_symptom(1, 0, 1)});
  EXPECT_DOUBLE_EQ(a.job_trust(1), 0.7);
  EXPECT_DOUBLE_EQ(a.job_trust(0), 1.0);      // inside job_count
  EXPECT_DOUBLE_EQ(a.job_trust(2), 1.0);
  EXPECT_DOUBLE_EQ(a.job_trust(40000), 1.0);  // far past it
  EXPECT_FALSE(a.first_job_violation(40000).has_value());
}

TEST(AssessorJobState, ResetEnrolsNeverRegisteredJob) {
  Assessor::Params p;
  p.trust.drop = 0.5;
  Assessor a = make_assessor(p, /*job_count=*/3);
  register_agents(a);
  EXPECT_DOUBLE_EQ(a.job_trust(7), 1.0);
  a.reset_job_trust(7);
  EXPECT_DOUBLE_EQ(a.job_trust(7), TrustParams::kInitial);
  // Enrolled without a host: one symptom charges it, then it recovers on
  // every round (no agent channel can be stale for it) and classifies
  // against component 0.
  AssessorHarness d;
  d.round(a, 1, {job_symptom(7, 0, 1)});
  EXPECT_DOUBLE_EQ(a.job_trust(7), 0.5);
  d.round(a, 2, {});
  EXPECT_DOUBLE_EQ(a.job_trust(7), 0.5 + TrustParams::kRecovery);
  d.round(a, 3, {});
  EXPECT_DOUBLE_EQ(a.job_trust(7), 0.5 + 2 * TrustParams::kRecovery);
  EXPECT_EQ(a.diagnose_job(7).cls, fault::FaultClass::kNone);
  EXPECT_DOUBLE_EQ(a.job_evidence_quality(7), a.evidence_quality(0));
}

TEST(AssessorJobState, ReconcileAcrossDifferentSubjectSets) {
  Assessor::Params p;
  p.trust.drop = 0.2;
  Assessor a = make_assessor(p, /*job_count=*/5);
  Assessor b = make_assessor(p, /*job_count=*/5);
  register_agents(a);
  register_agents(b);
  a.register_subject_job(1, 1);
  a.register_subject_job(3, 2);
  b.register_subject_job(3, 2);
  b.register_subject_job(4, 3);

  AssessorHarness d;
  d.round(a, 1, {});
  d.round(b, 1, {job_symptom(3, 2, 1), job_symptom(4, 3, 1)});
  ASSERT_DOUBLE_EQ(b.job_trust(3), 0.8);

  // b heard job 3's host more recently: a adopts b's trust for the job
  // both assess, keeps its own for job 1, and does not enrol job 4.
  a.reconcile_from(b);
  EXPECT_DOUBLE_EQ(a.job_trust(3), 0.8);
  EXPECT_DOUBLE_EQ(a.job_trust(1), 1.0);
  EXPECT_DOUBLE_EQ(a.job_trust(4), 1.0);
  // Violation instants are adopted for every job, enrolled here or not.
  EXPECT_EQ(a.first_job_violation(3), std::optional<tta::RoundId>(1));
  EXPECT_EQ(a.first_job_violation(4), std::optional<tta::RoundId>(1));
  EXPECT_FALSE(a.first_job_violation(1).has_value());

  // The other way round, b's fresher channel wins and its own trust for
  // job 3 stands; job 4, unknown to a, is untouched.
  Assessor c = make_assessor(p, /*job_count=*/5);
  register_agents(c);
  c.register_subject_job(3, 2);
  b.reconcile_from(c);
  EXPECT_DOUBLE_EQ(b.job_trust(3), 0.8);
  EXPECT_DOUBLE_EQ(b.job_trust(4), 0.8);
}

TEST(AssessorJobState, ReconcileAdoptsViolationsPastTheReceiversJobs) {
  Assessor::Params p;
  p.trust.drop = 0.2;
  Assessor a = make_assessor(p, /*job_count=*/2);
  Assessor b = make_assessor(p, /*job_count=*/2);
  register_agents(a);
  register_agents(b);
  b.register_subject_job(9, 3);
  AssessorHarness d;
  d.round(b, 4, {job_symptom(9, 3, 4)});
  d.round(b, 5, {job_symptom(9, 3, 5)});
  ASSERT_EQ(b.first_job_violation(9), std::optional<tta::RoundId>(4));

  // The earlier instant wins, on either side.
  Assessor c = make_assessor(p, /*job_count=*/2);
  register_agents(c);
  c.register_subject_job(9, 3);
  d.round(c, 2, {job_symptom(9, 3, 2)});
  a.reconcile_from(b);
  EXPECT_EQ(a.first_job_violation(9), std::optional<tta::RoundId>(4));
  EXPECT_DOUBLE_EQ(a.job_trust(9), 1.0);  // not enrolled by the merge
  a.reconcile_from(c);
  EXPECT_EQ(a.first_job_violation(9), std::optional<tta::RoundId>(2));
  a.reconcile_from(b);
  EXPECT_EQ(a.first_job_violation(9), std::optional<tta::RoundId>(2));
  b.reconcile_from(a);
  EXPECT_EQ(b.first_job_violation(9), std::optional<tta::RoundId>(2));
  EXPECT_FALSE(a.first_job_violation(40000).has_value());
}

TEST(AssessorJobState, ResetClearsTheViolationInstant) {
  Assessor::Params p;
  p.trust.drop = 0.2;
  Assessor a = make_assessor(p, /*job_count=*/3);
  register_agents(a);
  a.register_subject_job(1, 2);
  AssessorHarness d;
  d.round(a, 1, {job_symptom(1, 2, 1)});
  ASSERT_EQ(a.first_job_violation(1), std::optional<tta::RoundId>(1));
  a.reset_job_trust(1);
  EXPECT_FALSE(a.first_job_violation(1).has_value());

  Symptom block;
  block.type = SymptomType::kGuardianBlock;
  block.observer = 2;
  block.subject_component = 2;
  block.round = 1;
  a.ingest_external(block);
  ASSERT_EQ(a.first_component_violation(2), std::optional<tta::RoundId>(1));
  a.reset_component_trust(2);
  EXPECT_FALSE(a.first_component_violation(2).has_value());
}

TEST(AssessorJobState, SymptomaticSiblingImplicatesTheHost) {
  Assessor a = make_assessor({}, /*job_count=*/4);
  register_agents(a);
  a.register_subject_job(1, 2);
  a.register_subject_job(2, 2);
  a.register_subject_job(3, 1);
  AssessorHarness d;
  for (tta::RoundId r = 1; r <= EvidenceSummary::kMinValueRounds; ++r) {
    d.round(a, r,
            {job_symptom(1, 2, r), job_symptom(2, 2, r), job_symptom(3, 1, r)});
  }
  // Jobs 1 and 2 share host 2; job 3 misbehaves alone on host 1.
  EXPECT_EQ(a.diagnose_job(1).rule, Rule::kJobSiblings);
  EXPECT_EQ(a.diagnose_job(2).rule, Rule::kJobSiblings);
  EXPECT_NE(a.diagnose_job(3).rule, Rule::kJobSiblings);
}

TEST(AssessorJobState, DeltasArriveOnlyFromRegisteredPeers) {
  Assessor a = make_assessor({}, /*job_count=*/1);
  register_agents(a);
  a.enable_hierarchy(HierarchyTopology({0, 1}, 4), 1, /*dissem_port=*/7);
  a.register_peer(/*assessor_job=*/700, /*position=*/0);
  obs::Registry registry;
  a.bind_hierarchy_metrics(registry);
  auto delta_from = [](platform::JobId sender, std::uint32_t fru) {
    VerdictDelta v;
    v.fru = fru;
    v.trust = 0.3;
    v.cls = fault::FaultClass::kComponentInternal;
    v.round = 5;
    vnet::Message m = encode_delta(v, 5);
    m.sender = sender;
    return m;
  };
  AssessorHarness d;
  d.round(a, 5, {delta_from(700, 2), delta_from(701, 3)});
  ASSERT_NE(a.cached_component_delta(2), nullptr);
  EXPECT_EQ(a.cached_component_delta(2)->origin, 0u);
  EXPECT_EQ(a.cached_component_delta(3), nullptr);
  // The stranger's message is not a peer's delta at all, so no cube-edge
  // check rejects it.
  const HierarchyStats stats = HierarchyStats::from(registry.snapshot());
  EXPECT_EQ(stats.deltas_accepted, 1u);
  EXPECT_EQ(stats.deltas_rejected, 0u);
}

// --- assessor watch: every trust drop recovers to exactly the initial trust ------
//
// The trust and emission passes visit only watched FRUs, so each writer
// that lowers trust must watch its FRU, or the FRU would never recover
// (nor be suspected, nor have its suspicion cleared). Each case lowers
// trust one way, then runs quiet rounds: trust must come back to exactly
// kInitial and, in hierarchy mode, the suspicion must end in one clear.

// A transport symptom: `observer` saw a CRC error in `subject`'s slot.
vnet::Message crc_symptom(platform::ComponentId observer,
                          platform::ComponentId subject, tta::RoundId r) {
  Symptom s;
  s.type = SymptomType::kSlotCrcError;
  s.observer = observer;
  s.subject_component = subject;
  s.round = r;
  s.magnitude = 1.0;
  vnet::Message m = encode(s, r);
  m.sent_round = r;
  m.sender = static_cast<platform::JobId>(kAgentBase + observer);
  return m;
}

class AssessorWatch : public ::testing::TestWithParam<bool> {
 protected:
  // Hardening off: every agent channel reads fresh, so quiet rounds
  // recover trust without heartbeats.
  static Assessor::Params params() {
    Assessor::Params p;
    p.trust.drop = 0.2;
    p.hardening = false;
    return p;
  }

  void setup(Assessor& a) {
    register_agents(a);
    a.register_subject_job(2, 1);
    if (GetParam()) {
      a.enable_hierarchy(HierarchyTopology({0}, 4), 0, /*dissem_port=*/7);
    }
  }

  // Quiet rounds (from, to], then the recovery checks on one FRU.
  void expect_recovers(Assessor& a, tta::RoundId from, bool job_level,
                       std::uint32_t fru) {
    for (tta::RoundId r = from + 1; r <= from + 500; ++r) d.round(a, r, {});
    const double trust = job_level
                             ? a.job_trust(static_cast<platform::JobId>(fru))
                             : a.component_trust(
                                   static_cast<platform::ComponentId>(fru));
    EXPECT_EQ(trust, TrustParams::kInitial);
    if (!GetParam()) return;
    std::size_t suspicions = 0;
    std::size_t clears = 0;
    bool last_clear = false;
    for (const vnet::Message& m : d.sent) {
      const auto delta = decode_delta(m);
      if (!delta || delta->job_level != job_level || delta->fru != fru) {
        continue;
      }
      (delta->clear ? clears : suspicions) += 1;
      last_clear = delta->clear;
    }
    EXPECT_GE(suspicions, 1u);
    EXPECT_EQ(clears, 1u);
    EXPECT_TRUE(last_clear);
  }

  AssessorHarness d;
};

TEST_P(AssessorWatch, JobHitRecovers) {
  Assessor a = make_assessor(params(), /*job_count=*/4);
  setup(a);
  d.round(a, 1, {job_symptom(2, 1, 1)});
  ASSERT_DOUBLE_EQ(a.job_trust(2), 0.8);
  expect_recovers(a, 1, /*job_level=*/true, 2);
}

TEST_P(AssessorWatch, ComponentHitRecovers) {
  Assessor a = make_assessor(params(), /*job_count=*/4);
  setup(a);
  // One sender flagged by one observer, below the spread bar: the sender
  // is charged.
  d.round(a, 1, {crc_symptom(0, 3, 1)});
  ASSERT_DOUBLE_EQ(a.component_trust(3), 0.8);
  EXPECT_EQ(a.component_trust(0), TrustParams::kInitial);
  expect_recovers(a, 1, /*job_level=*/false, 3);
}

TEST_P(AssessorWatch, SpreadChargeRecovers) {
  Assessor a = make_assessor(params(), /*job_count=*/4);
  setup(a);
  // One observer flags two of its three peers at once (the bar on four
  // components): the observer is charged, once per flagged sender.
  ASSERT_EQ(a.summary().feature_params().sender_spread, 2u);
  d.round(a, 1, {crc_symptom(0, 2, 1), crc_symptom(0, 3, 1)});
  ASSERT_DOUBLE_EQ(a.component_trust(0), 0.6);
  EXPECT_EQ(a.component_trust(2), TrustParams::kInitial);
  EXPECT_EQ(a.component_trust(3), TrustParams::kInitial);
  expect_recovers(a, 1, /*job_level=*/false, 0);
}

TEST_P(AssessorWatch, GuardianBlockRecovers) {
  Assessor a = make_assessor(params(), /*job_count=*/4);
  setup(a);
  d.round(a, 1, {});
  Symptom block;
  block.type = SymptomType::kGuardianBlock;
  block.observer = 1;
  block.subject_component = 1;
  block.round = 1;
  a.ingest_external(block);
  ASSERT_DOUBLE_EQ(a.component_trust(1), 0.8);
  expect_recovers(a, 1, /*job_level=*/false, 1);
}

TEST_P(AssessorWatch, ReconciledTrustRecovers) {
  Assessor a = make_assessor(params(), /*job_count=*/4);
  Assessor b = make_assessor(params(), /*job_count=*/4);
  setup(a);
  setup(b);
  AssessorHarness other;
  d.round(a, 1, {});
  other.round(b, 1, {job_symptom(2, 1, 1), crc_symptom(0, 3, 1)});
  a.reconcile_from(b);
  ASSERT_DOUBLE_EQ(a.job_trust(2), 0.8);
  ASSERT_DOUBLE_EQ(a.component_trust(3), 0.8);
  expect_recovers(a, 1, /*job_level=*/true, 2);
  expect_recovers(a, 501, /*job_level=*/false, 3);
}

INSTANTIATE_TEST_SUITE_P(Modes, AssessorWatch, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Hierarchy" : "Flat";
                         });

// --- agent LIF monitor ------------------------------------------------------------

// A five-node system with one spec'd application port and one spec'd
// port on the diagnostic vnet, both owned by jobs on component 0. Each
// job sends `value` on its port up to (not including) round `stop`.
struct AgentRig {
  sim::Simulator simulator{31};
  platform::System sys{simulator, [] {
                         platform::System::Params sp;
                         sp.cluster.node_count = 5;
                         return sp;
                       }()};
  platform::JobId app_job = 0;
  platform::JobId diag_job = 0;
  std::unique_ptr<DiagnosticService> service;

  AgentRig(double value, tta::RoundId stop) {
    const auto das =
        sys.add_das("app", platform::Criticality::kNonSafetyCritical);
    const auto vn = sys.add_vnet("app", 4, 8);
    using PortPair = std::pair<platform::PortId, platform::PortId>;
    auto ports = std::make_shared<PortPair>();
    platform::Job& app = sys.add_job(
        das, "app", 0, [ports, value, stop](platform::JobContext& ctx) {
          if (ctx.round() < stop) ctx.send(ports->first, value);
        });
    platform::Job& diag = sys.add_job(
        das, "diag-user", 0, [ports, value, stop](platform::JobContext& ctx) {
          if (ctx.round() < stop) ctx.send(ports->second, value);
        });
    platform::Job& dst =
        sys.add_job(das, "dst", 1, [](platform::JobContext&) {});
    app_job = app.id();
    diag_job = diag.id();
    ports->first = sys.add_port(app_job, "out", vn, {dst.id()});
    ports->second = sys.add_port(diag_job, "diag-out",
                                 platform::kDiagnosticVnet, {dst.id()});
    SpecTable specs;
    for (const platform::PortId p : {ports->first, ports->second}) {
      specs.set(p, PortSpec{.min_value = -5, .max_value = 5, .period_rounds = 1,
                            .gap_tolerance_periods = 2});
    }
    DiagnosticService::Params dp;
    dp.assessor_host = 3;
    service = std::make_unique<DiagnosticService>(
        sys, std::move(specs), fault::SpatialLayout::linear(5), dp);
    sys.finalize();
    sys.start();
    simulator.run_until(sim::SimTime{0} + sim::milliseconds(400));
  }

  [[nodiscard]] const JobEvidence& evidence(platform::JobId j) const {
    return service->assessor().evidence().job(j);
  }
};

TEST(AgentSpecTable, OutOfRangeValueRaisesValueSymptom) {
  const AgentRig rig(/*value=*/9.0, /*stop=*/1'000'000);
  EXPECT_FALSE(rig.evidence(rig.app_job).value_rounds.empty());
  EXPECT_TRUE(rig.evidence(rig.app_job).gap_rounds.empty());
  const AgentRig healthy(/*value=*/1.0, /*stop=*/1'000'000);
  EXPECT_TRUE(healthy.evidence(healthy.app_job).value_rounds.empty());
  EXPECT_TRUE(healthy.evidence(healthy.app_job).gap_rounds.empty());
}

TEST(AgentSpecTable, SilentPeriodicPortRaisesGapSymptom) {
  const AgentRig rig(/*value=*/1.0, /*stop=*/20);
  EXPECT_TRUE(rig.evidence(rig.app_job).value_rounds.empty());
  EXPECT_FALSE(rig.evidence(rig.app_job).gap_rounds.empty());
}

TEST(AgentSpecTable, DiagnosticVnetPortIsValueCheckedButNeverGapChecked) {
  const AgentRig rig(/*value=*/9.0, /*stop=*/20);
  EXPECT_FALSE(rig.evidence(rig.diag_job).value_rounds.empty());
  EXPECT_TRUE(rig.evidence(rig.diag_job).gap_rounds.empty());
  // The application port, silent as long, does raise gaps.
  EXPECT_FALSE(rig.evidence(rig.app_job).gap_rounds.empty());
}

// --- end-to-end classification -----------------------------------------------------
//
// Each test injects one archetype into the Fig. 10 system, runs a few
// simulated seconds, and requires the diagnostic DAS to classify the
// affected FRU correctly — and, just as importantly, to leave the healthy
// FRUs alone.

sim::SimTime ms(std::int64_t v) { return sim::SimTime{0} + sim::milliseconds(v); }

TEST(EndToEnd, HealthySystemReportsNoFaults) {
  scenario::Fig10System rig({.seed = 11});
  rig.run(sim::seconds(3));
  auto& assessor = rig.diag().assessor();
  for (platform::ComponentId c = 0; c < 5; ++c) {
    EXPECT_EQ(assessor.diagnose_component(c).cls, fault::FaultClass::kNone)
        << "component " << c << ": "
        << rationale(assessor.diagnose_component(c));
    EXPECT_GT(assessor.component_trust(c), 0.9);
  }
  for (platform::JobId j : rig.app_jobs()) {
    EXPECT_EQ(assessor.diagnose_job(j).cls, fault::FaultClass::kNone)
        << "job " << j << ": " << rationale(assessor.diagnose_job(j));
  }
}

TEST(EndToEnd, PermanentFailureClassifiedInternal) {
  scenario::Fig10System rig({.seed = 12});
  rig.injector().inject_permanent_failure(2, ms(500));
  rig.run(sim::seconds(4));
  const auto d = rig.diag().assessor().diagnose_component(2);
  EXPECT_EQ(d.cls, fault::FaultClass::kComponentInternal) << rationale(d);
  EXPECT_EQ(d.persistence, fault::Persistence::kPermanent);
  EXPECT_EQ(d.action(), fault::MaintenanceAction::kReplaceComponent);
  EXPECT_LT(rig.diag().assessor().component_trust(2), 0.1);
  // Healthy neighbours untouched.
  EXPECT_EQ(rig.diag().assessor().diagnose_component(0).cls,
            fault::FaultClass::kNone);
}

TEST(EndToEnd, WearoutClassifiedInternalWithRisingRate) {
  scenario::Fig10System rig({.seed = 13});
  rig.injector().inject_wearout(1, ms(300), sim::milliseconds(600), 0.7,
                                sim::milliseconds(10));
  rig.run(sim::seconds(5));
  const auto d = rig.diag().assessor().diagnose_component(1);
  EXPECT_EQ(d.cls, fault::FaultClass::kComponentInternal) << rationale(d);
  EXPECT_EQ(d.persistence, fault::Persistence::kIntermittent);
}

TEST(EndToEnd, SeuClassifiedExternal) {
  scenario::Fig10System rig({.seed = 14});
  rig.injector().inject_seu(3, ms(500));
  rig.run(sim::seconds(3));
  const auto d = rig.diag().assessor().diagnose_component(3);
  EXPECT_EQ(d.cls, fault::FaultClass::kComponentExternal) << rationale(d);
  EXPECT_EQ(d.action(), fault::MaintenanceAction::kNoAction);
}

TEST(EndToEnd, EmiBurstClassifiedExternalOnAllAffected) {
  scenario::Fig10System rig({.seed = 15});
  // Burst over components 0..2.
  rig.injector().inject_emi_burst(1.0, 1.1, ms(600), sim::milliseconds(12));
  rig.run(sim::seconds(3));
  auto& assessor = rig.diag().assessor();
  for (platform::ComponentId c = 0; c <= 2; ++c) {
    const auto d = assessor.diagnose_component(c);
    EXPECT_EQ(d.cls, fault::FaultClass::kComponentExternal)
        << "component " << c << ": " << rationale(d);
  }
  EXPECT_EQ(assessor.diagnose_component(3).cls, fault::FaultClass::kNone);
  EXPECT_EQ(assessor.diagnose_component(4).cls, fault::FaultClass::kNone);
}

TEST(EndToEnd, ConnectorFaultClassifiedBorderline) {
  scenario::Fig10System rig({.seed = 16});
  rig.injector().inject_connector_fault(3, ms(300), sim::milliseconds(250),
                                        sim::milliseconds(10), 0.8);
  rig.run(sim::seconds(5));
  const auto d = rig.diag().assessor().diagnose_component(3);
  EXPECT_EQ(d.cls, fault::FaultClass::kComponentBorderline) << rationale(d);
  EXPECT_EQ(d.action(), fault::MaintenanceAction::kInspectConnector);
}

TEST(EndToEnd, HeisenbugClassifiedJobSoftware) {
  scenario::Fig10System rig({.seed = 17});
  rig.injector().inject_heisenbug(rig.a(1), ms(300), 0.08);
  rig.run(sim::seconds(4));
  const auto d = rig.diag().assessor().diagnose_job(rig.a(1));
  EXPECT_EQ(d.cls, fault::FaultClass::kJobInherentSoftware) << rationale(d);
  EXPECT_EQ(d.action(), fault::MaintenanceAction::kSoftwareUpdate);
  // Host component must not be condemned.
  const auto host = rig.system().job(rig.a(1)).host();
  EXPECT_EQ(rig.diag().assessor().diagnose_component(host).cls,
            fault::FaultClass::kNone);
}

TEST(EndToEnd, BohrbugClassifiedJobSoftware) {
  scenario::Fig10System rig({.seed = 18});
  rig.injector().inject_bohrbug(rig.b(0), ms(300), 40, 3);
  rig.run(sim::seconds(4));
  const auto d = rig.diag().assessor().diagnose_job(rig.b(0));
  EXPECT_EQ(d.cls, fault::FaultClass::kJobInherentSoftware) << rationale(d);
}

TEST(EndToEnd, SensorDriftClassifiedTransducer) {
  scenario::Fig10System rig({.seed = 19});
  rig.injector().inject_sensor_fault(rig.c(0), 0,
                                     platform::SensorFaultMode::kDrift, ms(300));
  rig.run(sim::seconds(10));
  const auto d = rig.diag().assessor().diagnose_job(rig.c(0));
  EXPECT_EQ(d.cls, fault::FaultClass::kJobInherentTransducer) << rationale(d);
  EXPECT_EQ(d.action(), fault::MaintenanceAction::kInspectTransducer);
}

TEST(EndToEnd, ConfigFaultClassifiedJobBorderline) {
  scenario::Fig10System rig({.seed = 20});
  rig.injector().inject_config_fault(2, ms(300), 0, 2);  // DAS A vnet
  rig.run(sim::seconds(3));
  // The ledger attributes the config fault to the first DAS-A sender.
  const auto& f = rig.injector().ledger().front();
  ASSERT_TRUE(f.job.has_value());
  const auto d = rig.diag().assessor().diagnose_job(*f.job);
  EXPECT_EQ(d.cls, fault::FaultClass::kJobBorderline) << rationale(d);
  EXPECT_EQ(d.action(), fault::MaintenanceAction::kUpdateConfiguration);
}

TEST(EndToEnd, SoftwareCrashClassifiedJobSoftware) {
  scenario::Fig10System rig({.seed = 21});
  rig.injector().inject_software_crash(rig.b(2), ms(500));
  rig.run(sim::seconds(3));
  const auto d = rig.diag().assessor().diagnose_job(rig.b(2));
  EXPECT_EQ(d.cls, fault::FaultClass::kJobInherentSoftware) << rationale(d);
  // The hosting component stays trusted: its other jobs behave.
  const auto host = rig.system().job(rig.b(2)).host();
  EXPECT_EQ(rig.diag().assessor().diagnose_component(host).cls,
            fault::FaultClass::kNone);
}

// Fig. 10's central claim: a component-internal fault hits all jobs of the
// component across DAS borders, and the diagnosis blames the component,
// not the jobs.
TEST(EndToEnd, ComponentFaultExplainsAwayJobSymptoms) {
  scenario::Fig10System rig({.seed = 22});
  rig.injector().inject_wearout(1, ms(300), sim::milliseconds(500), 0.7,
                                sim::milliseconds(10));
  rig.run(sim::seconds(5));
  auto& assessor = rig.diag().assessor();
  ASSERT_EQ(assessor.diagnose_component(1).cls,
            fault::FaultClass::kComponentInternal);
  // Jobs hosted on component 1: S2, A3, C1, C2 — any symptoms they have
  // must resolve to the component, and jobs elsewhere stay clean.
  for (platform::JobId j : rig.app_jobs()) {
    const auto d = assessor.diagnose_job(j);
    if (rig.system().job(j).host() == 1) {
      EXPECT_TRUE(d.cls == fault::FaultClass::kComponentInternal ||
                  d.cls == fault::FaultClass::kNone)
          << "job " << j << ": " << rationale(d);
    } else {
      EXPECT_EQ(d.cls, fault::FaultClass::kNone)
          << "job " << j << ": " << rationale(d);
    }
  }
}

TEST(EndToEnd, TmrSurvivesSingleReplicaFailure) {
  scenario::Fig10System rig({.seed = 23});
  rig.run(sim::seconds(1));
  const auto votes_before = rig.tmr().votes;
  EXPECT_GT(votes_before, 100u);
  rig.injector().inject_permanent_failure(0, ms(1200));  // kills S1's host
  rig.run(sim::seconds(2));
  // Voting continues on the two surviving replicas.
  EXPECT_GT(rig.tmr().votes, votes_before + 100);
  EXPECT_EQ(rig.tmr().vote_failures, 0u);
}

TEST(EndToEnd, TrustTrajectoriesDiverge) {
  // Fig. 9: trajectory A (faulty FRU) descends while B (healthy) stays up.
  scenario::Fig10System rig({.seed = 24});
  rig.injector().inject_wearout(2, ms(300), sim::milliseconds(400), 0.75,
                                sim::milliseconds(10));
  auto& assessor = rig.diag().assessor();
  std::vector<tta::RoundId> rounds;
  std::vector<double> faulty, healthy;
  rig.run_sampled(sim::seconds(5), [&](tta::RoundId r) {
    rounds.push_back(r);
    faulty.push_back(assessor.component_trust(2));
    healthy.push_back(assessor.component_trust(3));
  });
  // The assessor's host stays up, so a sample lands every kSamplePeriod
  // rounds: 50, 100, ... 1950 of the 2000 rounds run.
  ASSERT_EQ(rounds.size(), 39u);
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    EXPECT_EQ(rounds[i], (i + 1) * Assessor::kSamplePeriod);
  }
  EXPECT_LT(faulty.back(), 0.6);
  EXPECT_GT(healthy.back(), 0.95);
  // The faulty trajectory is (weakly) below the healthy one at the end.
  EXPECT_LT(faulty.back(), healthy.back());
}

TEST(EndToEnd, ReportListsEveryFru) {
  scenario::Fig10System rig({.seed = 25});
  rig.injector().inject_permanent_failure(4, ms(300));
  rig.run(sim::seconds(3));
  const auto report = rig.diag().report();
  // 5 components + 13 app jobs.
  EXPECT_EQ(report.size(), 5u + rig.app_jobs().size());
  bool found_replacement = false;
  for (const auto& row : report) {
    if (!row.job && row.component == 4) {
      EXPECT_EQ(row.action, fault::MaintenanceAction::kReplaceComponent);
      found_replacement = true;
    }
  }
  EXPECT_TRUE(found_replacement);
}

TEST(Report, EvidenceStateIsFreshnessFlagNotQualityCompare) {
  // Regression: evidence_state() used to compare the float evidence
  // quality against 1.0, so a fully-observed FRU whose quality sat at
  // 0.99999... printed "no-recent-evidence". The state is the explicit
  // freshness flag now — quality must not leak into it in either
  // direction.
  diag::FruReport row;
  row.evidence_quality = 0.9999999999;
  row.evidence_fresh = true;
  EXPECT_STREQ(row.evidence_state(), "verified");
  row.evidence_quality = 1.0;
  row.evidence_fresh = false;
  EXPECT_STREQ(row.evidence_state(), "no-recent-evidence");
}

/// Sum of the `diag.classifications` cells of the rig's registry.
std::uint64_t classifications(scenario::Fig10System& rig) {
  std::uint64_t n = 0;
  for (const auto& e : rig.sim().metrics().snapshot().entries) {
    if (e.name == "diag.classifications") n += e.counter;
  }
  return n;
}

TEST(Report, ClassifiesEachFruOncePerRead) {
  // Regression: a job verdict classified its host again, so each job row
  // counted (and traced) a second verdict: 31 for 18 rows, 2 for one job.
  scenario::Fig10System rig({.seed = 1});
  rig.run(sim::seconds(1));
  std::uint64_t before = classifications(rig);
  const auto rows = rig.diag().report();
  ASSERT_EQ(rows.size(), 18u);
  EXPECT_EQ(classifications(rig) - before, rows.size());
  before = classifications(rig);
  (void)rig.diag().assessor().diagnose_job(rig.a(0));
  EXPECT_EQ(classifications(rig) - before, 1u);
}

TEST(EndToEnd, PipelineIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    scenario::Fig10System rig({.seed = seed});
    rig.injector().inject_wearout(1, ms(300), sim::milliseconds(500), 0.75,
                                  sim::milliseconds(10));
    rig.injector().inject_heisenbug(rig.a(0), ms(400), 0.05);
    rig.run(sim::seconds(3));
    return rig.diag().assessor().symptoms_processed();
  };
  EXPECT_EQ(run(33), run(33));
}


TEST(EndToEnd, ReplicatedAssessorsAgree) {
  scenario::Fig10Options opts;
  opts.seed = 26;
  scenario::Fig10System rig(opts);
  // Fig10System uses a single assessor; build a replicated service by
  // hand on a fresh system for this test.
  sim::Simulator simulator(26);
  platform::System::Params sp;
  sp.cluster.node_count = 5;
  platform::System sys(simulator, sp);
  const auto das = sys.add_das("app", platform::Criticality::kNonSafetyCritical);
  const auto vn = sys.add_vnet("app", 4, 8);
  auto port = std::make_shared<platform::PortId>(0);
  platform::Job& src = sys.add_job(das, "src", 0, [port](platform::JobContext& ctx) {
    ctx.send(*port, 1.0);
  });
  platform::Job& dst = sys.add_job(das, "dst", 1, [](platform::JobContext&) {});
  *port = sys.add_port(src.id(), "out", vn, {dst.id()});

  SpecTable specs;
  specs.set(*port, PortSpec{.min_value = -5, .max_value = 5, .period_rounds = 1});
  DiagnosticService::Params dp;
  dp.assessor_host = 3;
  dp.replica_hosts = {4};
  DiagnosticService service(sys, std::move(specs),
                            fault::SpatialLayout::linear(5), dp);
  fault::FaultInjector injector(simulator, sys, fault::SpatialLayout::linear(5));
  sys.finalize();
  sys.start();

  injector.inject_wearout(1, sim::SimTime{0} + sim::milliseconds(300),
                          sim::milliseconds(500), 0.7, sim::milliseconds(10));
  simulator.run_until(sim::SimTime{0} + sim::seconds(5));

  ASSERT_EQ(service.assessor_count(), 2u);
  const auto d0 = service.assessor(0).diagnose_component(1);
  const auto d1 = service.assessor(1).diagnose_component(1);
  EXPECT_EQ(d0.cls, fault::FaultClass::kComponentInternal) << rationale(d0);
  EXPECT_EQ(d1.cls, d0.cls) << rationale(d1);
}

TEST(EndToEnd, ReplicaSurvivesPrimaryHostFailure) {
  sim::Simulator simulator(27);
  platform::System::Params sp;
  sp.cluster.node_count = 5;
  platform::System sys(simulator, sp);
  const auto das = sys.add_das("app", platform::Criticality::kNonSafetyCritical);
  (void)das;
  SpecTable specs;
  DiagnosticService::Params dp;
  dp.assessor_host = 3;
  dp.replica_hosts = {4};
  DiagnosticService service(sys, std::move(specs),
                            fault::SpatialLayout::linear(5), dp);
  fault::FaultInjector injector(simulator, sys, fault::SpatialLayout::linear(5));
  sys.finalize();
  sys.start();

  // Kill the PRIMARY assessor host, then a second fault elsewhere.
  injector.inject_permanent_failure(3, sim::SimTime{0} + sim::milliseconds(300));
  injector.inject_wearout(1, sim::SimTime{0} + sim::milliseconds(600),
                          sim::milliseconds(500), 0.7, sim::milliseconds(10));
  simulator.run_until(sim::SimTime{0} + sim::seconds(5));

  // The replica on component 4 kept collecting evidence and diagnoses
  // both the dead primary host and the wearing component.
  const auto d_dead = service.assessor(1).diagnose_component(3);
  const auto d_wear = service.assessor(1).diagnose_component(1);
  EXPECT_EQ(d_dead.cls, fault::FaultClass::kComponentInternal) << rationale(d_dead);
  EXPECT_EQ(d_wear.cls, fault::FaultClass::kComponentInternal) << rationale(d_wear);
}

}  // namespace
}  // namespace decos::diag
