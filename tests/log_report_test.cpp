// Tests for the diagnostic flight recorder (serialise, parse, file
// round-trip, replay into a fresh evidence store with identical
// classification), the maintenance report's allocations and the
// technician report renderer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "analysis/technician_report.hpp"
#include "diag/log.hpp"
#include "scenario/fig10.hpp"
#include "sim/rng.hpp"

namespace {
// Counts every global allocation, so a test can read how many a call
// makes. Every variant funnels through malloc/free so replaced and
// sanitizer allocators never mix.
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

Symptom make_symptom(tta::RoundId round, SymptomType type,
                     platform::ComponentId obs, platform::ComponentId subj,
                     std::optional<platform::JobId> job, double mag) {
  Symptom s;
  s.round = round;
  s.type = type;
  s.observer = obs;
  s.subject_component = subj;
  s.subject_job = job;
  s.magnitude = mag;
  return s;
}

TEST(DiagnosticLog, SerialiseParseRoundTrip) {
  DiagnosticLog log;
  log.record(make_symptom(10, SymptomType::kSlotCrcError, 0, 2, std::nullopt, 1.0));
  log.record(make_symptom(11, SymptomType::kValueOutOfRange, 1, 1, 7, 42.5));
  log.record(make_symptom(12, SymptomType::kGuardianBlock, 3, 3, std::nullopt, 1.0));

  const auto text = log.serialize();
  const auto back = DiagnosticLog::parse(text);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), 3u);
  EXPECT_EQ(back->symptoms()[0].type, SymptomType::kSlotCrcError);
  EXPECT_EQ(back->symptoms()[1].subject_job, std::optional<platform::JobId>(7));
  EXPECT_DOUBLE_EQ(back->symptoms()[1].magnitude, 42.5);
  EXPECT_FALSE(back->symptoms()[2].subject_job.has_value());
  EXPECT_EQ(back->symptoms()[2].round, 12u);
}

TEST(DiagnosticLog, ParseRejectsGarbage) {
  EXPECT_FALSE(DiagnosticLog::parse("not a log line\n").has_value());
  EXPECT_FALSE(DiagnosticLog::parse("10 99 0 0 -1 1.0\n").has_value());  // bad type
  EXPECT_FALSE(DiagnosticLog::parse("10 1 0 0 -1\n").has_value());   // truncated
  EXPECT_FALSE(DiagnosticLog::parse("10 1 0 0 -2 1.0\n").has_value());  // bad job
  EXPECT_FALSE(
      DiagnosticLog::parse("10 1 0 0 -1 1.0 surprise\n").has_value());  // trailing
  // Out-of-range fields must not wrap into plausible-looking ids.
  EXPECT_FALSE(DiagnosticLog::parse("10 1 0 0 70000 1.0\n").has_value());  // job
  EXPECT_FALSE(DiagnosticLog::parse("10 1 -1 0 -1 1.0\n").has_value());  // observer
  EXPECT_FALSE(DiagnosticLog::parse("-5 1 0 0 -1 1.0\n").has_value());  // round
  // Empty text is a valid empty log.
  const auto empty = DiagnosticLog::parse("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->size(), 0u);
}

// Property: parse(serialize(log)) reproduces the log field-for-field, for
// randomly generated symptom streams (the flight recorder must be a
// lossless wire format, not just "close enough").
TEST(DiagnosticLog, SerialiseParseRoundTripProperty) {
  sim::Rng rng(4242);
  for (int iteration = 0; iteration < 50; ++iteration) {
    DiagnosticLog log;
    const int n = static_cast<int>(rng.uniform_int(0, 40));
    for (int i = 0; i < n; ++i) {
      Symptom s;
      s.round = static_cast<tta::RoundId>(rng.uniform_int(0, 1'000'000'000));
      s.type = static_cast<SymptomType>(rng.uniform_int(1, 8));
      s.observer = static_cast<platform::ComponentId>(rng.uniform_int(0, 31));
      s.subject_component =
          static_cast<platform::ComponentId>(rng.uniform_int(0, 31));
      if (rng.bernoulli(0.5)) {
        s.subject_job = static_cast<platform::JobId>(rng.uniform_int(0, 255));
      }
      // Magnitudes include awkward doubles; %.9g must round-trip them.
      s.magnitude = rng.uniform() * 1e6 - 500.0;
      log.record(s);
    }
    const auto back = DiagnosticLog::parse(log.serialize());
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(back->size(), log.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
      const Symptom& a = log.symptoms()[i];
      const Symptom& b = back->symptoms()[i];
      EXPECT_EQ(a.round, b.round);
      EXPECT_EQ(a.type, b.type);
      EXPECT_EQ(a.observer, b.observer);
      EXPECT_EQ(a.subject_component, b.subject_component);
      EXPECT_EQ(a.subject_job, b.subject_job);
      EXPECT_FLOAT_EQ(static_cast<float>(a.magnitude),
                      static_cast<float>(b.magnitude));
    }
  }
}

TEST(DiagnosticLog, FileRoundTrip) {
  DiagnosticLog log;
  log.record(make_symptom(5, SymptomType::kSlotOmission, 1, 4, std::nullopt, 1.0));
  const std::string path = "/tmp/decos_diag_log_test.txt";
  ASSERT_TRUE(log.save(path));
  const auto back = DiagnosticLog::load(path);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), 1u);
  EXPECT_EQ(back->symptoms()[0].subject_component, 4u);
  std::remove(path.c_str());
}

TEST(DiagnosticLog, LoadMissingFileFails) {
  EXPECT_FALSE(DiagnosticLog::load("/tmp/does_not_exist_decos.txt").has_value());
}

TEST(DiagnosticLog, ReplayReproducesClassificationOffBoard) {
  // On-board: record the symptom stream while a wearout develops.
  scenario::Fig10System rig({.seed = 91});
  DiagnosticLog recorder;
  rig.diag().assessor().set_flight_recorder(&recorder);
  rig.injector().inject_wearout(1, sim::SimTime{0} + sim::milliseconds(300),
                                sim::milliseconds(600), 0.7,
                                sim::milliseconds(10));
  rig.run(sim::seconds(5));
  const auto onboard = rig.diag().assessor().diagnose_component(1);
  ASSERT_EQ(onboard.cls, fault::FaultClass::kComponentInternal);
  ASSERT_GT(recorder.size(), 50u);

  // Off-board (service station): serialise, re-parse, replay into a fresh
  // evidence store, fold its summary up to the recorded round as the
  // assessor does, classify with the same rules.
  const auto replayed = DiagnosticLog::parse(recorder.serialize());
  ASSERT_TRUE(replayed.has_value());
  EvidenceStore store;
  replayed->replay_into(store);
  Classifier classifier({});
  EvidenceSummary summary(&store, classifier.feature_params(5), 5,
                          fault::SpatialLayout::linear(5));
  summary.fold(rig.round());
  EvidenceSummary::ComponentFeatures features;
  summary.component_features(1, rig.round(), features);
  const auto offboard = classifier.classify(features, rig.round());
  EXPECT_EQ(offboard.cls, onboard.cls) << rationale(offboard);
}

TEST(MaintenanceReport, RepeatedReportBuildsNoStrings) {
  // Faults off: no row asserts an ONA, so a report is its two arrays (the
  // rows and the per-component verdicts). A row names its FRU by
  // component and job id; the label is built only where a row is shown.
  scenario::Fig10System rig({.seed = 3});
  rig.run(sim::milliseconds(500));
  const std::size_t frus = rig.diag().report().size();  // warm: gauges made
  ASSERT_EQ(frus, 5u + rig.app_jobs().size());
  constexpr int kReports = 20;
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < kReports; ++i) {
    const std::vector<FruReport> rows = rig.diag().report();
    ASSERT_EQ(rows.size(), frus);
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before,
            2u * kReports);
}

TEST(TechnicianReport, RendersBarsAndRationales) {
  std::vector<FruReport> rows;
  FruReport healthy;
  healthy.component = 0;
  healthy.trust = 1.0;
  rows.push_back(healthy);
  FruReport bad;
  bad.component = 1;
  bad.trust = 0.3;
  bad.diagnosis = {fault::FaultClass::kComponentInternal,
                   fault::Persistence::kIntermittent, 0.85, Rule::kWearout};
  bad.action = fault::MaintenanceAction::kReplaceComponent;
  rows.push_back(bad);

  const auto text = analysis::render_technician_report(rows);
  EXPECT_EQ(text.find("component 0"), std::string::npos);  // hidden healthy
  EXPECT_NE(text.find("component 1"), std::string::npos);
  EXPECT_NE(text.find("###......."), std::string::npos);  // 30% bar
  EXPECT_NE(text.find("(wearout signature)"), std::string::npos);
  EXPECT_NE(text.find("replace-component"), std::string::npos);
}

TEST(TechnicianReport, OnaFindingsRendered) {
  scenario::Fig10System rig({.seed = 92});
  rig.injector().inject_wearout(1, sim::SimTime{0} + sim::milliseconds(300),
                                sim::milliseconds(600), 0.7,
                                sim::milliseconds(10));
  rig.run(sim::seconds(5));
  const std::vector<FruReport> rows = rig.diag().report();
  ASSERT_GT(rows.size(), 1u);
  ASSERT_EQ(rows[1].label(), "component 1");
  const auto text = analysis::render_technician_report({rows[1]});
  EXPECT_NE(text.find("component-internal"), std::string::npos);
  // The wearout ONA, first in table order, heads the row's ONA line.
  EXPECT_NE(text.find("ONAs asserted: wearout"), std::string::npos);
}

}  // namespace
}  // namespace decos::diag
