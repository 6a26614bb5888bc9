// Tests for the parallel experiment engine (src/exec/): pool lifecycle
// (shutdown drains), per-run error isolation, ordered merging, and the
// headline determinism contract — a parallel campaign is bit-identical
// to the serial one, including the merged metrics snapshot of the chaos
// campaign (modulo the one wall-clock gauge).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/runner.hpp"
#include "exec/thread_pool.hpp"
#include "scenario/chaos.hpp"

namespace decos {
namespace {

TEST(ThreadPool, ShutdownDrainsPendingTasks) {
  std::atomic<int> done{0};
  exec::ThreadPool pool(2);
  for (int i = 0; i < 32; ++i) {
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.shutdown();  // must finish all 32, not abandon the queue
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, DestructorJoinsCleanly) {
  std::atomic<int> done{0};
  {
    exec::ThreadPool pool(3);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // ~ThreadPool: drain + join
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, WaitIdleIsABarrier) {
  std::atomic<int> done{0};
  exec::ThreadPool pool(4);
  for (int i = 0; i < 20; ++i) {
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 20);  // nothing in flight past the barrier
}

TEST(ExperimentRunner, ThrowingRunDoesNotPoisonSiblings) {
  exec::ExperimentRunner runner(4);
  std::vector<std::function<int()>> runs;
  runs.push_back([] { return 10; });
  runs.push_back([]() -> int { throw std::runtime_error("boom"); });
  runs.push_back([] { return 30; });
  const auto outcomes = runner.run<int>(std::move(runs));
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_EQ(*outcomes[0].result, 10);
  EXPECT_FALSE(outcomes[1].ok());
  EXPECT_EQ(outcomes[1].error, "boom");
  EXPECT_TRUE(outcomes[2].ok());
  EXPECT_EQ(*outcomes[2].result, 30);
}

TEST(ExperimentRunner, RunAndMergeReportsTheFailedRunIndex) {
  exec::ExperimentRunner runner(2);
  std::vector<std::function<int()>> runs;
  runs.push_back([] { return 1; });
  runs.push_back([]() -> int { throw std::runtime_error("bad seed"); });
  try {
    runner.run_and_merge<int>(std::move(runs), [](std::size_t, int) {});
    FAIL() << "expected run_and_merge to rethrow the per-run failure";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("run 1"), std::string::npos) << what;
    EXPECT_NE(what.find("bad seed"), std::string::npos) << what;
  }
}

TEST(ExperimentRunner, ExperimentErrorCarriesIndexLabelAndMessage) {
  // The sweep drivers label runs with replay tokens; a mid-batch failure
  // must surface the structured triple, not just a flattened string.
  exec::ExperimentRunner runner(2);
  std::vector<std::function<int()>> runs;
  runs.push_back([] { return 1; });
  runs.push_back([]() -> int { throw std::runtime_error("bad seed"); });
  runs.push_back([] { return 3; });
  try {
    runner.run_and_merge<int>(
        std::move(runs), [](std::size_t, int) {},
        [](std::size_t i) { return "resend-push:" + std::to_string(i); });
    FAIL() << "expected ExperimentError";
  } catch (const exec::ExperimentError& e) {
    EXPECT_EQ(e.index(), 1u);
    EXPECT_EQ(e.label(), "resend-push:1");
    EXPECT_EQ(e.message(), "bad seed");
    const std::string what = e.what();
    EXPECT_NE(what.find("run 1"), std::string::npos) << what;
    EXPECT_NE(what.find("resend-push:1"), std::string::npos) << what;
    EXPECT_NE(what.find("bad seed"), std::string::npos) << what;
  }
}

TEST(ExperimentRunner, MergesInSubmissionOrderRegardlessOfFinishOrder) {
  exec::ExperimentRunner runner(4);
  std::vector<std::function<std::size_t()>> runs;
  for (std::size_t i = 0; i < 12; ++i) {
    runs.push_back([i] {
      // Later submissions finish earlier; the fold must still see 0,1,2...
      std::this_thread::sleep_for(std::chrono::milliseconds(12 - i));
      return i;
    });
  }
  std::vector<std::size_t> order;
  runner.run_and_merge<std::size_t>(
      std::move(runs),
      [&order](std::size_t, std::size_t v) { order.push_back(v); });
  ASSERT_EQ(order.size(), 12u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

// --- determinism: parallel == serial, bit for bit ------------------------

/// Two cheap archetypes keep the live campaigns fast.
std::vector<scenario::Archetype> cheap_archetypes() {
  std::vector<scenario::Archetype> subset;
  for (auto& a : scenario::standard_archetypes()) {
    if (a.name == "seu" || a.name == "permanent") subset.push_back(a);
  }
  return subset;
}

void expect_same_confusion(const analysis::ConfusionMatrix& a,
                           const analysis::ConfusionMatrix& b) {
  EXPECT_EQ(a.total(), b.total());
  for (std::size_t t = 0; t < analysis::ConfusionMatrix::kClasses; ++t) {
    for (std::size_t p = 0; p < analysis::ConfusionMatrix::kClasses; ++p) {
      EXPECT_EQ(a.count(static_cast<fault::FaultClass>(t),
                        static_cast<fault::FaultClass>(p)),
                b.count(static_cast<fault::FaultClass>(t),
                        static_cast<fault::FaultClass>(p)))
          << "truth=" << t << " predicted=" << p;
    }
  }
}

/// Field-by-field snapshot equality, skipping the only wall-clock metric
/// (sim.events_per_sec — events per wall second, not simulated state).
void expect_same_snapshot(const obs::Snapshot& a, const obs::Snapshot& b) {
  auto filtered = [](const obs::Snapshot& s) {
    std::vector<const obs::SnapshotEntry*> out;
    for (const auto& e : s.entries) {
      if (e.name != "sim.events_per_sec") out.push_back(&e);
    }
    return out;
  };
  const auto fa = filtered(a);
  const auto fb = filtered(b);
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    const auto& ea = *fa[i];
    const auto& eb = *fb[i];
    EXPECT_EQ(ea.kind, eb.kind) << ea.name;
    EXPECT_EQ(ea.name, eb.name);
    EXPECT_EQ(ea.label, eb.label) << ea.name;
    EXPECT_EQ(ea.counter, eb.counter) << ea.name << "{" << ea.label << "}";
    EXPECT_DOUBLE_EQ(ea.gauge, eb.gauge) << ea.name;
    EXPECT_DOUBLE_EQ(ea.gauge_high_water, eb.gauge_high_water) << ea.name;
    EXPECT_EQ(ea.hist_count, eb.hist_count) << ea.name;
    EXPECT_DOUBLE_EQ(ea.hist_sum, eb.hist_sum) << ea.name;
    EXPECT_EQ(ea.hist_min, eb.hist_min) << ea.name;
    EXPECT_EQ(ea.hist_max, eb.hist_max) << ea.name;
    EXPECT_EQ(ea.buckets, eb.buckets) << ea.name;
  }
}

TEST(ExperimentRunner, ParallelCampaignIsBitIdenticalToSerial) {
  const auto subset = cheap_archetypes();
  ASSERT_EQ(subset.size(), 2u);
  const std::vector<std::uint64_t> seeds = {11, 12, 13};
  const auto serial = scenario::run_campaign(subset, seeds, {}, 1);
  const auto parallel = scenario::run_campaign(subset, seeds, {}, 4);

  expect_same_confusion(serial.confusion, parallel.confusion);
  ASSERT_EQ(serial.per_archetype.size(), parallel.per_archetype.size());
  for (std::size_t i = 0; i < serial.per_archetype.size(); ++i) {
    EXPECT_EQ(serial.per_archetype[i].name, parallel.per_archetype[i].name);
    EXPECT_EQ(serial.per_archetype[i].truth, parallel.per_archetype[i].truth);
    EXPECT_EQ(serial.per_archetype[i].runs, parallel.per_archetype[i].runs);
    EXPECT_EQ(serial.per_archetype[i].correct,
              parallel.per_archetype[i].correct);
  }
}

/// Every member of two chaos campaign results, field by field (the merged
/// snapshot modulo its one wall-clock gauge).
void expect_same_chaos(const scenario::ChaosCampaignResult& a,
                       const scenario::ChaosCampaignResult& b) {
  expect_same_confusion(a.confusion, b.confusion);
  ASSERT_EQ(a.per_archetype.size(), b.per_archetype.size());
  for (std::size_t i = 0; i < a.per_archetype.size(); ++i) {
    EXPECT_EQ(a.per_archetype[i].name, b.per_archetype[i].name);
    EXPECT_EQ(a.per_archetype[i].runs, b.per_archetype[i].runs);
    EXPECT_EQ(a.per_archetype[i].correct, b.per_archetype[i].correct);
  }
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.failbacks, b.failbacks);
  EXPECT_EQ(a.symptom_gaps, b.symptom_gaps);
  EXPECT_EQ(a.duplicates_dropped, b.duplicates_dropped);
  EXPECT_EQ(a.agent_drops_reported, b.agent_drops_reported);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.heartbeats_sent, b.heartbeats_sent);
  EXPECT_EQ(a.heartbeats_received, b.heartbeats_received);
  EXPECT_EQ(a.chaos_dropped, b.chaos_dropped);
  EXPECT_EQ(a.chaos_corrupted, b.chaos_corrupted);
  EXPECT_EQ(a.journeys, b.journeys);
  EXPECT_EQ(a.chaos_journeys, b.chaos_journeys);
  EXPECT_EQ(a.journeys_classified, b.journeys_classified);
  EXPECT_EQ(a.orphaned_journeys, b.orphaned_journeys);
  EXPECT_EQ(a.spans, b.spans);
  EXPECT_EQ(a.spans_dropped, b.spans_dropped);
  EXPECT_EQ(a.provenance_ndjson, b.provenance_ndjson);
  expect_same_snapshot(a.metrics, b.metrics);
}

TEST(ExperimentRunner, ParallelChaosCampaignMergesIdenticalSnapshot) {
  // One archetype x three seeds through the full chaos treatment: the
  // merged snapshot union exercises ordered Snapshot::merge across runs.
  std::vector<scenario::Archetype> subset;
  for (auto& a : scenario::standard_archetypes()) {
    if (a.name == "seu") subset.push_back(a);
  }
  ASSERT_EQ(subset.size(), 1u);
  const std::vector<std::uint64_t> seeds = {21, 22, 23};
  const auto serial =
      scenario::run_chaos_campaign(subset, seeds, {}, {}, 1);
  const auto parallel =
      scenario::run_chaos_campaign(subset, seeds, {}, {}, 4);
  expect_same_chaos(serial, parallel);

  // Two archetypes x two seeds at jobs 1 and 3 against the in-order fold
  // of one-archetype, one-seed campaigns — the shape each perfbench unit
  // runs. Provenance is armed so the journey totals and NDJSON fold too.
  const auto grid = cheap_archetypes();
  ASSERT_EQ(grid.size(), 2u);
  const std::vector<std::uint64_t> grid_seeds = {21, 22};
  scenario::Fig10Options traced;
  traced.provenance = true;

  scenario::ChaosCampaignResult fold;
  fold.open_rows(grid);
  for (std::size_t a = 0; a < grid.size(); ++a) {
    for (const std::uint64_t seed : grid_seeds) {
      const auto one =
          scenario::run_chaos_campaign({grid[a]}, {seed}, {}, traced, 1);
      ASSERT_EQ(one.runs, 1u);
      for (std::size_t t = 0; t < analysis::ConfusionMatrix::kClasses; ++t) {
        for (std::size_t p = 0; p < analysis::ConfusionMatrix::kClasses; ++p) {
          const auto truth = static_cast<fault::FaultClass>(t);
          const auto predicted = static_cast<fault::FaultClass>(p);
          if (one.confusion.count(truth, predicted) == 0) continue;
          ++fold.runs;
          if (fold.score(a, predicted)) ++fold.correct;
        }
      }
      fold += one;
    }
  }
  EXPECT_GT(fold.journeys, 0u);
  for (const unsigned jobs : {1u, 3u}) {
    SCOPED_TRACE(jobs);
    expect_same_chaos(
        scenario::run_chaos_campaign(grid, grid_seeds, {}, traced, jobs),
        fold);
  }
}

}  // namespace
}  // namespace decos
