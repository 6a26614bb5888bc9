// E10 — throughput of the diagnostic machinery (google-benchmark).
//
// The diagnostic DAS runs as an embedded job on a component, so the
// per-round cost of ingesting symptoms and the on-demand cost of
// classification bound how large a cluster one assessor can serve.
// Benchmarks: symptom wire codec, evidence ingest, component
// classification vs evidence-window size, and full-system simulation
// rate vs cluster size. Plus E16: wall-clock scaling of the parallel
// experiment engine — run with `--jobs {1,2,4,8}` and compare
// BM_ExperimentBatch real time.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "diag/classifier.hpp"
#include "diag/evidence.hpp"
#include "diag/symptom.hpp"
#include "exec/runner.hpp"
#include "obs/bench_io.hpp"
#include "scenario/fig10.hpp"

using namespace decos;

namespace {

// Worker count for BM_ExperimentBatch, set from --jobs in main before
// google-benchmark takes over.
unsigned g_jobs = 1;

void BM_SymptomCodec(benchmark::State& state) {
  diag::Symptom s;
  s.type = diag::SymptomType::kSlotCrcError;
  s.observer = 1;
  s.subject_component = 2;
  s.subject_job = 7;
  s.round = 1000;
  s.magnitude = 3.5;
  for (auto _ : state) {
    vnet::Message m = diag::encode(s, 1002);
    m.sent_round = 1002;
    auto back = diag::decode(m, 1);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_SymptomCodec);

void BM_EvidenceIngest(benchmark::State& state) {
  diag::EvidenceStore store;
  diag::Symptom s;
  s.type = diag::SymptomType::kSlotCrcError;
  tta::RoundId r = 0;
  for (auto _ : state) {
    s.round = r++;
    s.observer = static_cast<platform::ComponentId>(r % 5);
    s.subject_component = static_cast<platform::ComponentId>((r + 1) % 5);
    store.ingest(s);
    if (r % 4096 == 0) store.prune(r);
  }
}
BENCHMARK(BM_EvidenceIngest);

/// Classification cost as a function of accumulated evidence volume.
void BM_ClassifyComponent(benchmark::State& state) {
  const auto rounds = static_cast<tta::RoundId>(state.range(0));
  diag::EvidenceStore store;
  diag::Symptom s;
  s.type = diag::SymptomType::kSlotCrcError;
  s.subject_component = 1;
  // Episodic evidence: 5 symptomatic rounds every 100.
  for (tta::RoundId r = 0; r < rounds; ++r) {
    if (r % 100 < 5) {
      for (platform::ComponentId o = 2; o < 5; ++o) {
        s.observer = o;
        s.round = r;
        store.ingest(s);
      }
    }
  }
  diag::Classifier classifier({});
  // Folded up to `rounds` as the assessor's per-round fold leaves it: each
  // classification merges the folded state with the short tail walk.
  diag::EvidenceSummary summary(&store, classifier.feature_params(5), 5,
                                fault::SpatialLayout::linear(5));
  summary.fold(rounds);
  for (auto _ : state) {
    diag::EvidenceSummary::ComponentFeatures f;
    summary.component_features(1, rounds, f);
    auto d = classifier.classify(f, rounds);
    benchmark::DoNotOptimize(d);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ClassifyComponent)->Range(1'000, 64'000)->Complexity();

/// End-to-end simulation rate of the full diagnosed system vs cluster
/// size: simulated seconds per wall second.
void BM_FullSystemSimulation(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    scenario::Fig10Options opts;
    opts.seed = 42;
    opts.components = nodes;
    scenario::Fig10System rig(opts);
    rig.run(sim::milliseconds(250));
    benchmark::DoNotOptimize(rig.diag().assessor().symptoms_processed());
  }
  state.counters["nodes"] = nodes;
}
BENCHMARK(BM_FullSystemSimulation)->Arg(5)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

/// E16 — a fixed batch of independent Fig. 10 simulations executed
/// through the experiment engine with --jobs workers. The per-run work is
/// identical for every job count (the ordered merge guarantees identical
/// results too), so the real-time ratio between --jobs 1 and --jobs N is
/// the engine's wall-clock speedup.
void BM_ExperimentBatch(benchmark::State& state) {
  const std::size_t batch = 8;
  std::uint64_t total = 0;
  for (auto _ : state) {
    exec::ExperimentRunner runner(g_jobs);
    std::vector<std::function<std::uint64_t()>> runs;
    runs.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      runs.push_back([i] {
        scenario::Fig10Options opts;
        opts.seed = 42 + i;
        scenario::Fig10System rig(opts);
        rig.run(sim::milliseconds(250));
        return rig.diag().assessor().symptoms_processed();
      });
    }
    total = 0;
    for (auto& outcome : runner.run(std::move(runs))) {
      if (outcome.ok()) total += *outcome.result;
    }
    benchmark::DoNotOptimize(total);
  }
  state.counters["jobs"] = g_jobs;
  state.counters["batch"] = static_cast<double>(batch);
}
BENCHMARK(BM_ExperimentBatch)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

// Custom main: peel off --json/--csv for the metrics reporter, forward the
// rest of argv to google-benchmark untouched.
int main(int argc, char** argv) {
  obs::BenchReporter reporter("bench_classifier_scaling", argc, argv);
  g_jobs = reporter.jobs();
  int fargc = reporter.argc();
  benchmark::Initialize(&fargc, reporter.argv());
  if (benchmark::ReportUnrecognizedArguments(fargc, reporter.argv())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return reporter.finish();
}
