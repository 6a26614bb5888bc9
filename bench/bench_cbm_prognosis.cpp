// E11 — Section III-E extension: Condition-Based Maintenance.
//
// The paper proposes the rising transient-failure rate as the wearout
// indicator that CBM needs. This experiment closes the loop: a component
// wears out with a known (injected) gap-shrink; the diagnostic DAS
// observes the episodes; the WearoutTracker fits the trend mid-life and
// predicts the end of life; the run then continues until the device
// actually dies (episodes merge into continuous failure) and the
// prediction error is scored. Swept over shrink rates and seeds.
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "analysis/cbm.hpp"
#include "analysis/table.hpp"
#include "diag/summary.hpp"
#include "exec/runner.hpp"
#include "obs/bench_io.hpp"
#include "scenario/fig10.hpp"

using namespace decos;

namespace {

struct Outcome {
  double fitted_shrink;
  tta::RoundId predicted_eol;
  tta::RoundId actual_eol;  // first round of the merged terminal episode
  bool predicted;
};

Outcome run_one(std::uint64_t seed, double shrink) {
  scenario::Fig10System rig({.seed = seed});
  rig.injector().inject_wearout(1, sim::SimTime{0} + sim::milliseconds(300),
                                sim::milliseconds(700), shrink,
                                sim::milliseconds(10));
  rig.run(sim::seconds(10));

  const diag::Assessor& assessor = rig.diag().assessor();
  diag::EvidenceSummary::ComponentFeatures f;
  assessor.summary().component_features(1, assessor.current_round(), f);
  const auto& eps = f.sender_eps;

  Outcome out{1.0, 0, 0, false};
  if (eps.size() < 6) return out;

  // Actual end of life: the first episode whose observed span has grown
  // past the EOL gap (episodes merged into a quasi-continuous run).
  for (const auto& e : eps) {
    if (e.last - e.first >= 40 && out.actual_eol == 0) out.actual_eol = e.first;
  }
  if (out.actual_eol == 0) out.actual_eol = eps.back().first;

  // Prognosis from the first five episodes only (mid-life).
  analysis::WearoutTracker tracker;
  for (std::size_t i = 0; i < 5; ++i) tracker.add_episode(eps[i].first);
  const auto prog = tracker.prognose(eps[4].first + 10);
  if (!prog) return out;
  out.predicted = true;
  out.fitted_shrink = prog->shrink;
  out.predicted_eol = prog->end_of_life_round;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("bench_cbm_prognosis", argc, argv);
  obs::Registry metrics;
  obs::Histogram abs_err_pct = metrics.histogram("cbm.eol_abs_error_pct");
  std::printf("== E11 / CBM: remaining-useful-life prognosis from the "
              "wearout indicator ==\n\n");

  analysis::Table t({"injected shrink", "seed", "fitted shrink",
                     "predicted EOL [round]", "actual EOL [round]",
                     "error [%]"});
  // The (shrink, seed) sweep on the experiment engine: each run is an
  // isolated rig; the ordered fold keeps the table rows and histogram
  // identical for every --jobs value.
  const auto seeds = reporter.seeds_or({1101, 1102, 1103});
  std::vector<std::pair<double, std::uint64_t>> cells;
  std::vector<std::function<Outcome()>> runs;
  for (const double shrink : {0.65, 0.75, 0.85}) {
    for (const std::uint64_t seed : seeds) {
      cells.emplace_back(shrink, seed);
      runs.push_back([seed, shrink] { return run_one(seed, shrink); });
    }
  }
  int predicted = 0, total = 0;
  exec::ExperimentRunner runner(reporter.jobs());
  runner.run_and_merge<Outcome>(
      std::move(runs), [&](std::size_t i, const Outcome& o) {
        const auto [shrink, seed] = cells[i];
        ++total;
        if (!o.predicted) {
          t.add_row({analysis::Table::num(shrink, 2), std::to_string(seed),
                     "-", "-", std::to_string(o.actual_eol), "-"});
          return;
        }
        ++predicted;
        const double err =
            100.0 *
            (static_cast<double>(o.predicted_eol) -
             static_cast<double>(o.actual_eol)) /
            static_cast<double>(o.actual_eol);
        abs_err_pct.record(static_cast<std::int64_t>(err < 0 ? -err : err));
        t.add_row({analysis::Table::num(shrink, 2), std::to_string(seed),
                   analysis::Table::num(o.fitted_shrink, 3),
                   std::to_string(o.predicted_eol),
                   std::to_string(o.actual_eol), analysis::Table::num(err, 1)});
      });
  std::printf("%s\n", t.render().c_str());
  std::printf("prognoses produced: %d/%d\n", predicted, total);
  std::printf("expected shape: fitted shrink tracks the injected shrink; "
              "EOL predictions from only five observed episodes land within "
              "tens of percent of the actual failure time — enough to "
              "schedule the replacement before the FRU dies in the field\n");
  metrics.counter("cbm.prognoses").inc(static_cast<std::uint64_t>(predicted));
  metrics.counter("cbm.runs").inc(static_cast<std::uint64_t>(total));
  reporter.absorb(metrics);
  reporter.set_info("prognoses_produced", static_cast<double>(predicted));
  return reporter.finish();
}
