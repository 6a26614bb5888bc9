// E1 — Fig. 7: the bathtub curve.
//
// Regenerates the reliability curve of electronic components the paper
// uses to motivate wearout monitoring: infant mortality (decreasing
// hazard), useful life (constant floor calibrated to the paper's
// 50 failures / 1e6 ECUs / year from Pauli & Meyna), and wearout
// (increasing hazard). Prints the analytic hazard h(t) and an empirical
// rate measured over a sampled population, per age bucket.
#include <cstdio>
#include <vector>

#include "analysis/table.hpp"
#include "obs/bench_io.hpp"
#include "reliability/hazard.hpp"
#include "sim/rng.hpp"

using namespace decos;

int main(int argc, char** argv) {
  obs::BenchReporter reporter("bench_fig7_bathtub", argc, argv);
  std::printf("== E1 / Fig. 7: bathtub curve of ECU reliability ==\n\n");

  const reliability::BathtubHazard tub;

  // Sample a population of devices; count failures per age bucket.
  const std::size_t population = 200'000;
  const double horizon_hours = 180'000.0;  // ~20 years
  const std::size_t buckets = 18;
  const double bucket_hours = horizon_hours / static_cast<double>(buckets);

  std::vector<std::uint64_t> failures(buckets, 0);
  std::vector<double> exposure_hours(buckets, 0.0);
  sim::Rng rng(2026);
  for (std::size_t d = 0; d < population; ++d) {
    const double ttf = tub.sample_ttf(rng, sim::Duration{0}).hours();
    for (std::size_t b = 0; b < buckets; ++b) {
      const double lo = static_cast<double>(b) * bucket_hours;
      const double hi = lo + bucket_hours;
      if (ttf >= hi) {
        exposure_hours[b] += bucket_hours;
      } else if (ttf > lo) {
        exposure_hours[b] += ttf - lo;
        ++failures[b];
        break;
      } else {
        break;
      }
    }
  }

  analysis::Table t({"age [h]", "age [yr]", "h(t) analytic [FIT]",
                     "empirical [FIT]", "phase"});
  for (std::size_t b = 0; b < buckets; ++b) {
    const double mid = (static_cast<double>(b) + 0.5) * bucket_hours;
    const double analytic_fit =
        tub.hazard_per_hour(sim::hours(static_cast<std::int64_t>(mid))) * 1e9;
    const double empirical_fit =
        exposure_hours[b] > 0
            ? static_cast<double>(failures[b]) / exposure_hours[b] * 1e9
            : 0.0;
    const char* phase = b == 0                  ? "infant mortality"
                        : mid > 110'000.0       ? "wearout"
                                                : "useful life";
    t.add_row({analysis::Table::num(mid, 0), analysis::Table::num(mid / 8760.0, 1),
               analysis::Table::num(analytic_fit, 1),
               analysis::Table::num(empirical_fit, 1), phase});
  }
  std::printf("%s\n", t.render().c_str());

  const double floor_fit = reliability::BathtubHazard::kUsefulLifeRate.fit();
  std::printf("useful-life floor: %.2f FIT = %.1f failures / 1e6 units / year "
              "(paper: ~50)\n",
              floor_fit, floor_fit * 1e-9 * 8760.0 * 1e6);
  std::printf("expected shape: high infant rate -> flat floor -> rising "
              "wearout tail\n");

  // No simulator here — export the sampled time-to-failure distribution
  // directly (hours) next to the headline floor.
  obs::Registry metrics;
  obs::Histogram ttf_hours = metrics.histogram("reliability.sampled_ttf_hours");
  sim::Rng export_rng(2027);
  for (int i = 0; i < 20'000; ++i) {
    ttf_hours.record(static_cast<std::int64_t>(
        tub.sample_ttf(export_rng, sim::Duration{0}).hours()));
  }
  reporter.absorb(metrics);
  reporter.set_info("useful_life_floor_fit", floor_fit);
  reporter.set_info("population", static_cast<double>(population));
  return reporter.finish();
}
