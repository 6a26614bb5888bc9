// E7 — Section III-E: the quantitative fault-hypothesis assumptions, and
// the alpha-count discrimination they enable.
//
// Verifies by sampling that the implemented rate models reproduce the
// paper's numbers (100 FIT permanent ~ 1000 yr MTTF; 100 000 FIT
// transient ~ 1 yr; EMI bursts ~10 ms; transient outages < 50 ms), then
// sweeps the alpha-count threshold against the naive K-in-window counter
// on the transient-vs-internal discrimination task the paper assigns to
// it (Section V-C).
#include <cstdio>
#include <vector>

#include "analysis/table.hpp"
#include "obs/bench_io.hpp"
#include "reliability/alpha_count.hpp"
#include "reliability/fit.hpp"
#include "reliability/hazard.hpp"
#include "sim/rng.hpp"

using namespace decos;
using reliability::paper::kEmiBurstDuration;
using reliability::paper::kPermanentHardware;
using reliability::paper::kTransientHardware;
using reliability::paper::kTransientOutageMax;

int main(int argc, char** argv) {
  obs::BenchReporter reporter("bench_hypothesis_rates", argc, argv);
  obs::Registry metrics;
  std::printf("== E7 / Section III-E: fault-hypothesis rates & alpha-count ==\n\n");

  // --- rate verification -----------------------------------------------------
  sim::Rng rng(707);
  analysis::Table rates({"assumption", "paper value", "model value",
                         "sampled mean (n=20000)"});
  {
    const reliability::ExponentialHazard h(kPermanentHardware);
    obs::Histogram sampled =
        metrics.histogram("reliability.sampled_ttf_hours", "rate=permanent");
    double sum = 0;
    for (int i = 0; i < 20000; ++i) {
      const double hours = h.sample_ttf(rng, sim::Duration{}).hours();
      sampled.record(static_cast<std::int64_t>(hours));
      sum += hours;
    }
    rates.add_row({"permanent hw failure rate", "100 FIT (~1000 yr)",
                   analysis::Table::num(kPermanentHardware.mttf_hours() / 8760.0, 0) +
                       " yr MTTF",
                   analysis::Table::num(sum / 20000.0 / 8760.0, 0) + " yr"});
  }
  {
    const reliability::ExponentialHazard h(kTransientHardware);
    obs::Histogram sampled =
        metrics.histogram("reliability.sampled_ttf_hours", "rate=transient");
    double sum = 0;
    for (int i = 0; i < 20000; ++i) {
      const double hours = h.sample_ttf(rng, sim::Duration{}).hours();
      sampled.record(static_cast<std::int64_t>(hours));
      sum += hours;
    }
    rates.add_row({"transient hw failure rate", "100000 FIT (~1 yr)",
                   analysis::Table::num(kTransientHardware.mttf_hours() / 8760.0, 2) +
                       " yr MTTF",
                   analysis::Table::num(sum / 20000.0 / 8760.0, 2) + " yr"});
  }
  rates.add_row({"transient outage duration", "< 50 ms (steering est.)",
                 analysis::Table::num(kTransientOutageMax.ms(), 0) + " ms cap",
                 "-"});
  rates.add_row({"correlated EMI burst", "~10 ms (ISO 7637)",
                 analysis::Table::num(kEmiBurstDuration.ms(), 0) + " ms",
                 "-"});
  std::printf("%s\n", rates.render().c_str());

  // --- alpha-count discrimination sweep -------------------------------------
  //
  // Task: judged once per round, an FRU fails with rate r_ext (ambient
  // transients) if healthy, or with the much higher rate r_int if it has
  // an internal intermittent fault. Sweep the threshold; measure false
  // alarms (healthy flagged) and missed detections (internal not flagged
  // within the horizon). Compare with the naive K-in-window counter.
  const double r_ext = 1.0 / 2000.0;  // ambient transient per judgement round
  const double r_int = 1.0 / 50.0;    // internal intermittent fault
  const int rounds = 20000, population = 400;

  analysis::Table sweep({"threshold", "alpha: false-alarm", "alpha: miss",
                         "window(K=thr,N=200): false-alarm", "window: miss"});
  for (const double threshold : {2.0, 3.0, 4.0, 6.0, 8.0}) {
    int alpha_fa = 0, alpha_miss = 0, win_fa = 0, win_miss = 0;
    for (int d = 0; d < population; ++d) {
      sim::Rng r1(static_cast<std::uint64_t>(d) * 7919 + 13);
      reliability::AlphaCount healthy(threshold);
      reliability::AlphaCount faulty(threshold);
      reliability::WindowCount whealthy(200, static_cast<std::uint32_t>(threshold));
      reliability::WindowCount wfaulty(200, static_cast<std::uint32_t>(threshold));
      bool ah = false, af = false, wh = false, wf = false;
      for (int t = 0; t < rounds; ++t) {
        const bool fe = r1.bernoulli(r_ext);
        const bool fi = r1.bernoulli(r_int);
        healthy.observe(fe);
        faulty.observe(fi);
        whealthy.observe(fe);
        wfaulty.observe(fi);
        ah |= healthy.flagged();
        af |= faulty.flagged();
        wh |= whealthy.flagged();
        wf |= wfaulty.flagged();
      }
      alpha_fa += ah ? 1 : 0;
      alpha_miss += af ? 0 : 1;
      win_fa += wh ? 1 : 0;
      win_miss += wf ? 0 : 1;
    }
    auto pct = [&](int n) {
      return analysis::Table::num(100.0 * n / population, 1) + "%";
    };
    sweep.add_row({analysis::Table::num(threshold, 0), pct(alpha_fa),
                   pct(alpha_miss), pct(win_fa), pct(win_miss)});
    const std::string label =
        "thr=" + analysis::Table::num(threshold, 0);
    metrics.counter("alpha.false_alarms", label).inc(
        static_cast<std::uint64_t>(alpha_fa));
    metrics.counter("alpha.misses", label).inc(
        static_cast<std::uint64_t>(alpha_miss));
    metrics.counter("window.false_alarms", label).inc(
        static_cast<std::uint64_t>(win_fa));
    metrics.counter("window.misses", label).inc(
        static_cast<std::uint64_t>(win_miss));
  }
  std::printf("%s\n", sweep.render().c_str());
  std::printf("expected shape: a mid threshold gives alpha-count ~0%% miss "
              "with low false alarms; the memoryless window counter needs a "
              "higher threshold to control false alarms and then starts "
              "missing — the decay memory is what buys the discrimination\n");
  reporter.absorb(metrics);
  reporter.set_info("population", static_cast<double>(population));
  return reporter.finish();
}
