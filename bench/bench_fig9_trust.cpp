// E3 — Fig. 9: LRU assessment trajectories.
//
// One component wears out (trajectory A: growing confidence in a
// specification violation = falling trust) while a second stays healthy
// (trajectory B: conformance, trust hugs 1.0). Prints the two trust
// series over time as the paper's two arrows, sampled by
// Fig10System::run_sampled.
#include <cstdio>
#include <vector>

#include "analysis/table.hpp"
#include "obs/bench_io.hpp"
#include "scenario/fig10.hpp"

using namespace decos;

namespace {

/// Both arrows after one assessment round.
struct Sample {
  tta::RoundId round;
  double faulty;
  double healthy;
};

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("bench_fig9_trust", argc, argv);
  std::printf("== E3 / Fig. 9: LRU assessment trajectories ==\n\n");

  scenario::Fig10System rig({.seed = 301});
  rig.injector().inject_wearout(2, sim::SimTime{0} + sim::milliseconds(500),
                                sim::milliseconds(700), 0.8,
                                sim::milliseconds(10));
  auto& assessor = rig.diag().assessor();
  std::vector<Sample> samples;  // comp 2 is arrow A, comp 4 arrow B
  rig.run_sampled(sim::seconds(8), [&](tta::RoundId r) {
    samples.push_back(
        {r, assessor.component_trust(2), assessor.component_trust(4)});
  });

  analysis::Table t({"round", "t [s]", "trust A (wearing, comp 2)",
                     "trust B (healthy, comp 4)"});
  const std::size_t n = samples.size();
  const std::size_t stride = n > 24 ? n / 24 : 1;
  for (std::size_t i = 0; i < n; i += stride) {
    const double sec = static_cast<double>(samples[i].round) * 2.5e-3;
    t.add_row({std::to_string(samples[i].round), analysis::Table::num(sec, 2),
               analysis::Table::num(samples[i].faulty, 3),
               analysis::Table::num(samples[i].healthy, 3)});
  }
  std::printf("%s\n", t.render().c_str());

  const Sample& last_sample = samples.back();
  const auto d = assessor.diagnose_component(2);
  std::printf("final: trust A=%.3f -> diagnosis %s (%s); trust B=%.3f (%s)\n",
              last_sample.faulty, fault::to_string(d.cls),
              fault::to_string(d.action()), last_sample.healthy,
              fault::to_string(assessor.diagnose_component(4).cls));
  std::printf("expected shape: A descends toward violation, B stays near "
              "1.0 (the two arrows of Fig. 9)\n");

  rig.diag().record_detection_latency(rig.injector());
  reporter.absorb(rig.sim().metrics());
  reporter.set_info("final_trust_wearing", last_sample.faulty);
  reporter.set_info("final_trust_healthy", last_sample.healthy);
  return reporter.finish();
}
