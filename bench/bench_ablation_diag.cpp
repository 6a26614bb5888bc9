// E13 — ablations of the diagnostic design choices (DESIGN.md §11).
//
// (a) Observer-credibility bar: the auto-scaled bar (3/4 of peers) vs a
//     fixed bar of 2 under *two concurrent* sender faults — the fixed bar
//     discredits every observer and blinds the sender-side analysis.
// (b) Diagnostic-vnet bandwidth: symptom budget swept down; starved
//     dissemination delays/loses evidence and degrades classification.
// (c) Trust dynamics: drop/recovery swept; fast drops detect earlier but
//     a healthy FRU under ambient noise should not be dragged down.
#include <cstdio>

#include "analysis/table.hpp"
#include "obs/bench_io.hpp"
#include "scenario/fig10.hpp"

using namespace decos;

namespace {

sim::SimTime ms(std::int64_t v) { return sim::SimTime{0} + sim::milliseconds(v); }

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("bench_ablation_diag", argc, argv);
  std::printf("== E13 / ablations of the diagnostic design choices ==\n\n");

  // --- (a) credibility bar under concurrent faults ---------------------------
  std::printf("(a) observer-credibility bar, two concurrent sender faults "
              "(dead component 3 + wearing component 1):\n");
  for (const std::uint32_t bar : {2u, 0u}) {  // 0 = auto
    scenario::Fig10Options opts;
    opts.seed = 1301;
    opts.assessor_host = 4;  // not one of the components we break
    opts.assessor.classifier.sender_spread = bar;
    scenario::Fig10System rig(opts);
    rig.injector().inject_permanent_failure(3, ms(300));
    rig.injector().inject_wearout(1, ms(600), sim::milliseconds(500), 0.7,
                                  sim::milliseconds(10));
    rig.run(sim::seconds(5));
    const auto d3 = rig.diag().assessor().diagnose_component(3);
    const auto d1 = rig.diag().assessor().diagnose_component(1);
    std::printf("  bar=%-4s -> comp3: %-22s comp1: %-22s\n",
                bar == 0 ? "auto" : "2", fault::to_string(d3.cls),
                fault::to_string(d1.cls));
    rig.diag().record_detection_latency(rig.injector());
    reporter.absorb(rig.sim().metrics());
  }
  std::printf("  expected: auto bar diagnoses both internal; the fixed bar "
              "of 2 discredits every observer and misses both\n\n");

  // --- (b) diagnostic vnet bandwidth -----------------------------------------
  std::printf("(b) diagnostic-vnet budget (msgs/round/node) vs diagnosis of "
              "a wearing component:\n");
  for (const std::uint16_t budget : {16, 4, 1, 0}) {
    scenario::Fig10Options opts;
    opts.seed = 1302;
    scenario::Fig10System rig(opts);
    // Shrink the diagnostic vnet budget after construction (vnet 0).
    rig.system().plan().mutable_vnet(platform::kDiagnosticVnet)
        .msgs_per_round_per_node = budget;
    rig.injector().inject_wearout(1, ms(300), sim::milliseconds(600), 0.7,
                                  sim::milliseconds(10));
    rig.run(sim::seconds(5));
    const auto d = rig.diag().assessor().diagnose_component(1);
    std::printf("  budget=%-3u -> %-22s (%llu symptoms reached the "
                "assessor)\n",
                budget, fault::to_string(d.cls),
                static_cast<unsigned long long>(
                    rig.diag().assessor().symptoms_processed()));
    reporter.absorb(rig.sim().metrics());
  }
  std::printf("  expected: classification robust down to small budgets "
              "(symptoms queue and arrive late), degrading only when the "
              "budget starves the agents entirely\n\n");

  // --- (c) trust dynamics -------------------------------------------------------
  std::printf("(c) trust drop per symptomatic round vs detection time and "
              "healthy-FRU stability (ambient SEU noise present):\n");
  analysis::Table t({"drop", "rounds to trust<0.5 (faulty)",
                     "final trust (healthy comp 0)"});
  for (const double drop : {0.005, 0.02, 0.08}) {
    scenario::Fig10Options opts;
    opts.seed = 1303;
    opts.assessor.trust.drop = drop;
    scenario::Fig10System rig(opts);
    rig.injector().inject_wearout(2, ms(300), sim::milliseconds(500), 0.75,
                                  sim::milliseconds(10));
    for (int i = 0; i < 6; ++i) {
      rig.injector().inject_seu(0, ms(400 + i * 700));  // ambient noise
    }
    // The first sampled round with the faulty FRU's trust below 0.5.
    tta::RoundId crossed = 0;
    rig.run_sampled(sim::seconds(6), [&](tta::RoundId r) {
      if (crossed == 0 && rig.diag().assessor().component_trust(2) < 0.5) {
        crossed = r;
      }
    });
    t.add_row({analysis::Table::num(drop, 3),
               crossed ? std::to_string(crossed) : "never",
               analysis::Table::num(
                   rig.diag().assessor().component_trust(0), 2)});
    rig.diag().record_detection_latency(rig.injector());
    reporter.absorb(rig.sim().metrics());
  }
  std::printf("%s", t.render().c_str());
  std::printf("  expected: larger drops cross the report threshold sooner; "
              "ambient transients must not push the healthy component's "
              "trust to the floor\n");
  return reporter.finish();
}
