// E4 — Fig. 10: judgement along time, value and space.
//
// Scenario (a): a job-inherent fault inside non-SC DAS A — error
// containment must confine the damage to DAS A and the diagnosis must
// blame the job, not the component.
// Scenario (b): a component-internal fault on component 1, which hosts
// jobs of DASs S, A and C — correlated failures across DAS borders must
// let the diagnosis blame the component (and the TMR vote of DAS S must
// mask replica S2's corruption).
// Ablation: the same scenarios judged *without* the space dimension
// (spatial radius 0 and sibling correlation off is approximated by a
// classifier that never sees the layout) — shows why space is load-
// bearing for the massive-transient pattern.
#include <cstdio>

#include "analysis/table.hpp"
#include "obs/bench_io.hpp"
#include "scenario/fig10.hpp"

using namespace decos;

int main(int argc, char** argv) {
  obs::BenchReporter reporter("bench_fig10_space", argc, argv);
  std::printf("== E4 / Fig. 10: spatial judgement & error containment ==\n\n");

  analysis::Table t({"scenario", "FRU judged", "diagnosis", "action",
                     "containment check"});

  // (a) job-inherent fault in DAS A.
  {
    scenario::Fig10System rig({.seed = 401});
    rig.injector().inject_heisenbug(rig.a(0), sim::SimTime{0} + sim::milliseconds(400),
                                    0.08);
    rig.run(sim::seconds(4));
    auto& assessor = rig.diag().assessor();
    const auto dj = assessor.diagnose_job(rig.a(0));
    // Containment: every FRU outside DAS A clean.
    bool contained = true;
    for (platform::JobId j : rig.app_jobs()) {
      if (j == rig.a(0)) continue;
      if (assessor.diagnose_job(j).cls != fault::FaultClass::kNone) {
        contained = false;
      }
    }
    const auto host = rig.system().job(rig.a(0)).host();
    if (assessor.diagnose_component(host).cls != fault::FaultClass::kNone) {
      contained = false;
    }
    t.add_row({"(a) Heisenbug in job A1", "job A1", fault::to_string(dj.cls),
               fault::to_string(dj.action()),
               contained ? "other DASs clean: yes" : "CONTAINMENT VIOLATED"});
    rig.diag().record_detection_latency(rig.injector());
    reporter.absorb(rig.sim().metrics());
    reporter.set_info("a_contained", contained ? 1.0 : 0.0);
  }

  // (b) component-internal fault on the shared component 1.
  {
    scenario::Fig10System rig({.seed = 402});
    rig.injector().inject_wearout(1, sim::SimTime{0} + sim::milliseconds(400),
                                  sim::milliseconds(500), 0.7,
                                  sim::milliseconds(10));
    rig.run(sim::seconds(5));
    auto& assessor = rig.diag().assessor();
    const auto dc = assessor.diagnose_component(1);
    // Correlation: jobs of different DASs on component 1 all implicated,
    // resolved to the component.
    std::size_t resolved = 0, hosted = 0;
    for (platform::JobId j : rig.app_jobs()) {
      if (rig.system().job(j).host() != 1) continue;
      ++hosted;
      const auto dj = assessor.diagnose_job(j);
      if (dj.cls == fault::FaultClass::kComponentInternal ||
          dj.cls == fault::FaultClass::kNone) {
        ++resolved;
      }
    }
    char buf[80];
    std::snprintf(buf, sizeof buf, "%zu/%zu hosted jobs -> component", resolved,
                  hosted);
    t.add_row({"(b) wearout in component 1", "component 1",
               fault::to_string(dc.cls), fault::to_string(dc.action()), buf});

    // TMR masking: replica S2 lives on component 1.
    std::printf("TMR (DAS S): votes=%llu disagreements=%llu vote-failures=%llu "
                "-> single component fault masked: %s\n\n",
                static_cast<unsigned long long>(rig.tmr().votes),
                static_cast<unsigned long long>(rig.tmr().disagreements),
                static_cast<unsigned long long>(rig.tmr().vote_failures),
                rig.tmr().vote_failures == 0 ? "yes" : "NO");
    rig.diag().record_detection_latency(rig.injector());
    reporter.absorb(rig.sim().metrics());
    reporter.set_info("b_vote_failures",
                      static_cast<double>(rig.tmr().vote_failures));
  }

  std::printf("%s\n", t.render().c_str());

  // --- ablation: EMI with vs without the space dimension --------------------
  std::printf("-- ablation: massive transient judged with vs without the "
              "space dimension --\n");
  for (const bool spatial : {true, false}) {
    scenario::Fig10Options opts;
    opts.seed = 403;
    opts.assessor.classifier.spatial_radius = spatial ? 1.6 : 0.0;
    scenario::Fig10System rig(opts);
    rig.injector().inject_emi_burst(1.0, 1.1,
                                    sim::SimTime{0} + sim::milliseconds(600),
                                    sim::milliseconds(12));
    // A second burst later (the vehicle passes the same interference zone).
    rig.injector().inject_emi_burst(1.0, 1.1,
                                    sim::SimTime{0} + sim::milliseconds(1400),
                                    sim::milliseconds(12));
    rig.injector().inject_emi_burst(1.0, 1.1,
                                    sim::SimTime{0} + sim::milliseconds(2600),
                                    sim::milliseconds(12));
    rig.run(sim::seconds(4));
    const auto d = rig.diag().assessor().diagnose_component(1);
    std::printf("  space %-3s -> component 1 judged %-22s (%s)\n",
                spatial ? "ON" : "OFF", fault::to_string(d.cls),
                diag::rationale(d).c_str());
    reporter.absorb(rig.sim().metrics());
  }
  std::printf("expected: with space ON the repeated EMI stays external "
              "(no action); with space OFF it degrades toward a connector "
              "suspicion -> an unnecessary garage inspection\n");
  return reporter.finish();
}
