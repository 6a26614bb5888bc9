// Quickstart: build a small integrated cluster, inject two very different
// faults, and read the maintenance report.
//
//   $ ./quickstart
//
// What happens:
//   * a 5-component DECOS cluster boots (TTA core + virtual networks +
//     the diagnostic DAS),
//   * an EMI burst grazes components 0-2 (a component-EXTERNAL fault:
//     annoying, transient, requires NO maintenance),
//   * component 1 develops a PCB crack (component-INTERNAL wearout:
//     transient failures with rising frequency — replace the unit),
//   * the diagnostic service classifies both and prints the report a
//     service technician would see,
//   * the metrics registry reports how long detection took (injection ->
//     first trust violation) and the headline instrumentation counters.
#include <cstdio>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "scenario/fig10.hpp"

using namespace decos;

int main() {
  std::printf("decos-diag quickstart\n");
  std::printf("=====================\n\n");

  // The Fig10System facade assembles simulator, TTA cluster, application
  // DASs, virtual networks, LIF specs, the diagnostic DAS and the fault
  // injector. See src/scenario/fig10.cpp for doing the same by hand.
  scenario::Fig10System rig({.seed = 7});

  const sim::SimTime t0 = sim::SimTime::zero();
  rig.injector().inject_emi_burst(/*center=*/1.0, /*radius=*/1.1,
                                  t0 + sim::milliseconds(700),
                                  sim::milliseconds(12));
  rig.injector().inject_wearout(/*component=*/1, t0 + sim::milliseconds(400),
                                /*initial_gap=*/sim::milliseconds(600),
                                /*gap_shrink=*/0.7,
                                /*episode_len=*/sim::milliseconds(10));

  std::printf("running 6 simulated seconds of cluster operation...\n\n");
  rig.run(sim::seconds(6));

  std::printf("maintenance report (trust | diagnosis | action):\n");
  std::printf("------------------------------------------------\n");
  for (const auto& row : rig.diag().report()) {
    if (row.diagnosis.cls == fault::FaultClass::kNone && row.trust > 0.99) {
      continue;  // only show FRUs with something to say
    }
    std::printf("%-34s trust=%.2f  %-22s -> %s\n", row.label().c_str(), row.trust,
                fault::to_string(row.diagnosis.cls),
                fault::to_string(row.action));
    std::printf("%-34s   rationale: %s\n", "",
                diag::rationale(row.diagnosis).c_str());
  }

  std::printf("\nground truth (the injector's ledger):\n");
  for (const auto& f : rig.injector().ledger()) {
    std::printf("  [%s] %s on component %u: %s\n", fault::to_string(f.cls),
                fault::to_string(f.persistence), f.component,
                f.description.c_str());
  }

  // Observability: detection latency per injected fault, plus the counters
  // the instrumented stack accumulated along the way.
  const std::size_t latency_samples =
      rig.diag().record_detection_latency(rig.injector());
  const obs::Snapshot snap = rig.sim().metrics().snapshot();
  std::printf("\nobservability (obs::Registry snapshot):\n");
  std::printf("  injected faults with a measured detection latency: %zu\n",
              latency_samples);
  if (const auto* lat = snap.find("diag.detection_latency_us")) {
    std::printf("  detection latency [us]: n=%llu min=%lld p50=%lld p99=%lld "
                "max=%lld\n",
                static_cast<unsigned long long>(lat->hist_count),
                static_cast<long long>(lat->hist_min),
                static_cast<long long>(lat->percentile(0.50)),
                static_cast<long long>(lat->percentile(0.99)),
                static_cast<long long>(lat->hist_max));
  }
  for (const char* name : {"sim.events_executed", "tta.bus.frames_sent",
                           "diag.symptoms_ingested", "diag.trust_violations"}) {
    if (const auto* e = snap.find(name)) {
      std::printf("  %-24s %llu\n", name,
                  static_cast<unsigned long long>(e->counter));
    }
  }
  std::printf("  (full JSON snapshot: obs::to_json; Chrome trace of each "
              "fault's journey: provenance().write_chrome_trace)\n");

  std::printf("\ntakeaway: the EMI victims need NO maintenance (replacing "
              "them would be a classic No-Fault-Found removal); only the "
              "wearing component 1 needs replacement.\n");
  return 0;
}
