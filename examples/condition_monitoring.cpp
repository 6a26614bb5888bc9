// Condition-based maintenance: catching a wearing LRU *before* it dies.
//
// The paper's §III-E argues the rising transient-failure rate is the
// wearout indicator electronics lack (there is no tyre profile to look
// at). This example runs that idea end to end:
//   1. a component develops a wearout fault (accelerating transient
//      episodes);
//   2. the diagnostic DAS detects and classifies it on the fly;
//   3. a WearoutTracker fits the episode trend and predicts the remaining
//      useful life;
//   4. the operator schedules the replacement at 60 % of predicted RUL;
//   5. the run continues and shows the replacement indeed pre-empted the
//      (would-be) permanent failure.
#include <cstdio>

#include "analysis/cbm.hpp"
#include "diag/summary.hpp"
#include "scenario/fig10.hpp"

using namespace decos;

int main() {
  std::printf("condition monitoring example\n");
  std::printf("============================\n\n");

  scenario::Fig10System rig({.seed = 2040});
  const auto t0 = sim::SimTime::zero();
  const platform::ComponentId lru = 1;

  rig.injector().inject_wearout(lru, t0 + sim::milliseconds(400),
                                sim::milliseconds(800), 0.8,
                                sim::milliseconds(10));

  // Drive until the diagnosis flags the LRU as wearing.
  std::printf("phase 1: monitoring...\n");
  diag::EvidenceSummary::ComponentFeatures f;
  analysis::WearoutTracker tracker;
  std::optional<analysis::WearoutTracker::Prognosis> prognosis;
  for (int window = 0; window < 40 && !prognosis; ++window) {
    rig.run(sim::milliseconds(250));
    const diag::Assessor& assessor = rig.diag().assessor();
    assessor.summary().component_features(lru, assessor.current_round(), f);
    const auto& eps = f.sender_eps;
    if (eps.size() < 5) continue;
    analysis::WearoutTracker t;
    for (const auto& e : eps) t.add_episode(e.first);
    prognosis = t.prognose(rig.round());
  }

  if (!prognosis) {
    std::printf("no wearout trend detected (unexpected)\n");
    return 1;
  }

  const auto d = rig.diag().assessor().diagnose_component(lru);
  std::printf("  diagnosis at t=%.2fs: %s\n", rig.sim().now().sec(),
              fault::to_string(d.cls));
  std::printf("  rationale: %s\n", diag::rationale(d).c_str());
  std::printf("  fitted episode-gap shrink: %.3f per episode\n",
              prognosis->shrink);
  std::printf("  predicted end of life: round %llu (now: %llu)\n",
              static_cast<unsigned long long>(prognosis->end_of_life_round),
              static_cast<unsigned long long>(rig.round()));
  std::printf("  remaining useful life: ~%llu rounds (%.2f s)\n\n",
              static_cast<unsigned long long>(prognosis->remaining_rounds),
              static_cast<double>(prognosis->remaining_rounds) * 2.5e-3);

  // Schedule the replacement at 60% of the predicted remaining life.
  const auto replace_in = sim::Duration{
      static_cast<std::int64_t>(
          static_cast<double>(prognosis->remaining_rounds) * 0.6 * 2.5e6)};
  std::printf("phase 2: replacement scheduled in %.2f s (60%% of RUL)...\n",
              replace_in.sec());
  rig.run(replace_in);

  // The garage replaces the LRU: the physical fault goes with it.
  rig.injector().repair_component(lru);
  rig.system().cluster().node(lru).faults() = tta::FaultControls{};
  rig.system().cluster().node(lru).restart();
  std::printf("  LRU %u replaced at t=%.2fs\n\n", lru, rig.sim().now().sec());

  // Post-replacement: the symptom stream about the LRU dries up and the
  // would-be end of life passes uneventfully.
  const auto symptoms_before = rig.diag().assessor().symptoms_processed();
  rig.run(sim::seconds(3));
  const auto post = rig.diag().assessor().symptoms_processed() - symptoms_before;
  std::printf("phase 3: 3 s past the predicted end of life: %llu new "
              "symptoms (was averaging hundreds per second before)\n",
              static_cast<unsigned long long>(post));
  std::printf("membership: component %u %s\n", lru,
              (rig.system().cluster().node(0).membership() & (1u << lru))
                  ? "operational"
                  : "MISSING");
  std::printf("\ntakeaway: the transient-rate indicator turned an eventual "
              "roadside breakdown into a scheduled part swap.\n");
  return 0;
}
