// E2 — Fig. 8: fault patterns in the time, space and value dimensions.
//
// Injects the figure's three archetypes — wearout, massive transient
// (EMI), connector fault — into the Fig. 10 cluster and measures the
// signature the diagnostic DAS actually observed in each dimension,
// then prints the observed table next to the paper's stated pattern and
// the classifier's verdict.
#include <cstdio>
#include <set>

#include "analysis/table.hpp"
#include "diag/classifier.hpp"
#include "obs/bench_io.hpp"
#include "scenario/fig10.hpp"

using namespace decos;

namespace {

struct Signature {
  std::size_t episodes = 0;
  double gap_trend = 1.0;  // late/early mean episode gap (<1 = accelerating)
  std::size_t components_affected = 0;
  std::string dominant_value;
  std::string verdict;
};

Signature measure(const scenario::Fig10System& /*rig*/, diag::Assessor& assessor,
                  std::uint32_t components, tta::RoundId now) {
  Signature sig;
  std::set<platform::ComponentId> affected;
  std::uint64_t crc = 0, timing = 0, omission = 0;
  std::vector<tta::RoundId> all_rounds;
  const auto& ev = assessor.evidence();
  for (platform::ComponentId c = 0; c < components; ++c) {
    bool touched = false;
    for (const auto& [r, sr] : ev.about(c)) {
      touched = true;
      crc += sr.crc;
      timing += sr.timing;
      omission += sr.omission;
    }
    for (const auto& [r, orow] : ev.reported_by(c)) {
      if (orow.spread() >= 2) {
        touched = true;
        all_rounds.push_back(r);
      }
    }
    if (touched) affected.insert(c);
  }
  std::sort(all_rounds.begin(), all_rounds.end());
  all_rounds.erase(std::unique(all_rounds.begin(), all_rounds.end()),
                   all_rounds.end());
  const auto eps = diag::episodes_of(all_rounds, 25);
  sig.episodes = eps.size();
  if (eps.size() >= 4) {
    std::vector<double> gaps;
    for (std::size_t i = 1; i < eps.size(); ++i) {
      gaps.push_back(static_cast<double>(eps[i].first - eps[i - 1].last));
    }
    const std::size_t half = gaps.size() / 2;
    double early = 0, late = 0;
    for (std::size_t i = 0; i < half; ++i) early += gaps[i];
    for (std::size_t i = gaps.size() - half; i < gaps.size(); ++i) late += gaps[i];
    if (early > 0) sig.gap_trend = late / early;
  }
  sig.components_affected = affected.size();
  sig.dominant_value = crc >= timing && crc >= omission ? "bit corruption"
                       : omission >= timing             ? "message omission"
                                                        : "timing deviation";
  (void)now;
  return sig;
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("bench_fig8_patterns", argc, argv);
  std::printf("== E2 / Fig. 8: fault patterns in time, space, value ==\n\n");

  analysis::Table t({"pattern", "paper: time", "measured: episodes(gap-trend)",
                     "paper: space", "measured: #comps", "paper: value",
                     "measured: dominant", "classifier verdict"});

  // --- wearout on component 1 ------------------------------------------------
  {
    scenario::Fig10System rig({.seed = 101});
    rig.injector().inject_wearout(1, sim::SimTime{0} + sim::milliseconds(300),
                                  sim::milliseconds(600), 0.7,
                                  sim::milliseconds(10));
    rig.run(sim::seconds(6));
    auto& assessor = rig.diag().assessor();
    // For wearout the pattern lives in the *subject* rounds of component 1.
    std::vector<tta::RoundId> rounds;
    for (const auto& [r, sr] : assessor.evidence().about(1)) {
      if (sr.observer_count() >= 2) rounds.push_back(r);
    }
    const auto eps = diag::episodes_of(rounds, 25);
    double trend = 1.0;
    if (eps.size() >= 4) {
      std::vector<double> gaps;
      for (std::size_t i = 1; i < eps.size(); ++i) {
        gaps.push_back(static_cast<double>(eps[i].first - eps[i - 1].last));
      }
      const std::size_t half = gaps.size() / 2;
      double early = 0, late = 0;
      for (std::size_t i = 0; i < half; ++i) early += gaps[i];
      for (std::size_t i = gaps.size() - half; i < gaps.size(); ++i) {
        late += gaps[i];
      }
      if (early > 0) trend = late / early;
    }
    const auto d = assessor.diagnose_component(1);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%zu (x%.2f)", eps.size(), trend);
    t.add_row({"wearout", "increasing frequency", buf, "one component only",
               "1", "increasing deviation", "bit corruption",
               fault::to_string(d.cls)});
    rig.diag().record_detection_latency(rig.injector());
    reporter.absorb(rig.sim().metrics());
    reporter.set_info("wearout_episodes", static_cast<double>(eps.size()));
  }

  // --- massive transient: EMI over components 0..2 -----------------------------
  {
    scenario::Fig10System rig({.seed = 102});
    rig.injector().inject_emi_burst(1.0, 1.1, sim::SimTime{0} + sim::milliseconds(800),
                                    sim::milliseconds(12));
    rig.run(sim::seconds(3));
    auto& assessor = rig.diag().assessor();
    const auto sig = measure(rig, assessor, 5, rig.round());
    const auto d = assessor.diagnose_component(1);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%zu (x%.2f)", sig.episodes, sig.gap_trend);
    t.add_row({"massive transient", "same time (small delta)", buf,
               "multiple comps, proximity",
               std::to_string(sig.components_affected), "multiple bit flips",
               sig.dominant_value, fault::to_string(d.cls)});
    rig.diag().record_detection_latency(rig.injector());
    reporter.absorb(rig.sim().metrics());
    reporter.set_info("emi_components_affected",
                      static_cast<double>(sig.components_affected));
  }

  // --- connector fault on component 3 -------------------------------------------
  {
    scenario::Fig10System rig({.seed = 103});
    rig.injector().inject_connector_fault(3, sim::SimTime{0} + sim::milliseconds(300),
                                          sim::milliseconds(250),
                                          sim::milliseconds(10), 0.8);
    rig.run(sim::seconds(5));
    auto& assessor = rig.diag().assessor();
    // Connector pattern lives in the observer rounds of component 3.
    std::vector<tta::RoundId> rounds;
    for (const auto& [r, orow] : assessor.evidence().reported_by(3)) {
      if (orow.spread() >= 2) rounds.push_back(r);
    }
    const auto eps = diag::episodes_of(rounds, 25);
    const auto d = assessor.diagnose_component(3);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%zu (arbitrary)", eps.size());
    t.add_row({"connector fault", "arbitrary", buf, "one component only", "1",
               "message omissions", "message omission",
               fault::to_string(d.cls)});
    rig.diag().record_detection_latency(rig.injector());
    reporter.absorb(rig.sim().metrics());
    reporter.set_info("connector_episodes", static_cast<double>(eps.size()));
  }

  std::printf("%s\n", t.render().c_str());
  std::printf("expected: wearout -> component-internal; massive transient -> "
              "component-external; connector -> component-borderline\n");
  return reporter.finish();
}
