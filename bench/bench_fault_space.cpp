// E20 — systematic fault-space enumeration (DESIGN.md §14).
//
// Discovery run per rig tallies every reachable (site, occurrence) pair
// of the diagnostic/maintenance path under a deterministic permanent-
// failure scenario; then one armed run per point injects exactly that
// perturbation and the convergence oracle judges the outcome (detected,
// correctly classified, trust reconverged, terminal maintenance outcome,
// zero provenance orphans). Every oracle violation prints as a
// counterexample with a one-line replay token.
//
//   bench_fault_space                        # full enumeration, all rigs
//   bench_fault_space --max-points 50        # bounded smoke (CI)
//   bench_fault_space --replay resend-push:7 # re-execute one point
//
// Exit code is nonzero when any executed point violates the oracle — the
// enumeration is a correctness gate, not a performance figure.
#include <array>
#include <cstdio>
#include <string>

#include "analysis/table.hpp"
#include "obs/bench_io.hpp"
#include "scenario/sweep.hpp"

using namespace decos;

namespace {

void print_verdict(const scenario::ConvergenceVerdict& v) {
  std::printf("    %-22s fired=%d detected=%d classified=%d reconverged=%d "
              "terminal=%d no-orphans=%d trust=%.3f -> %s\n",
              v.replay_token().c_str(), v.fired ? 1 : 0, v.detected ? 1 : 0,
              v.classified ? 1 : 0, v.trust_reconverged ? 1 : 0,
              v.terminal_outcome ? 1 : 0, v.no_orphans ? 1 : 0, v.final_trust,
              v.converged() ? "converged" : "COUNTEREXAMPLE");
}

/// One rig's sweep: table, counterexample dump, metrics/info export.
/// Returns the number of oracle violations.
std::size_t sweep_rig(obs::BenchReporter& reporter, obs::Registry& metrics,
                      scenario::SweepOptions::Rig rig, std::size_t max_points,
                      unsigned jobs) {
  scenario::SweepOptions opts;
  opts.rig = rig;
  const char* rig_name = scenario::to_string(rig);
  const scenario::SweepResult r =
      scenario::run_fault_space_sweep(opts, max_points, jobs);

  std::printf("-- rig %s: victim component %u, %llu-point space, %zu "
              "executed%s --\n",
              rig_name, scenario::sweep_victim(opts),
              static_cast<unsigned long long>(r.space_size), r.executed,
              r.truncated ? " (truncated by --max-points)" : "");
  if (!r.baseline.converged()) {
    std::printf("  baseline (unperturbed) run violates the oracle:\n");
    print_verdict(r.baseline);
  }

  analysis::Table t({"fault site", "points", "converged", "counterexamples"});
  std::array<std::size_t, fault::kFaultSiteCount> run_by_site{};
  std::array<std::size_t, fault::kFaultSiteCount> bad_by_site{};
  for (const scenario::ConvergenceVerdict& v : r.verdicts) {
    const auto s = static_cast<std::size_t>(v.site);
    ++run_by_site[s];
    if (!v.converged()) ++bad_by_site[s];
  }
  for (int s = 0; s < fault::kFaultSiteCount; ++s) {
    const auto site = static_cast<fault::FaultSite>(s);
    const auto i = static_cast<std::size_t>(s);
    t.add_row({fault::to_string(site),
               std::to_string(r.manifest.counts[i]),
               std::to_string(run_by_site[i] - bad_by_site[i]),
               std::to_string(bad_by_site[i])});
  }
  std::printf("%s", t.render().c_str());
  std::printf("  convergence rate %.4f over %zu points\n", r.convergence_rate(),
              r.executed);
  for (const scenario::ConvergenceVerdict& v : r.counterexamples) {
    print_verdict(v);
    std::printf("      replay: bench_fault_space --replay %s\n",
                v.replay_token().c_str());
  }
  std::printf("\n");

  const std::string prefix = std::string("sweep.") + rig_name;
  metrics.counter(prefix + ".points").inc(r.space_size);
  metrics.counter(prefix + ".executed").inc(r.executed);
  metrics.counter(prefix + ".counterexamples").inc(r.counterexamples.size());
  reporter.set_info(std::string(rig_name) + "_space_size",
                    static_cast<double>(r.space_size));
  reporter.set_info(std::string(rig_name) + "_executed",
                    static_cast<double>(r.executed));
  reporter.set_info(std::string(rig_name) + "_convergence_rate",
                    r.convergence_rate());
  reporter.set_info(std::string(rig_name) + "_counterexamples",
                    static_cast<double>(r.counterexamples.size()));

  std::size_t violations = r.counterexamples.size();
  if (!r.baseline.converged()) ++violations;
  return violations;
}

/// `--replay` path: re-execute one enumerated point on every rig
/// configuration. Succeeds when the point fires on at least one rig and
/// every rig it fires on converges.
int replay(obs::BenchReporter& reporter, const fault::FaultPoint& point) {
  std::printf("replaying %s on all rigs\n", point.token().c_str());
  bool fired_somewhere = false;
  bool violated = false;
  for (const auto rig : {scenario::SweepOptions::Rig::kFig10,
                         scenario::SweepOptions::Rig::kChaosRig,
                         scenario::SweepOptions::Rig::kHierarchy}) {
    scenario::SweepOptions opts;
    opts.rig = rig;
    const scenario::ConvergenceVerdict v =
        scenario::replay_fault_point(opts, point);
    std::printf("  rig %s:\n", scenario::to_string(rig));
    if (!v.fired) {
      std::printf("    point not reached on this rig\n");
      continue;
    }
    fired_somewhere = true;
    print_verdict(v);
    if (!v.converged()) violated = true;
    reporter.set_info(std::string(scenario::to_string(rig)) +
                          "_replay_converged",
                      v.converged() ? 1.0 : 0.0);
  }
  if (!fired_somewhere) {
    std::printf("  point unreachable on every rig (beyond the occurrence "
                "space?)\n");
  }
  const int rc = reporter.finish();
  return rc != 0 ? rc : ((violated || !fired_somewhere) ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("bench_fault_space", argc, argv);
  std::printf("== E20 / systematic fault-space enumeration ==\n\n");

  if (const auto token = reporter.value("--replay")) {
    const auto point = fault::parse_fault_point(*token);
    if (!point) {
      std::fprintf(stderr,
                   "error: --replay wants '<site>:<occurrence>' "
                   "(e.g. heartbeat-send:17), got '%s'\n",
                   token->c_str());
      return 1;
    }
    return replay(reporter, *point);
  }

  // 0 = the whole enumeration.
  const std::size_t max_points = reporter.count("--max-points").value_or(0);
  obs::Registry metrics;
  std::size_t violations = 0;
  violations += sweep_rig(reporter, metrics, scenario::SweepOptions::Rig::kFig10,
                          max_points, reporter.jobs());
  violations += sweep_rig(reporter, metrics,
                          scenario::SweepOptions::Rig::kChaosRig, max_points,
                          reporter.jobs());
  violations += sweep_rig(reporter, metrics,
                          scenario::SweepOptions::Rig::kHierarchy, max_points,
                          reporter.jobs());

  if (violations == 0) {
    std::printf("every executed point converged: the maintenance loop "
                "absorbs each enumerated single fault\n");
  } else {
    std::printf("%zu oracle violations — each line above carries its replay "
                "token\n", violations);
  }

  reporter.absorb(metrics);
  reporter.set_info("oracle_violations", static_cast<double>(violations));
  const int rc = reporter.finish();
  return rc != 0 ? rc : (violations != 0 ? 1 : 0);
}
