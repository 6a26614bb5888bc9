// E15 — chaos campaign: diagnosing application faults while the
// diagnostic path itself is under attack (DESIGN.md §8).
//
// Three sweeps of the full archetype catalogue:
//   baseline  — healthy diagnostic path (reference accuracy);
//   hardened  — lossy diagnostic vnet + primary-assessor host killed and
//               revived mid-run, hardening on (heartbeats, resends,
//               dedupe, staleness, failover);
//   ablated   — same chaos, hardening off (the pre-hardening design).
// Plus the silent-agent scenario both ways: the ablated architecture
// reports a component with a crashed diagnostic agent as verified
// healthy; the hardened one flags the missing evidence.
// The chaos-rig geometry is also an enumerable fault space (DESIGN.md
// §14): `--replay <site:occurrence>` re-executes one enumerated point on
// the chaos-rig sweep configuration, and `--max-points <n>` appends a
// bounded fault-space sweep to the campaign output. bench_fault_space
// owns the exhaustive enumeration.
#include <cstdio>

#include "analysis/table.hpp"
#include "obs/bench_io.hpp"
#include "scenario/bitfault.hpp"
#include "scenario/chaos.hpp"
#include "scenario/sweep.hpp"

using namespace decos;

namespace {

double accuracy(const scenario::CampaignResult& r) {
  std::size_t correct = 0, runs = 0;
  for (const auto& row : r.per_archetype) {
    correct += row.correct;
    runs += row.runs;
  }
  return runs == 0 ? 0.0
                   : static_cast<double>(correct) / static_cast<double>(runs);
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("bench_chaos_diag", argc, argv);
  std::printf("== E15 / chaos campaign: the diagnostic path under attack ==\n\n");

  if (reporter.replay_requested()) {
    const auto point = fault::parse_fault_point(reporter.replay_token());
    if (!point) {
      std::fprintf(stderr, "error: unknown fault site in '%s'\n",
                   reporter.replay_token().c_str());
      return 1;
    }
    scenario::SweepOptions sweep_opts;
    sweep_opts.rig = scenario::SweepOptions::Rig::kChaosRig;
    const scenario::ConvergenceVerdict v =
        scenario::replay_fault_point(sweep_opts, *point);
    std::printf("replay %s on rig %s: fired=%d detected=%d classified=%d "
                "reconverged=%d terminal=%d no-orphans=%d trust=%.3f -> %s\n",
                v.replay_token().c_str(), scenario::to_string(sweep_opts.rig),
                v.fired ? 1 : 0, v.detected ? 1 : 0, v.classified ? 1 : 0,
                v.trust_reconverged ? 1 : 0, v.terminal_outcome ? 1 : 0,
                v.no_orphans ? 1 : 0, v.final_trust,
                v.converged() ? "converged" : "COUNTEREXAMPLE");
    reporter.set_info("replay_converged", v.converged() ? 1.0 : 0.0);
    const int rc = reporter.finish();
    return rc != 0 ? rc : (v.converged() ? 0 : 1);
  }

  const auto archetypes = scenario::standard_archetypes();
  const auto seeds = reporter.seeds_or({901, 902, 903});
  obs::Registry metrics;

  // Baseline on the same 7-component geometry the chaos runs use, so the
  // only difference is the chaos treatment itself.
  scenario::ChaosOptions chaos;
  scenario::Fig10Options base;
  base.components = chaos.components;
  base.assessor_host = chaos.assessor_host;
  const auto baseline =
      scenario::run_campaign(archetypes, seeds, base, reporter.jobs());

  // --trace arms provenance on the hardened sweep and dumps its merged
  // NDJSON journey record (bit-identical for every --jobs value).
  scenario::Fig10Options hardened_base;
  hardened_base.provenance = reporter.trace_requested();
  hardened_base.provenance_span_cap = reporter.trace_cap();
  const auto hardened = scenario::run_chaos_campaign(
      archetypes, seeds, chaos, hardened_base, reporter.jobs());
  if (reporter.trace_requested()) {
    reporter.set_trace_payload(hardened.provenance_ndjson);
    reporter.set_info("journeys", static_cast<double>(hardened.journeys));
    reporter.set_info("orphaned_journeys",
                      static_cast<double>(hardened.orphaned_journeys));
  }
  scenario::Fig10Options ablated_base;
  ablated_base.assessor.hardening = false;
  const auto ablated = scenario::run_chaos_campaign(archetypes, seeds, chaos,
                                                    ablated_base,
                                                    reporter.jobs());

  analysis::Table t({"archetype", "baseline", "chaos hardened", "chaos ablated"});
  for (std::size_t i = 0; i < baseline.per_archetype.size(); ++i) {
    const auto& b = baseline.per_archetype[i];
    const auto& h = hardened.per_archetype[i];
    const auto& a = ablated.per_archetype[i];
    char bb[32], hb[32], ab[32];
    std::snprintf(bb, sizeof bb, "%zu/%zu", b.correct, b.runs);
    std::snprintf(hb, sizeof hb, "%zu/%zu", h.correct, h.runs);
    std::snprintf(ab, sizeof ab, "%zu/%zu", a.correct, a.runs);
    t.add_row({b.name, bb, hb, ab});
    metrics.counter("chaos.runs", "arch=" + h.name).inc(h.runs);
    metrics.counter("chaos.correct", "arch=" + h.name).inc(h.correct);
  }
  std::printf("%s\n", t.render().c_str());

  const double base_acc = accuracy(baseline);
  std::printf("accuracy: baseline %.3f | chaos hardened %.3f | chaos "
              "ablated %.3f\n",
              base_acc, hardened.accuracy(), ablated.accuracy());
  std::printf("diagnostic-path telemetry (hardened, %zu runs): %llu "
              "failovers, %llu failbacks, %llu symptom gaps, %llu "
              "retransmissions, %llu duplicates dropped, %llu heartbeats "
              "received, %llu msgs dropped + %llu corrupted by chaos\n\n",
              hardened.runs,
              static_cast<unsigned long long>(hardened.failovers),
              static_cast<unsigned long long>(hardened.failbacks),
              static_cast<unsigned long long>(hardened.symptom_gaps),
              static_cast<unsigned long long>(hardened.retransmissions),
              static_cast<unsigned long long>(hardened.duplicates_dropped),
              static_cast<unsigned long long>(hardened.heartbeats_received),
              static_cast<unsigned long long>(hardened.chaos_dropped),
              static_cast<unsigned long long>(hardened.chaos_corrupted));

  // Chaos-injector-side counters (these live outside any rig registry);
  // the native diagnostic-path metrics — diag.agent.*, diag.assessor.*,
  // diag.evidence_staleness{fru=...} — arrive via hardened.metrics below.
  metrics.counter("chaos.msgs_dropped").inc(hardened.chaos_dropped);
  metrics.counter("chaos.msgs_corrupted").inc(hardened.chaos_corrupted);

  std::printf("silent-agent scenario (component 1's agent crashed, component "
              "itself healthy):\n");
  const auto on = scenario::run_silent_agent_scenario(true, seeds.front());
  const auto off = scenario::run_silent_agent_scenario(false, seeds.front());
  std::printf("  hardened: evidence quality %.2f, age %llu rounds, "
              "degraded-channel ONA %s -> %s\n",
              on.evidence_quality,
              static_cast<unsigned long long>(on.evidence_age),
              on.channel_degraded_ona ? "asserted" : "absent",
              on.false_healthy() ? "FALSE-HEALTHY" : "flagged for inspection");
  std::printf("  ablated:  evidence quality %.2f, age %llu rounds, "
              "degraded-channel ONA %s -> %s\n",
              off.evidence_quality,
              static_cast<unsigned long long>(off.evidence_age),
              off.channel_degraded_ona ? "asserted" : "absent",
              off.false_healthy() ? "FALSE-HEALTHY" : "flagged for inspection");
  std::printf("  expected: only the ablated architecture conflates the "
              "silenced agent with verified health\n");

  // --ber / --wearout: rides the bit-granular value-fault campaign (E22)
  // along on the same 7-component geometry, so the chaos bench doubles as
  // a quick probe of how a nonstandard bit-error rate or aging profile
  // lands in the taxonomy.
  if (reporter.has_ber() || reporter.has_wearout_profile()) {
    const auto curve = fault::WearoutCurve::profile(
        reporter.wearout_profile_or("bathtub"));
    const auto bit = scenario::run_bitfault_campaign(
        scenario::bitfault_archetypes(reporter.ber_or(2e-3),
                                      curve ? *curve : fault::WearoutCurve{},
                                      reporter.ber_or(5e-3)),
        seeds, base, reporter.jobs());
    std::printf("\nbit-fault campaign (ber/wearout overrides):\n");
    for (const auto& row : bit.rows) {
      const double n = row.runs == 0 ? 1.0 : static_cast<double>(row.runs);
      std::printf("  %-14s class-acc %.2f bit-acc %.2f flips %llu "
                  "orphans %llu\n",
                  row.name.c_str(),
                  static_cast<double>(row.class_correct) / n,
                  static_cast<double>(row.bit_correct) / n,
                  static_cast<unsigned long long>(row.flips),
                  static_cast<unsigned long long>(row.orphan_flips));
      reporter.set_info(
          "bit_class_acc_" + row.name,
          static_cast<double>(row.class_correct) / n);
    }
    reporter.set_info("bit_orphan_flips",
                      static_cast<double>(bit.total_orphans()));
  }

  // --max-points: bounded chaos-rig fault-space sweep riding along with
  // the campaign (the smoke-test hook; the exhaustive sweep lives in
  // bench_fault_space). Oracle violations fail the bench.
  std::size_t sweep_violations = 0;
  if (reporter.has_max_points()) {
    scenario::SweepOptions sweep_opts;
    sweep_opts.rig = scenario::SweepOptions::Rig::kChaosRig;
    const scenario::SweepResult sweep = scenario::run_fault_space_sweep(
        sweep_opts, reporter.max_points(), reporter.jobs());
    sweep_violations = sweep.counterexamples.size();
    if (!sweep.baseline.converged()) ++sweep_violations;
    std::printf("\nchaos-rig fault-space smoke: %zu/%llu points executed, "
                "%zu counterexamples\n",
                sweep.executed,
                static_cast<unsigned long long>(sweep.space_size),
                sweep.counterexamples.size());
    for (const scenario::ConvergenceVerdict& v : sweep.counterexamples) {
      std::printf("  COUNTEREXAMPLE %s (replay: bench_chaos_diag --replay "
                  "%s)\n",
                  v.replay_token().c_str(), v.replay_token().c_str());
    }
    metrics.counter("sweep.chaos-rig.executed").inc(sweep.executed);
    metrics.counter("sweep.chaos-rig.counterexamples").inc(sweep_violations);
    reporter.set_info("sweep_executed", static_cast<double>(sweep.executed));
    reporter.set_info("sweep_counterexamples",
                      static_cast<double>(sweep_violations));
  }

  reporter.absorb(metrics);
  reporter.absorb(hardened.metrics);
  reporter.set_info("baseline_accuracy", base_acc);
  reporter.set_info("chaos_accuracy_hardened", hardened.accuracy());
  reporter.set_info("chaos_accuracy_ablated", ablated.accuracy());
  reporter.set_info("accuracy_gap_hardened", base_acc - hardened.accuracy());
  reporter.set_info("silent_agent_false_healthy_hardened",
                    on.false_healthy() ? 1.0 : 0.0);
  reporter.set_info("silent_agent_false_healthy_ablated",
                    off.false_healthy() ? 1.0 : 0.0);
  const int rc = reporter.finish();
  return rc != 0 ? rc : (sweep_violations != 0 ? 1 : 0);
}
