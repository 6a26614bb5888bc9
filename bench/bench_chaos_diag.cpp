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
// The chaos rig's fault space (replay of one point, bounded sweeps) is
// bench_fault_space's (E20); bit-error-rate and wearout overrides are
// bench_bitfault's (E22).
#include <cstdio>

#include "analysis/table.hpp"
#include "obs/bench_io.hpp"
#include "scenario/chaos.hpp"

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
  return reporter.finish();
}
