// E21 — hierarchical diagnosis scaling (DESIGN.md §15).
//
// Three sections, all on the VCube hierarchy rig (scenario/hierarchy.hpp):
//
//  1. Scaling sweep: clusters of 8..64 components (every component hosts
//     an assessor position), application rings scaled so the largest run
//     carries 512 FRUs. Per-round routed diagnostic traffic (heartbeat +
//     symptom copies, counted at the agents' tester-routing fan-out) must
//     scale ~ N·(d+1) = N·log N — the table reports the measured ratio,
//     which stays flat when the overlay delivers its bound. A permanent
//     failure is injected into every run and the composed detection
//     latency (injection round -> first composed trust violation) is
//     reported; it stays bounded while N grows 8x. The largest run's
//     faults-off window (rounds 200..400) is held to zero allocations
//     per round (--json only).
//  2. Kill-any-assessor sweep (N=8): every overlay position is killed in
//     turn; the composed view must convict the dead host every time with
//     zero legacy failovers — the overlay self-heals by construction.
//  3. 512-FRU end-to-end: the N=64 flagship run additionally loses an
//     assessor position (host 42) mid-run next to the faulty component;
//     both must be convicted, still with zero failovers. Its receive-side
//     decode work (records decoded per frame reception, --json only) is
//     gated exactly: receivers decode only the records they host.
//
// Counts and latencies are deterministic (fixed seed, logical time), so
// the --json export is gated in CI against a checked-in baseline by
// tools/check_bench.cmake (exact equality on the structural fields,
// tolerance on throughput-like ones).
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "analysis/table.hpp"
#include "fault/chaos.hpp"
#include "obs/bench_io.hpp"
#include "scenario/hierarchy.hpp"

// Counts every global allocation, so a window of rounds can be held to
// zero.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace decos;

namespace {

/// One TDMA round of an N-component cluster in simulated time.
sim::Duration round_len(const scenario::HierarchyOptions& opts) {
  return opts.slot_length * static_cast<std::int64_t>(opts.components);
}

std::string fmt(double v, const char* spec = "%.1f") {
  char buf[32];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

tta::RoundId current_round(scenario::HierarchySystem& rig) {
  return rig.system().cluster().node(0).current_round();
}

void run_rounds(scenario::HierarchySystem& rig, std::int64_t rounds) {
  rig.run(round_len(rig.options()) * rounds);
}

struct ScalePoint {
  std::uint32_t components = 0;
  std::uint32_t rings = 0;
  std::uint64_t frus = 0;
  std::uint32_t dimension = 0;
  double msgs_per_round = 0.0;
  /// msgs_per_round / (N * (d+1)): flat across N when traffic is N·log N.
  double nlogn_ratio = 0.0;
  /// Allocations per round over the faults-off traffic window.
  double allocs_per_round = 0.0;
  std::uint64_t detect_rounds = 0;
  std::uint64_t failovers = 0;
  bool victim_convicted = false;
};

ScalePoint run_scale_point(std::uint32_t components, std::uint32_t rings) {
  scenario::HierarchyOptions opts;
  opts.components = components;
  opts.rings = rings;
  scenario::HierarchySystem rig(opts);

  // Steady-state traffic over rounds 200..400 (round 0..200 warm up the
  // heartbeat/trust machinery).
  run_rounds(rig, 200);
  const std::uint64_t fanout0 =
      rig.sim().metrics().counter("diag.agent.route_fanout").value();
  const tta::RoundId r0 = current_round(rig);
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  run_rounds(rig, 200);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs0;
  const std::uint64_t fanout1 =
      rig.sim().metrics().counter("diag.agent.route_fanout").value();
  const tta::RoundId r1 = current_round(rig);

  // Permanent failure: the victim's own assessor position dies with it,
  // so conviction must come from the surviving testers of its slice.
  const auto victim = static_cast<platform::ComponentId>(components / 2 + 1);
  const tta::RoundId inject_round = current_round(rig);
  rig.injector().inject_permanent_failure(victim, rig.sim().now());
  run_rounds(rig, 300);

  ScalePoint p;
  p.components = components;
  p.rings = rings;
  p.frus = static_cast<std::uint64_t>(components) * (1 + rings);
  p.dimension = rig.diag().topology().dimension();
  p.msgs_per_round = static_cast<double>(fanout1 - fanout0) /
                     static_cast<double>(r1 - r0);
  p.nlogn_ratio = p.msgs_per_round /
                  (static_cast<double>(components) * (p.dimension + 1));
  p.allocs_per_round =
      static_cast<double>(allocs) / static_cast<double>(r1 - r0);
  const auto violation = rig.diag().first_component_violation(victim);
  p.victim_convicted =
      violation.has_value() &&
      rig.diag().diagnose_component(victim).cls != fault::FaultClass::kNone;
  if (violation && *violation > inject_round) {
    p.detect_rounds = *violation - inject_round;
  }
  p.failovers = rig.diag().failovers();
  return p;
}

/// Section 2: kill every overlay position of an 8-component cube in turn.
/// Returns how many kills the composed view convicted with zero failovers.
std::uint32_t kill_sweep(std::uint32_t components, std::uint64_t& failovers) {
  std::uint32_t convicted = 0;
  for (platform::ComponentId p = 0; p < components; ++p) {
    scenario::HierarchyOptions opts;
    opts.components = components;
    scenario::HierarchySystem rig(opts);
    fault::ChaosInjector storm(rig.sim(), rig.system());
    run_rounds(rig, 100);
    storm.kill_host(p, rig.sim().now());
    run_rounds(rig, 400);
    const bool ok = rig.diag().first_component_violation(p).has_value() &&
                    rig.diag().component_trust(p) < 0.5;
    if (ok) ++convicted;
    failovers += rig.diag().failovers();
    std::printf("  kill position %2u -> %s (trust %.3f, failovers %llu)\n",
                unsigned(p), ok ? "convicted" : "MISSED",
                rig.diag().component_trust(p),
                static_cast<unsigned long long>(rig.diag().failovers()));
  }
  return convicted;
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("bench_hierarchy_scaling", argc, argv);
  std::printf("== E21 / hierarchical diagnosis scaling ==\n\n");

  // `--smoke`: the ctest/sanitizer entry point — small cubes only, no
  // 512-FRU flagship, so the sanitized run stays in CI budget. The full
  // bench (and the baseline gate) runs in the perf-smoke job.
  const bool smoke = reporter.flag("--smoke");

  // --- 1. scaling sweep --------------------------------------------------
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sizes = {
      {8, 1}, {16, 2}, {32, 3}, {64, 7}};  // {components, rings}
  if (smoke) sizes = {{8, 1}, {16, 2}};
  analysis::Table t({"components", "FRUs", "dim", "msgs/round",
                     "msgs / N(d+1)", "detect (rounds)", "failovers"});
  bool all_convicted = true;
  std::uint64_t sweep_failovers = 0;
  for (const auto& [n, rings] : sizes) {
    const ScalePoint p = run_scale_point(n, rings);
    t.add_row({std::to_string(p.components), std::to_string(p.frus),
               std::to_string(p.dimension),
               fmt(p.msgs_per_round), fmt(p.nlogn_ratio, "%.2f"),
               std::to_string(p.detect_rounds), std::to_string(p.failovers)});
    all_convicted = all_convicted && p.victim_convicted;
    sweep_failovers += p.failovers;
    const std::string suffix = "_" + std::to_string(p.components);
    reporter.set_info("msgs_per_round" + suffix, p.msgs_per_round);
    reporter.set_info("nlogn_ratio" + suffix, p.nlogn_ratio);
    reporter.set_info("detect_rounds" + suffix,
                      static_cast<double>(p.detect_rounds));
    if (p.components == sizes.back().first) {
      reporter.set_info("frus", static_cast<double>(p.frus));
      reporter.set_info("rig_allocs_per_round", p.allocs_per_round);
    }
  }
  std::printf("%s", t.render().c_str());
  std::printf("  per-round routed copies / (N * (d+1)) stays flat: traffic is "
              "~ N log N, not N^2\n\n");

  // --- 2. kill any single assessor (N=8) ---------------------------------
  std::printf("-- kill-any-assessor sweep (8 positions) --\n");
  std::uint64_t kill_failovers = 0;
  const std::uint32_t convicted = kill_sweep(8, kill_failovers);
  std::printf("  %u/8 positions convicted after their own death, "
              "%llu legacy failovers\n\n",
              convicted, static_cast<unsigned long long>(kill_failovers));

  // --- 3. 512-FRU flagship with a concurrent assessor loss ----------------
  bool flagship_converged = true;
  std::uint64_t flagship_failovers = 0;
  if (!smoke) {
    std::printf("-- 512-FRU flagship: fault + assessor loss --\n");
    scenario::HierarchyOptions big;
    big.components = 64;
    big.rings = 7;
    scenario::HierarchySystem rig(big);
    fault::ChaosInjector storm(rig.sim(), rig.system());
    run_rounds(rig, 150);
    rig.injector().inject_permanent_failure(21, rig.sim().now());
    storm.kill_host(42, rig.sim().now() + round_len(big) * 20);
    run_rounds(rig, 400);
    const bool faulty_convicted =
        rig.diag().first_component_violation(21).has_value() &&
        rig.diag().component_trust(21) < 0.5;
    const bool dead_assessor_convicted =
        rig.diag().first_component_violation(42).has_value() &&
        rig.diag().component_trust(42) < 0.5;
    const auto stats = rig.diag().hierarchy_stats();
    // Receive-side decode work: each component decodes only the records
    // it hosts a receiver for, a fraction of each ~19-record frame. An
    // unfiltered decode shows up here as the full frame size. Every
    // correct slot verdict is one frame delivered to a component.
    const std::uint64_t receptions =
        rig.sim().metrics().counter("tta.slot_verdicts", "verdict=correct")
            .value();
    std::uint64_t decoded = 0;
    for (platform::ComponentId c = 0; c < rig.system().component_count();
         ++c) {
      decoded += rig.system().component(c).records_decoded();
    }
    reporter.set_info("records_decoded_per_reception",
                      receptions == 0 ? 0.0
                                      : static_cast<double>(decoded) /
                                            static_cast<double>(receptions));
    flagship_converged = faulty_convicted && dead_assessor_convicted;
    flagship_failovers = rig.diag().failovers();
    std::printf("  victim 21 %s, dead assessor 42 %s, failovers %llu\n",
                faulty_convicted ? "convicted" : "MISSED",
                dead_assessor_convicted ? "convicted" : "MISSED",
                static_cast<unsigned long long>(flagship_failovers));
    std::printf("  deltas: emitted %llu forwarded %llu accepted %llu "
                "duplicate %llu rejected %llu\n\n",
                static_cast<unsigned long long>(stats.deltas_emitted),
                static_cast<unsigned long long>(stats.deltas_forwarded),
                static_cast<unsigned long long>(stats.deltas_accepted),
                static_cast<unsigned long long>(stats.deltas_duplicate),
                static_cast<unsigned long long>(stats.deltas_rejected));
  }

  const bool ok = all_convicted && convicted == 8 && sweep_failovers == 0 &&
                  kill_failovers == 0 && flagship_converged &&
                  flagship_failovers == 0;
  reporter.set_info("scale_convicted", all_convicted ? 1.0 : 0.0);
  reporter.set_info("kill_convicted", static_cast<double>(convicted));
  reporter.set_info("failovers",
                    static_cast<double>(sweep_failovers + kill_failovers +
                                        flagship_failovers));
  reporter.set_info("flagship_converged", flagship_converged ? 1.0 : 0.0);
  std::printf(ok ? "hierarchical diagnosis holds its bound end to end\n"
                 : "E21 ACCEPTANCE VIOLATION (see above)\n");

  const int rc = reporter.finish();
  return rc != 0 ? rc : (ok ? 0 : 1);
}
