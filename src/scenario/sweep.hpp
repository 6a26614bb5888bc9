// Systematic fault-space enumeration: exhaustive one-fault-per-run
// sweeps over the named injection sites of fault/faultpoint.hpp.
//
// The chaos campaign samples fault schedules randomly; this driver
// enumerates them. A *discovery run* executes the rig with the registry
// in counting mode and tallies how often each fault site is reached —
// that tally IS the reachable (site, occurrence) space, because the
// simulator is deterministic and an armed run replays the counting run
// bit-identically up to the firing instant. The sweep then executes one
// fresh, deterministic run per enumerated point, arms exactly that
// point, and judges the run with a *convergence oracle*:
//
//   detected     the victim's trust violated after the injection,
//   classified   some work order on the victim opened with the ground-
//                truth class (or the final diagnosis matches it),
//   reconverged  the victim's final trust is back above the verify
//                threshold (or the FRU was deliberately quarantined),
//   terminal     every work order closed and the victim's reached a
//                terminal state (verified or quarantined),
//   no orphans   the provenance audit finds no injected-fault journey
//                that fell out of the pipeline unnoticed.
//
// A point whose run violates the oracle is a *counterexample*, carrying
// a one-line replay token "site:occurrence" — re-running the bench with
// `--replay site:occurrence` reproduces exactly that run. Runs execute
// on the campaign grid (scenario/campaign.hpp: run_grid), one row per
// fault point, with ordered merging, so `--jobs N` output is
// bit-identical to serial.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/faultpoint.hpp"
#include "platform/types.hpp"
#include "sim/simulator.hpp"

namespace decos::scenario {

struct SweepOptions {
  /// The enumerated rig. kFig10 is the paper's default five-component
  /// cluster with a single assessor (the acceptance target for full
  /// enumeration); kChaosRig is the seven-component cluster with a
  /// replicated assessor whose host is the victim, so the failover and
  /// failback sites become reachable. kHierarchy is the eight-component
  /// VCube overlay (scenario/hierarchy.hpp) whose victim is itself an
  /// overlay position, so the dissemination sites (kDissemForward,
  /// kStaleVerdict, kTesterReassign) become reachable and the oracle
  /// exercises the composed partial-view diagnosis end to end.
  enum class Rig : std::uint8_t { kFig10, kChaosRig, kHierarchy };
  Rig rig = Rig::kFig10;
  std::uint64_t seed = 1;
};

[[nodiscard]] const char* to_string(SweepOptions::Rig rig);

/// The victim component of the sweep's injected fault (component 1 on
/// the Fig. 10 rig; the primary assessor's host on the chaos rig).
[[nodiscard]] platform::ComponentId sweep_victim(const SweepOptions& opts);

/// The reachable fault space of one deterministic run: reach counts per
/// site, as tallied by the discovery run's counting registry.
struct FaultPointManifest {
  std::array<std::uint64_t, fault::kFaultSiteCount> counts{};

  [[nodiscard]] bool operator==(const FaultPointManifest&) const = default;
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t t = 0;
    for (const std::uint64_t c : counts) t += c;
    return t;
  }
  /// Enumerates the space in site-major, occurrence-minor order — the
  /// sweep's canonical execution order. `max` == 0 means all points.
  [[nodiscard]] std::vector<fault::FaultPoint> points(
      std::size_t max = 0) const;
};

/// The convergence oracle's judgement of one armed run.
struct ConvergenceVerdict {
  fault::FaultSite site = fault::FaultSite::kHeartbeatSend;
  std::uint64_t occurrence = 0;
  std::uint64_t seed = 0;
  /// The armed point actually fired (guaranteed by prefix determinism;
  /// a false value means the enumeration premise itself broke).
  bool fired = false;
  bool detected = false;
  bool classified = false;
  bool trust_reconverged = false;
  bool terminal_outcome = false;
  bool no_orphans = false;
  double final_trust = 0.0;

  [[nodiscard]] bool operator==(const ConvergenceVerdict&) const = default;
  [[nodiscard]] bool converged() const {
    return fired && detected && classified && trust_reconverged &&
           terminal_outcome && no_orphans;
  }
  /// The one-line reproduction handle: pass to a bench as
  /// `--replay <token>` (site:occurrence; the rig, seed and windows are
  /// the sweep defaults).
  [[nodiscard]] std::string replay_token() const {
    return fault::FaultPoint{site, occurrence}.token();
  }
};

struct DiscoveryResult {
  FaultPointManifest manifest;
  /// Oracle verdict of the unperturbed counting run — the sweep's
  /// premise: if the baseline does not converge, no armed run can be
  /// expected to, and the rig configuration (not the fault space) is at
  /// fault.
  ConvergenceVerdict baseline;
};

/// Runs the discovery (counting) pass: one deterministic run, no firing.
[[nodiscard]] DiscoveryResult discover_fault_space(const SweepOptions& opts);

struct SweepResult {
  FaultPointManifest manifest;
  ConvergenceVerdict baseline;
  /// Size of the discovered space (manifest.total()).
  std::uint64_t space_size = 0;
  /// Points actually executed (== space_size unless truncated).
  std::size_t executed = 0;
  /// True when `max_points` capped the sweep below the full space.
  bool truncated = false;
  /// One verdict per executed point, in enumeration order. Bit-identical
  /// for every worker count (ordered merge behind the runner's barrier).
  std::vector<ConvergenceVerdict> verdicts;
  /// The verdicts that violated the oracle.
  std::vector<ConvergenceVerdict> counterexamples;

  [[nodiscard]] double convergence_rate() const {
    return verdicts.empty()
               ? 1.0
               : 1.0 - static_cast<double>(counterexamples.size()) /
                           static_cast<double>(verdicts.size());
  }
};

/// Discovery + one armed run per enumerated point. `max_points` == 0
/// executes the full space; `jobs` == 0 uses hardware concurrency (the
/// verdict list is identical for every value).
[[nodiscard]] SweepResult run_fault_space_sweep(const SweepOptions& opts,
                                                std::size_t max_points = 0,
                                                unsigned jobs = 0);

/// Re-executes exactly one enumerated point — the `--replay` path. The
/// run is bit-identical to the sweep's run of the same point.
[[nodiscard]] ConvergenceVerdict replay_fault_point(const SweepOptions& opts,
                                                    fault::FaultPoint point);

}  // namespace decos::scenario
