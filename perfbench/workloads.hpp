// The four canonical rigs, driven from outside through public APIs.
//
// A workload is set up once (rig or fleet built, warm-up run), then runs
// units — the thing a per-unit latency counts — until its budget ends.
// Every unit hands back its host timing, its allocation count, the
// simulated statistics it produced and a digest of them. The simulator is
// deterministic for a fixed seed, so a unit's statistics and digest depend
// only on (workload, seed, unit id): a traced replay of the same ids must
// reproduce them bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Simulated statistics of one unit: deltas of the program's own
/// obs::Registry counters plus the scores the benchmark derives from each
/// unit's outcome. Repeat exactly for a fixed seed.
enum Stat : std::size_t {
  kRounds,           // TDMA rounds simulated, summed over rigs
  kVehicleEpochs,    // fleet drive epochs
  kEvents,           // sim.events_executed
  kFramesSent,       // tta.bus.frames_sent
  kReceptions,       // sum of tta.slot_verdicts
  kCrcErrors,        // tta.slot_verdicts{verdict=crc_error}
  kSymptoms,         // diag.symptoms_ingested
  kTesterAccepted,   // diag.hierarchy.symptoms_accepted
  kDuplicates,       // diag.assessor.duplicates_dropped
  kRetransmissions,  // diag.agent.retransmissions
  kClassifications,  // sum of diag.classifications
  kDeltasForwarded,  // diag.hierarchy.deltas_forwarded
  kDeltasAccepted,   // diag.hierarchy.deltas_accepted
  kDeltasDuplicate,  // diag.hierarchy.deltas_duplicate
  kFailovers,        // diag.assessor.failovers
  kRelayed,          // vnet.mux.messages_relayed
  kOverflows,        // vnet.mux.overflows
  kInjections,       // sum of fault.injections
  kChaosDropped,     // ChaosInjector drops
  kChaosCorrupted,   // ChaosInjector corruptions
  kWorkOrders,       // maint.work_orders
  kRepairsVerified,  // maint.repairs_verified
  kMaintRetries,     // maint.retries
  kNffRemovals,      // NFF removals (executor, or fleet guided strategy)
  kRemovals,         // hardware removals (same sources)
  kScored,           // diagnoses scored against the injector's truth
  kMatched,          // ... of which matched
  kSubjects,         // closed-loop subjects (maintenance)
  kRecovered,        // ... of which recovered
  kStatCount
};
using SimStats = std::array<std::uint64_t, kStatCount>;

struct UnitResult {
  std::uint64_t id = 0;
  bool ok = true;
  std::string error;
  std::int64_t submit_ns = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t digest = 0;
  SimStats stats{};
  std::vector<Span> spans;  // traced passes only
  std::uint64_t clamped = 0;  // UnitTrace::clamped(), traced passes only

  [[nodiscard]] double wall_ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
};

/// When a pass stops: it dispatches no new unit once `seconds` have gone
/// by since its first unit and `min_units` are done, and never runs more
/// than `max_units`. A pass calls start() when its first unit is due, so
/// state it builds first is not counted.
class Budget {
 public:
  Budget(double seconds, std::size_t min_units, std::size_t max_units)
      : seconds_(seconds), min_units_(min_units), max_units_(max_units) {}

  void start() { deadline_ns_ = now_ns() + static_cast<std::int64_t>(seconds_ * 1e9); }
  [[nodiscard]] bool more(std::size_t done) const {
    return done < max_units_ && (done < min_units_ || now_ns() < deadline_ns_);
  }
  [[nodiscard]] std::size_t max_units() const { return max_units_; }

 private:
  double seconds_;
  std::size_t min_units_;
  std::size_t max_units_;
  std::int64_t deadline_ns_ = 0;
};

struct PassResult {
  std::vector<UnitResult> units;
  unsigned workers = 1;
  std::int64_t wall_ns = 0;  // first dispatch to last unit harvested
  /// Spans outside any unit (the fleet's ordered merge), traced only.
  std::vector<Span> extra_spans;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the rig or fleet and runs its warm-up. Called several times
  /// to time set-up; each call replaces the previous state.
  virtual void setup() = 0;
  /// Runs units 0, 1, ... from the state setup() leaves (rebuilding it
  /// when an earlier pass consumed it). A traced pass wraps the TtaNode
  /// hooks and records spans.
  virtual PassResult run(Budget budget, bool traced) = 0;
  /// Checks that need a whole pass (the fleet aggregate against one
  /// FleetCampaign::run). Returns "" when they hold.
  virtual std::string verify(const PassResult& timed) = 0;
  /// Allocations of a steady-state stepping pass (fleet.steady_allocs);
  /// 0 for workloads without one.
  virtual std::uint64_t steady_allocs() { return 0; }

  /// Units the traced replay re-runs and compares (ids 0..replay-1); the
  /// timed pass always runs at least this many.
  [[nodiscard]] virtual std::size_t replay_units() const = 0;
  /// What one unit of simulated throughput is ("rounds", ...).
  [[nodiscard]] virtual const char* sim_unit() const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed);
[[nodiscard]] std::vector<std::string> workload_names();

}  // namespace perfbench
