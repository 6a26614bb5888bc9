#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <utility>

#include "analysis/fleet.hpp"
#include "exec/runner.hpp"
#include "fault/chaos.hpp"
#include "fleet/campaign.hpp"
#include "fleet/fleet_sim.hpp"
#include "scenario/chaos.hpp"
#include "scenario/hierarchy.hpp"
#include "scenario/maintenance.hpp"

namespace perfbench {
namespace {

using namespace decos;

constexpr unsigned kWorkers = 2;

std::uint64_t mix(std::uint64_t x) {  // splitmix64
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// FNV-1a over the values fed in.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ull;
    }
  }
  void add(std::string_view s) {
    for (const char c : s) h_ = (h_ ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
    add(s.size());
  }
  void add_double(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Counters and histograms of a snapshot. Gauges are left out: one of
/// them (sim.events_per_sec) is host time.
void digest_snapshot(Digest& d, const obs::Snapshot& s) {
  for (const obs::SnapshotEntry& e : s.entries) {
    if (e.kind == obs::MetricKind::kGauge) continue;
    d.add(e.name);
    d.add(e.label);
    d.add(e.counter);
    d.add(e.hist_count);
    d.add_double(e.hist_sum);
    d.add(static_cast<std::uint64_t>(e.hist_min));
    d.add(static_cast<std::uint64_t>(e.hist_max));
    for (const std::uint64_t b : e.buckets) d.add(b);
  }
}

/// A registry counter cell feeding one Stat ("" is the unlabelled cell).
struct StatCell {
  Stat stat;
  std::string name;
  std::string label;
};

/// Every registry cell the Stat fields are summed from.
const std::vector<StatCell>& stat_cells() {
  static const std::vector<StatCell> cells = [] {
    std::vector<StatCell> c = {
        {kEvents, "sim.events_executed", ""},
        {kFramesSent, "tta.bus.frames_sent", ""},
        {kCrcErrors, "tta.slot_verdicts", "verdict=crc_error"},
        {kSymptoms, "diag.symptoms_ingested", ""},
        {kTesterAccepted, "diag.hierarchy.symptoms_accepted", ""},
        {kDuplicates, "diag.assessor.duplicates_dropped", ""},
        {kRetransmissions, "diag.agent.retransmissions", ""},
        {kDeltasForwarded, "diag.hierarchy.deltas_forwarded", ""},
        {kDeltasAccepted, "diag.hierarchy.deltas_accepted", ""},
        {kDeltasDuplicate, "diag.hierarchy.deltas_duplicate", ""},
        {kFailovers, "diag.assessor.failovers", ""},
        {kRelayed, "vnet.mux.messages_relayed", ""},
        {kOverflows, "vnet.mux.overflows", ""},
        {kWorkOrders, "maint.work_orders", ""},
        {kRepairsVerified, "maint.repairs_verified", ""},
        {kMaintRetries, "maint.retries", ""},
        {kNffRemovals, "maint.nff_removals", ""},
        {kRemovals, "maint.repairs",
         std::string("action=") +
             fault::to_string(fault::MaintenanceAction::kReplaceComponent)},
    };
    for (const char* v : {"correct", "crc_error", "timing_error", "omission"}) {
      c.push_back({kReceptions, "tta.slot_verdicts", std::string("verdict=") + v});
    }
    for (int k = 0; k <= static_cast<int>(fault::FaultClass::kNone); ++k) {
      const std::string label =
          std::string("cls=") + fault::to_string(static_cast<fault::FaultClass>(k));
      c.push_back({kClassifications, "diag.classifications", label});
      c.push_back({kInjections, "fault.injections", label});
    }
    return c;
  }();
  return cells;
}

SimStats stats_from_snapshot(const obs::Snapshot& s) {
  SimStats st{};
  for (const StatCell& c : stat_cells()) {
    const obs::SnapshotEntry* e = s.find(c.name, c.label);
    if (e != nullptr && e->kind == obs::MetricKind::kCounter) st[c.stat] += e->counter;
  }
  return st;
}

void digest_stats(Digest& d, const SimStats& st) {
  for (const std::uint64_t v : st) d.add(v);
}

/// stat_cells() held as handles, so a long-lived rig can be read every
/// block without a snapshot. Getting a handle creates the cell if the
/// program has not yet: a zero counter, which nothing in the program reads.
class CounterSet {
 public:
  explicit CounterSet(obs::Registry& r) {
    for (const StatCell& c : stat_cells()) {
      cells_.push_back({c.stat, r.counter(c.name, c.label)});
    }
  }

  [[nodiscard]] SimStats read() const {
    SimStats s{};
    for (const Cell& c : cells_) s[c.stat] += c.counter.value();
    return s;
  }

 private:
  struct Cell {
    Stat stat;
    obs::Counter counter;
  };
  std::vector<Cell> cells_;
};

// --- hook wrapping ---------------------------------------------------------

/// Wraps the node's installed hooks so each call is timed into the trace
/// `*cur` points at. Unset hooks stay unset: the node falls back to
/// built-in behaviour for those, and wrapping would change it.
void wrap_hooks(tta::TtaNode& node, UnitTrace* const* cur) {
  if (node.payload_provider) {
    node.payload_provider = [orig = std::move(node.payload_provider), cur](
                                tta::RoundId r, std::vector<std::uint8_t>& out) {
      const LeafTimer t(*cur, "platform.dispatch");
      orig(r, out);
    };
  }
  if (node.delivery_handler) {
    node.delivery_handler = [orig = std::move(node.delivery_handler), cur](
                                tta::NodeId sender,
                                const std::vector<std::uint8_t>& payload,
                                tta::RoundId r) {
      const LeafTimer t(*cur, "vnet.deliver");
      orig(sender, payload, r);
    };
  }
  if (node.observation_sink) {
    node.observation_sink = [orig = std::move(node.observation_sink),
                             cur](const tta::SlotObservation& o) {
      const LeafTimer t(*cur, "diag.observe");
      orig(o);
    };
  }
}

void wrap_cluster(platform::System& system, UnitTrace* const* cur) {
  for (tta::NodeId n = 0; n < system.cluster().size(); ++n) {
    wrap_hooks(system.cluster().node(n), cur);
  }
}

// --- unit scaffolding ------------------------------------------------------

/// Times `body` as unit `id`; in a traced pass it runs under a root span
/// named `root` and its spans are kept.
template <typename Body>
UnitResult timed_unit(std::uint64_t id, bool traced, const char* root,
                      Body&& body) {
  UnitResult u;
  u.id = id;
  UnitTrace trace(id);
  UnitTrace* const t = traced ? &trace : nullptr;
  const std::uint64_t a0 = thread_allocs();
  u.start_ns = now_ns();
  if (t) t->open(root);
  body(u, t);
  if (t) t->close_all();
  u.end_ns = now_ns();
  u.allocs = thread_allocs() - a0;
  if (t) {
    u.spans = std::move(trace.spans());
    u.clamped = trace.clamped();
  }
  return u;
}

/// Closed loop over `workers` threads through exec::ExperimentRunner:
/// units are submitted in batches of `batch`, the runner's ordered merge
/// is the barrier, and the next batch goes out once the last is merged.
/// `merge(u)` runs on the calling thread in submission order.
PassResult run_batches(Budget budget, std::size_t batch,
                       const std::function<UnitResult(std::uint64_t)>& unit,
                       const std::function<void(UnitResult&)>& merge = {}) {
  PassResult pass;
  pass.workers = kWorkers;
  exec::ExperimentRunner runner(kWorkers);
  const std::int64_t t0 = now_ns();
  budget.start();
  std::uint64_t next = 0;
  while (budget.more(next)) {
    const std::size_t n = std::min<std::size_t>(batch, budget.max_units() - next);
    std::vector<std::function<UnitResult()>> runs;
    runs.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      runs.push_back([&unit, id = next + k] { return unit(id); });
    }
    const std::int64_t submit = now_ns();
    auto outcomes = runner.run<UnitResult>(std::move(runs));
    for (std::size_t k = 0; k < n; ++k) {
      UnitResult u;
      if (outcomes[k].ok()) {
        u = std::move(*outcomes[k].result);
      } else {
        u.id = next + k;
        u.ok = false;
        u.error = outcomes[k].error;
        u.start_ns = u.end_ns = submit;
      }
      u.submit_ns = submit;
      if (merge && u.ok) merge(u);
      pass.units.push_back(std::move(u));
    }
    next += n;
  }
  pass.wall_ns = now_ns() - t0;
  return pass;
}

/// The first unit whose digest differs from that of the unit `period`
/// before it, in a pass that repeats its work every `period` units; 0 when
/// every such pair agrees.
std::size_t first_unrepeated(const PassResult& pass, std::size_t period) {
  for (std::size_t i = period; i < pass.units.size(); ++i) {
    const UnitResult& a = pass.units[i];
    const UnitResult& b = pass.units[i - period];
    if (a.ok && b.ok && a.digest != b.digest) return i;
  }
  return 0;
}

// --- chaos-campaign and maintenance-loop -------------------------------------

/// Spans of one archetype run, opened from the archetype's own callbacks:
/// run_*_campaign builds the rig, then calls inject(rig), runs the kernel,
/// then (chaos only) diagnose(rig).
struct ArchetypeTrace {
  UnitTrace* trace = nullptr;
  std::uint32_t rig_build = kNoParent;
  std::uint32_t run = kNoParent;
};

scenario::Archetype instrument(const scenario::Archetype& proto,
                               ArchetypeTrace* at) {
  scenario::Archetype a = proto;
  a.inject = [orig = proto.inject, at](scenario::Fig10System& rig) {
    UnitTrace& t = *at->trace;
    t.close(at->rig_build);
    const std::uint32_t w = t.open("obs.wrap_hooks");
    wrap_cluster(rig.system(), &at->trace);
    t.close(w);
    const std::uint32_t s = t.open("fault.inject");
    orig(rig);
    t.close(s);
    at->run = t.open("tta.run");
  };
  a.diagnose = [orig = proto.diagnose, at](scenario::Fig10System& rig) {
    UnitTrace& t = *at->trace;
    if (at->run != kNoParent) t.close(at->run);
    const std::uint32_t s = t.open("diag.read");
    diag::Diagnosis d = orig(rig);
    t.close(s);
    return d;
  };
  return a;
}

/// One (archetype, seed) per unit; a batch is one seed across the whole
/// catalogue, so every batch has the same archetype mix.
class ArchetypeWorkload : public Workload {
 public:
  explicit ArchetypeWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    archetypes_ = scenario::standard_archetypes();
    // Warm-up: one batch across the whole catalogue on both workers, as
    // the timed pass runs it, but on a fixed seed: set-up is then the
    // same work for every --seed, and setup_s compares like with like.
    (void)run_seeded(Budget(0.0, archetypes_.size(), archetypes_.size()), false,
                     kWarmupSeed);
  }

  PassResult run(Budget budget, bool traced) override {
    return run_seeded(budget, traced, seed_);
  }

  std::string verify(const PassResult&) override { return ""; }
  [[nodiscard]] std::size_t replay_units() const override { return archetypes_.size(); }
  [[nodiscard]] const char* sim_unit() const override { return "rounds"; }

 protected:
  /// Runs one campaign call for (arch, seed); fills u.stats and seeds
  /// u.digest with the call's result fields.
  virtual void run_one(const scenario::Archetype& arch, std::uint64_t seed,
                       UnitResult& u, UnitTrace* t) = 0;
  [[nodiscard]] virtual std::int64_t round_ns() const = 0;
  [[nodiscard]] virtual sim::Duration extra_horizon() const { return {}; }

  /// Opens the rig-build span and returns the archetype to hand the
  /// campaign: the prototype itself untraced, an instrumented copy traced.
  scenario::Archetype prepare(const scenario::Archetype& arch, UnitTrace* t,
                              ArchetypeTrace& at) {
    if (t == nullptr) return arch;
    at.trace = t;
    at.rig_build = t->open("scenario.rig_build");
    return instrument(arch, &at);
  }

  static constexpr std::uint64_t kWarmupSeed = 0xA11CE;

  /// Units 0, 1, ...: batch b runs every archetype on one campaign seed
  /// drawn from (`seed`, b).
  PassResult run_seeded(Budget budget, bool traced, std::uint64_t seed) {
    return run_batches(budget, archetypes_.size(), [this, traced, seed](std::uint64_t id) {
      const scenario::Archetype& arch = archetypes_[id % archetypes_.size()];
      const std::uint64_t unit_seed = mix(seed * 0x100000001B3ull + id / archetypes_.size());
      return timed_unit(id, traced, "scenario.unit", [&](UnitResult& u, UnitTrace* t) {
        run_one(arch, unit_seed, u, t);
        u.stats[kRounds] = static_cast<std::uint64_t>(
            (arch.horizon + extra_horizon()).ns() / round_ns());
        Digest d;
        d.add(u.digest);
        digest_stats(d, u.stats);
        u.digest = d.value();
      });
    });
  }

  std::uint64_t seed_;
  std::vector<scenario::Archetype> archetypes_;
};

class ChaosWorkload final : public ArchetypeWorkload {
 public:
  using ArchetypeWorkload::ArchetypeWorkload;

 protected:
  void run_one(const scenario::Archetype& arch, std::uint64_t seed,
               UnitResult& u, UnitTrace* t) override {
    ArchetypeTrace at;
    const std::vector<scenario::Archetype> one{prepare(arch, t, at)};
    // Defaults: 10 % drop and 5 % corruption on the diagnostic vnet, the
    // primary assessor's host killed at 800 ms and revived at 2.2 s.
    const scenario::ChaosCampaignResult r =
        scenario::run_chaos_campaign(one, {seed}, chaos_, base_, 1);
    u.stats = stats_from_snapshot(r.metrics);
    u.stats[kChaosDropped] = r.chaos_dropped;
    u.stats[kChaosCorrupted] = r.chaos_corrupted;
    u.stats[kScored] = r.runs;
    u.stats[kMatched] = r.correct;
    Digest d;
    digest_snapshot(d, r.metrics);
    for (const std::uint64_t v :
         {r.failovers, r.failbacks, r.symptom_gaps, r.duplicates_dropped,
          r.agent_drops_reported, r.retransmissions, r.heartbeats_sent,
          r.heartbeats_received}) {
      d.add(v);
    }
    for (std::size_t a = 0; a < analysis::ConfusionMatrix::kClasses; ++a) {
      for (std::size_t b = 0; b < analysis::ConfusionMatrix::kClasses; ++b) {
        d.add(r.confusion.count(static_cast<fault::FaultClass>(a),
                                static_cast<fault::FaultClass>(b)));
      }
    }
    u.digest = d.value();
  }
  [[nodiscard]] std::int64_t round_ns() const override {
    return (base_.slot_length * static_cast<std::int64_t>(chaos_.components)).ns();
  }

 private:
  scenario::ChaosOptions chaos_{};
  scenario::Fig10Options base_{};
};

class MaintenanceWorkload final : public ArchetypeWorkload {
 public:
  using ArchetypeWorkload::ArchetypeWorkload;

 protected:
  void run_one(const scenario::Archetype& arch, std::uint64_t seed,
               UnitResult& u, UnitTrace* t) override {
    ArchetypeTrace at;
    const std::vector<scenario::Archetype> one{prepare(arch, t, at)};
    const scenario::MaintenanceCampaignResult r =
        scenario::run_maintenance_campaign(one, {seed}, options_, base_, 1);
    u.stats = stats_from_snapshot(r.metrics);
    u.stats[kSubjects] = r.runs;
    u.stats[kRecovered] = r.recovered;
    // The loop diagnosed right when every action it executed is the
    // Fig. 11 action of the true class — and it executed none when that
    // action is "no action".
    const fault::MaintenanceAction want = fault::action_for(arch.truth);
    std::uint64_t wanted = 0, other = 0;
    for (const obs::SnapshotEntry& e : r.metrics.entries) {
      if (e.kind != obs::MetricKind::kCounter || e.name != "maint.repairs") continue;
      (e.label == std::string("action=") + fault::to_string(want) ? wanted : other) +=
          e.counter;
    }
    const bool matched = other == 0 &&
                         (want == fault::MaintenanceAction::kNoAction || wanted > 0);
    u.stats[kScored] = 1;
    u.stats[kMatched] = matched ? 1 : 0;
    Digest d;
    digest_snapshot(d, r.metrics);
    for (const std::uint64_t v :
         {r.repairs_attempted, r.repairs_verified, r.repairs_failed, r.retries,
          r.nff_removals, r.spares_consumed, r.quarantines}) {
      d.add(v);
    }
    d.add(static_cast<std::uint64_t>(r.per_archetype.front().ttr_us_total));
    u.digest = d.value();
  }
  [[nodiscard]] std::int64_t round_ns() const override {
    return (base_.slot_length * static_cast<std::int64_t>(base_.components)).ns();
  }
  [[nodiscard]] sim::Duration extra_horizon() const override {
    return options_.repair_grace;
  }

 private:
  scenario::MaintenanceOptions options_{};
  scenario::Fig10Options base_{};
};

// --- hierarchy-512 -----------------------------------------------------------

/// One 64-component x 7-ring VCube rig (512 FRUs), stepped in blocks of
/// rounds on one thread. After the warm-up a permanent failure hits a
/// seed-chosen victim and, 20 rounds later, a second seed-chosen
/// component's assessor position is killed — the E21 flagship story.
/// The rig is rebuilt every kCycleBlocks blocks and a pass runs whole
/// cycles, so every pass repeats the same block sequence, however fast
/// the host: unit u and unit u + kCycleBlocks must agree exactly.
class HierarchyWorkload final : public Workload {
 public:
  static constexpr std::uint32_t kComponents = 64;
  static constexpr std::uint32_t kRings = 7;
  static constexpr std::int64_t kWarmupRounds = 100;
  static constexpr std::int64_t kBlockRounds = 8;
  /// Steady-phase rounds before the fault and before the kill.
  static constexpr std::int64_t kFaultRound = 15;
  static constexpr std::int64_t kKillRound = kFaultRound + 20;
  /// Rounds after the fault during which the victim is not scored. The
  /// violation shows within 2-3 rounds (E21), but the composed class
  /// reads component-external for ~50 rounds until the episode pattern
  /// is recognised as permanent.
  static constexpr std::int64_t kGraceRounds = 80;
  /// Blocks per rig: the fault, the kill, the dissemination that follows
  /// and five blocks scored after the grace.
  static constexpr std::uint64_t kCycleBlocks = 16;
  static_assert(kCycleBlocks * kBlockRounds >= kFaultRound + kGraceRounds + 4 * kBlockRounds);

  explicit HierarchyWorkload(std::uint64_t seed) : seed_(seed) {
    const std::uint64_t h = mix(seed ^ 0x512);
    victim_ = static_cast<platform::ComponentId>(1 + h % (kComponents - 1));
    dead_ = static_cast<platform::ComponentId>(1 + (h >> 20) % (kComponents - 1));
    if (dead_ == victim_) {
      dead_ = static_cast<platform::ComponentId>(1 + victim_ % (kComponents - 1));
    }
  }

  void setup() override { build(false); }

  PassResult run(Budget budget, bool traced) override {
    PassResult pass;
    pass.workers = 1;
    // Rig rebuilds and registry snapshots between units are not timed:
    // set-up time is setup_s, and the snapshot is the benchmark's own.
    std::int64_t untimed_ns = 0;
    const std::int64_t t0 = now_ns();
    budget.start();
    SimStats prev{};
    for (std::uint64_t id = 0; id % kCycleBlocks != 0 || budget.more(id); ++id) {
      if (id % kCycleBlocks == 0) {
        const std::int64_t b0 = now_ns();
        if (id > 0 || traced || !fresh_) build(traced);
        fresh_ = false;
        prev = counters_->read();
        untimed_ns += now_ns() - b0;
      }
      try {
        UnitResult u = block(id, traced, prev);
        // Every unit also hashes the whole registry: every counter and
        // histogram the program keeps (~10 ms for this registry).
        const std::int64_t s0 = now_ns();
        Digest d;
        d.add(u.digest);
        digest_snapshot(d, rig_->sim().metrics().snapshot());
        u.digest = d.value();
        untimed_ns += now_ns() - s0;
        pass.units.push_back(std::move(u));
      } catch (const std::exception& e) {
        UnitResult u;
        u.id = id;
        u.ok = false;
        u.error = e.what();
        pass.units.push_back(std::move(u));
      }
    }
    pass.wall_ns = now_ns() - t0 - untimed_ns;
    return pass;
  }

  std::string verify(const PassResult& timed) override {
    if (const std::size_t i = first_unrepeated(timed, kCycleBlocks); i != 0) {
      return "hierarchy block " + std::to_string(i % kCycleBlocks) +
             " differs between rigs";
    }
    return "";
  }
  [[nodiscard]] std::size_t replay_units() const override { return kCycleBlocks; }
  [[nodiscard]] const char* sim_unit() const override { return "rounds"; }

 private:
  /// Unit `id`: one block of rounds, then the composed verdicts read back.
  /// `prev` holds the registry's totals at the block's start.
  UnitResult block(std::uint64_t id, bool traced, SimStats& prev) {
    sim::Simulator& sim = rig_->sim();
    const sim::Duration block = round_ * kBlockRounds;
    return timed_unit(id, traced, "scenario.unit", [&](UnitResult& r, UnitTrace* t) {
      r.submit_ns = r.start_ns;
      current_ = t;
      const std::uint32_t run = t ? t->open("tta.run") : 0;
      rig_->run(block);
      if (t) t->close(run);
      const std::uint32_t read = t ? t->open("diag.read") : 0;
      const diag::Diagnosis dv = rig_->diag().diagnose_component(victim_);
      const double dead_trust = rig_->diag().component_trust(dead_);
      const bool dead_convicted =
          rig_->diag().first_component_violation(dead_).has_value();
      if (t) t->close(read);
      current_ = nullptr;

      const SimStats cur = counters_->read();
      for (std::size_t k = 0; k < kStatCount; ++k) r.stats[k] = cur[k] - prev[k];
      prev = cur;
      r.stats[kRounds] = static_cast<std::uint64_t>(kBlockRounds);
      const sim::SimTime end = sim.now();
      if (end < fault_at_ || end >= fault_at_ + round_ * kGraceRounds) {
        const fault::FaultClass truth = end < fault_at_
                                            ? fault::FaultClass::kNone
                                            : fault::FaultClass::kComponentInternal;
        r.stats[kScored] = 1;
        r.stats[kMatched] = dv.cls == truth ? 1 : 0;
      }
      Digest d;
      digest_stats(d, r.stats);
      d.add(static_cast<std::uint64_t>(dv.cls));
      d.add_double(dead_trust);
      d.add(dead_convicted ? 1 : 0);
      r.digest = d.value();
    });
  }

  /// Builds the rig, wraps its hooks when traced (the warm-up's spans
  /// land in a set-up trace that is discarded), warms it up and schedules
  /// the fault and the kill.
  void build(bool traced) {
    fresh_ = true;
    storm_.reset();
    counters_.reset();
    rig_.reset();
    scenario::HierarchyOptions o;
    o.seed = mix(seed_);
    o.components = kComponents;
    o.rings = kRings;
    rig_ = std::make_unique<scenario::HierarchySystem>(o);
    counters_ = std::make_unique<CounterSet>(rig_->sim().metrics());
    storm_ = std::make_unique<fault::ChaosInjector>(rig_->sim(), rig_->system());
    round_ = o.slot_length * static_cast<std::int64_t>(o.components);
    UnitTrace warm(UINT64_MAX);
    current_ = traced ? &warm : nullptr;
    if (traced) wrap_cluster(rig_->system(), &current_);
    rig_->run(round_ * kWarmupRounds);
    current_ = nullptr;
    fault_at_ = rig_->sim().now() + round_ * kFaultRound;
    rig_->injector().inject_permanent_failure(victim_, fault_at_);
    storm_->kill_host(dead_, rig_->sim().now() + round_ * kKillRound);
  }

  std::uint64_t seed_;
  platform::ComponentId victim_ = 0;
  platform::ComponentId dead_ = 0;
  sim::Duration round_{};
  sim::SimTime fault_at_{};
  std::unique_ptr<scenario::HierarchySystem> rig_;
  std::unique_ptr<fault::ChaosInjector> storm_;
  std::unique_ptr<CounterSet> counters_;
  bool fresh_ = false;  // rig_ has not run a pass yet
  UnitTrace* current_ = nullptr;
};

// --- fleet-1m ----------------------------------------------------------------

/// ~1M vehicles x 12 epochs as FleetSimulator batches on the 8-shard
/// kernel, two workers, merged in order into an analysis::FleetAggregate.
/// Every pass over the fleet repeats the same seed, so unit u and unit
/// u + batches_per_pass must agree exactly.
class FleetWorkload final : public Workload {
 public:
  static constexpr std::uint32_t kVehicles = 1'000'000;
  static constexpr std::uint32_t kBatchVehicles = 62'500;
  static constexpr std::uint32_t kBatches = kVehicles / kBatchVehicles;  // 16
  static constexpr std::uint64_t kEpochs = 12;
  static constexpr std::uint32_t kShards = 8;
  static constexpr std::size_t kDispatch = 8;

  explicit FleetWorkload(std::uint64_t seed) : fleet_seed_(mix(seed ^ 0xF1EE7)) {}

  void setup() override {
    // Warm-up: one dispatch round of batches, as the timed pass runs them.
    (void)run(Budget(0.0, kDispatch, kDispatch), false);
  }

  PassResult run(Budget budget, bool traced) override {
    slots_.assign(kDispatch, analysis::FleetBatchCounts{});
    first_pass_ = analysis::FleetAggregate(grid_);
    first_pass_batches_ = 0;
    std::vector<Span> merge_spans;
    PassResult pass = run_batches(
        budget, kDispatch,
        [this, traced](std::uint64_t id) { return unit(id, traced); },
        [this, traced, &merge_spans](UnitResult& u) {
          if (u.id >= kBatches) return;
          UnitTrace t(u.id);
          if (traced) t.open("analysis.merge");
          first_pass_.merge(slots_[u.id % kDispatch]);
          ++first_pass_batches_;
          if (traced) {
            t.close_all();
            merge_spans.insert(merge_spans.end(), t.spans().begin(), t.spans().end());
          }
        });
    pass.extra_spans = std::move(merge_spans);
    return pass;
  }

  std::string verify(const PassResult& timed) override {
    // Same seed every pass: unit u must equal unit u - kBatches.
    if (const std::size_t i = first_unrepeated(timed, kBatches); i != 0) {
      return "fleet batch " + std::to_string(i % kBatches) +
             " differs between passes over the fleet";
    }
    if (first_pass_batches_ != kBatches) return "no complete pass over the fleet";
    fleet::FleetCampaignConfig cfg;
    cfg.vehicles = kVehicles;
    cfg.batch_size = 50'000;  // another split than the units': batch invariance
    cfg.epochs = kEpochs;
    cfg.shards = kShards;
    cfg.seed = fleet_seed_;
    cfg.jobs = kWorkers;
    cfg.grid = grid_;
    const analysis::FleetAggregate whole = fleet::FleetCampaign(cfg).run();
    if (!(whole == first_pass_)) {
      return "batch-merged fleet aggregate != FleetCampaign::run()";
    }
    return "";
  }

  std::uint64_t steady_allocs() override {
    // bench_fleet's probe: a second pass over a warmed kernel, with the
    // sparse cells pre-reserved, allocates nothing.
    fleet::FleetSimulator sim(config(0));
    analysis::FleetBatchCounts tally(grid_);
    tally.module_failures.reserve(2 * kBatchVehicles);
    sim.run_into(tally);
    const std::uint64_t a0 = thread_allocs();
    sim.run_into(tally);
    return thread_allocs() - a0;
  }

  // One whole pass over the fleet, which verify() also needs.
  [[nodiscard]] std::size_t replay_units() const override { return kBatches; }
  [[nodiscard]] const char* sim_unit() const override { return "vehicle-epochs"; }

 private:
  [[nodiscard]] fleet::FleetBatchConfig config(std::uint32_t batch) const {
    fleet::FleetBatchConfig c;
    c.first_vehicle = batch * kBatchVehicles;
    c.vehicles = kBatchVehicles;
    c.epochs = kEpochs;
    c.shards = kShards;
    c.seed = fleet_seed_;
    c.grid = grid_;
    return c;
  }

  UnitResult unit(std::uint64_t id, bool traced) {
    return timed_unit(id, traced, "fleet.unit", [&](UnitResult& u, UnitTrace* t) {
      const std::uint32_t b = t ? t->open("fleet.batch_build") : 0;
      fleet::FleetSimulator sim(config(static_cast<std::uint32_t>(id % kBatches)));
      if (t) t->close(b);
      const std::uint32_t s = t ? t->open("fleet.step") : 0;
      analysis::FleetBatchCounts counts = sim.run();
      if (t) t->close(s);
      u.stats = stats_from_snapshot(sim.simulator().metrics().snapshot());
      u.stats[kVehicleEpochs] = counts.epochs;
      u.stats[kNffRemovals] = counts.guided.nff;
      u.stats[kRemovals] = counts.guided.removals;
      Digest d;
      digest_stats(d, u.stats);
      d.add(counts.first_vehicle);
      d.add(counts.vehicles);
      for (const auto* s : {&counts.naive, &counts.guided}) {
        d.add(s->visits);
        d.add(s->removals);
        d.add(s->nff);
        d.add(s->eliminated);
      }
      for (const auto* v : {&counts.hw_failures_by_age, &counts.exposure_hours_by_age,
                            &counts.spare_demand, &counts.failures_by_cohort,
                            &counts.vehicles_by_cohort}) {
        for (const std::uint64_t x : *v) d.add(x);
      }
      for (const auto& c : counts.module_failures) {
        d.add(c.vehicle);
        d.add(c.module);
        d.add(c.count);
      }
      u.digest = d.value();
      slots_[id % kDispatch] = std::move(counts);
    });
  }

  std::uint64_t fleet_seed_;
  analysis::FleetGrid grid_{};
  /// One slot per unit of the dispatch batch in flight; unit closures
  /// write their own slot, the ordered merge reads them.
  std::vector<analysis::FleetBatchCounts> slots_;
  analysis::FleetAggregate first_pass_{};
  std::uint32_t first_pass_batches_ = 0;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"hierarchy-512", "chaos-campaign", "maintenance-loop", "fleet-1m"};
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "hierarchy-512") return std::make_unique<HierarchyWorkload>(seed);
  if (name == "chaos-campaign") return std::make_unique<ChaosWorkload>(seed);
  if (name == "maintenance-loop") return std::make_unique<MaintenanceWorkload>(seed);
  if (name == "fleet-1m") return std::make_unique<FleetWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
