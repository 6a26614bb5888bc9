// E19 — provenance tracing cost and journey completeness.
//
// Three questions, all measured with the counting operator-new hook of
// E18:
//   1. What does a *disabled* tracer cost on a hot path that calls the
//      instrumented API every round? (target: zero throughput cost, zero
//      allocations — the disabled mutators are a single branch)
//   2. What does an *enabled* tracer cost on the same path, and on the
//      real instrumented diagnostic pipeline (Fig. 10 rig with an
//      intermittent fault)? (target: <= 5 % throughput)
//   3. Does every injected fault's journey terminate? A provenance-armed
//      chaos campaign (--seeds/--jobs honoured) is audited for orphaned
//      journeys; --trace <file> dumps the merged NDJSON journey record.
//
// Like E18 the numbers are *reported* (stdout + --json), not asserted —
// sanitizer builds interpose operator new and a loaded CI box skews any
// hard wall-clock bound. The tier-1 smoke run only checks the bench runs
// and exports its keys.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "obs/bench_io.hpp"
#include "obs/provenance.hpp"
#include "scenario/chaos.hpp"
#include "scenario/fig10.hpp"
#include "sim/simulator.hpp"
#include "vnet/message.hpp"
#include "vnet/multiplexer.hpp"
#include "vnet/network_plan.hpp"

namespace {
// Campaign worker threads allocate too, hence atomic; relaxed suffices,
// since every measured window runs on one thread.
std::atomic<unsigned long long> g_allocs{0};
}

// Counting global allocator hooks: every variant funnels through malloc so
// the count covers array, nothrow and over-aligned forms alike.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(a);
  if (void* p = std::aligned_alloc(align, (n + align - 1) / align * align)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace decos;

enum class TraceMode { kNone, kDisabled, kEnabled };

struct SectionResult {
  double per_sec = 0.0;
  double allocs_per_unit = 0.0;
};

/// The E18 mux spine (send -> drain -> pack -> unpack on reused buffers)
/// with one instrumented-API call per round — the density a continuously
/// manifesting fault produces. kNone runs the bare spine, the other modes
/// add tracer.event() against a disabled/enabled tracer.
SectionResult bench_mux_with_tracer(tta::RoundId rounds, TraceMode mode) {
  vnet::NetworkPlan plan;
  plan.add_vnet({0, "app", 4, 8, vnet::VnetKind::kEventTriggered});
  plan.add_vnet({1, "diag", 4, 8, vnet::VnetKind::kEventTriggered});
  plan.add_port({0, "p0", 0, 0, {1}});
  plan.add_port({1, "p1", 0, 1, {0}});
  plan.add_port({2, "p2", 1, 2, {3}});
  plan.add_port({3, "p3", 1, 3, {2}});
  vnet::Multiplexer mux(plan, 0);
  for (platform::PortId p = 0; p < 4; ++p) mux.host_port(p);

  obs::ProvenanceTracer tracer;
  obs::ProvenanceId journey = obs::kNoJourney;
  if (mode == TraceMode::kEnabled) {
    tracer.enable(1 << 12);
    journey = tracer.begin_journey("component.1", "bench", "mux spine", 0);
  }

  std::vector<vnet::Message> drained;
  std::vector<std::uint8_t> payload;
  std::vector<vnet::Message> arrived;

  auto round_once = [&](tta::RoundId r) {
    for (platform::PortId p = 0; p < 4; ++p) {
      vnet::Message m;
      m.vnet = plan.port(p).vnet;
      m.port = p;
      m.sender = plan.port(p).owner;
      m.kind = 1;
      m.value = 0.5 * static_cast<double>(r);
      (void)mux.send(m, r);
    }
    mux.drain_messages(r, drained);
    vnet::pack_into(drained, r, payload);
    mux.unpack_arrival(payload, arrived);
    if (mode != TraceMode::kNone) {
      tracer.event(journey, obs::ProvStage::kSymptom, "agent.1", "slot-crc",
                   r);
    }
    return arrived.size();
  };

  for (tta::RoundId r = 0; r < 512; ++r) round_once(r);  // warm-up
  const auto a0 = g_allocs.load(std::memory_order_relaxed);
  const auto w0 = std::chrono::steady_clock::now();
  std::size_t sink = 0;
  for (tta::RoundId r = 512; r < 512 + rounds; ++r) sink += round_once(r);
  const auto w1 = std::chrono::steady_clock::now();
  const auto allocs = g_allocs.load(std::memory_order_relaxed) - a0;
  const double wall = std::chrono::duration<double>(w1 - w0).count();

  const char* label = mode == TraceMode::kNone       ? "bare"
                      : mode == TraceMode::kDisabled ? "disabled"
                                                     : "enabled";
  SectionResult res;
  res.per_sec = static_cast<double>(rounds) / wall;
  res.allocs_per_unit =
      static_cast<double>(allocs) / static_cast<double>(rounds);
  std::printf(
      "mux_round[%s]: rounds=%llu rounds_per_sec=%.3g allocs_per_round=%.2f "
      "sink=%zu\n",
      label, static_cast<unsigned long long>(rounds), res.per_sec,
      res.allocs_per_unit, sink);
  return res;
}

/// Wall-clock of the real instrumented pipeline: a Fig. 10 rig carrying a
/// wearout (accelerating intermittent) plus a heisenbug, run to `horizon`
/// with provenance off/on. Same seed, same event population — the delta
/// is the tracer.
double bench_rig(bool provenance, sim::Duration horizon) {
  scenario::Fig10Options opts;
  opts.seed = 7;
  opts.provenance = provenance;
  scenario::Fig10System rig(opts);
  rig.injector().inject_wearout(1, sim::SimTime::zero() + sim::milliseconds(300),
                                sim::milliseconds(80));
  rig.injector().inject_heisenbug(rig.a(0),
                                  sim::SimTime::zero() + sim::milliseconds(400),
                                  0.2);
  const auto w0 = std::chrono::steady_clock::now();
  rig.run(horizon);
  const auto w1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(w1 - w0).count();
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("bench_provenance", argc, argv);

  const bool quick = reporter.flag("--quick");
  const tta::RoundId rounds = quick ? 20'000 : 200'000;

  // 1+2a. Instrumented-API cost on the E18 mux spine.
  const SectionResult bare = bench_mux_with_tracer(rounds, TraceMode::kNone);
  const SectionResult off = bench_mux_with_tracer(rounds, TraceMode::kDisabled);
  const SectionResult on = bench_mux_with_tracer(rounds, TraceMode::kEnabled);
  const double off_overhead = 100.0 * (bare.per_sec / off.per_sec - 1.0);
  const double on_overhead = 100.0 * (bare.per_sec / on.per_sec - 1.0);
  std::printf("trace overhead: disabled=%.2f%% enabled=%.2f%%\n", off_overhead,
              on_overhead);

  // 2b. End-to-end pipeline cost, provenance off vs on.
  const sim::Duration horizon = quick ? sim::seconds(1) : sim::seconds(3);
  const double rig_off = bench_rig(false, horizon);
  const double rig_on = bench_rig(true, horizon);
  const double rig_overhead = 100.0 * (rig_on / rig_off - 1.0);
  std::printf("fig10 rig: off=%.3fs on=%.3fs overhead=%.2f%%\n", rig_off,
              rig_on, rig_overhead);

  // 3. Journey-completeness audit over a provenance-armed chaos campaign.
  const auto seeds =
      reporter.seeds_or(quick ? std::vector<std::uint64_t>{1}
                              : std::vector<std::uint64_t>{1, 2, 3});
  auto archetypes = scenario::standard_archetypes();
  if (quick) archetypes.resize(3);
  scenario::Fig10Options base;
  base.provenance = true;
  base.provenance_span_cap = reporter.trace_cap();
  const scenario::ChaosCampaignResult campaign = scenario::run_chaos_campaign(
      archetypes, seeds, {}, base, reporter.jobs());
  std::printf(
      "journey audit: journeys=%llu classified=%llu orphans=%llu "
      "chaos_journeys=%llu spans=%llu dropped=%llu accuracy=%.3f\n",
      static_cast<unsigned long long>(campaign.journeys),
      static_cast<unsigned long long>(campaign.journeys_classified),
      static_cast<unsigned long long>(campaign.orphaned_journeys),
      static_cast<unsigned long long>(campaign.chaos_journeys),
      static_cast<unsigned long long>(campaign.spans),
      static_cast<unsigned long long>(campaign.spans_dropped),
      campaign.accuracy());
  if (reporter.trace_requested()) {
    reporter.set_trace_payload(campaign.provenance_ndjson);
  }

  reporter.absorb(campaign.metrics);
  reporter.set_info("mux_rounds_per_sec_bare", bare.per_sec);
  reporter.set_info("mux_rounds_per_sec_disabled", off.per_sec);
  reporter.set_info("mux_rounds_per_sec_enabled", on.per_sec);
  reporter.set_info("allocs_per_round_bare", bare.allocs_per_unit);
  reporter.set_info("allocs_per_round_disabled", off.allocs_per_unit);
  reporter.set_info("allocs_per_round_enabled", on.allocs_per_unit);
  reporter.set_info("trace_overhead_disabled_pct", off_overhead);
  reporter.set_info("trace_overhead_enabled_pct", on_overhead);
  reporter.set_info("rig_overhead_pct", rig_overhead);
  reporter.set_info("journeys", static_cast<double>(campaign.journeys));
  reporter.set_info("journeys_classified",
                    static_cast<double>(campaign.journeys_classified));
  reporter.set_info("orphaned_journeys",
                    static_cast<double>(campaign.orphaned_journeys));
  reporter.set_info("chaos_journeys",
                    static_cast<double>(campaign.chaos_journeys));
  reporter.set_info("spans", static_cast<double>(campaign.spans));
  reporter.set_info("spans_dropped",
                    static_cast<double>(campaign.spans_dropped));
  reporter.set_info("campaign_accuracy", campaign.accuracy());
  return reporter.finish();
}
