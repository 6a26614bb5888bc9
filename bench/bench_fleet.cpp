// E23 — fleet-scale simulation: tens of thousands of vehicles through the
// sharded event kernel and the campaign driver, with a counting
// operator-new hook proving the steady-state stepping path allocation-free.
//
// Section 1 (steady) runs one FleetSimulator batch twice on the same
// kernel: the first pass grows every per-shard slab and run to its
// high-water mark, the second pass is the measured window — with the
// sparse module cells pre-reserved it must allocate *nothing*, which is
// also the proof that no event crosses shards (a cross-shard push would
// grow a cold slab), and every epoch must arrive in firing order, so no
// push takes an event-queue heap. Section 2 runs the full FleetCampaign —
// batching, worker pool, ordered merge — and self-checks the paper's shapes: the
// naive strategy's NFF ratio strictly above the model-guided one
// (Fig. 12) and the failure-rate-vs-age histogram recovering the bathtub
// (Fig. 7: infant mortality and wearout both well above the useful-life
// valley). Shape violations exit nonzero, so the fleet_smoke ctest and
// the CI perf gate catch them without comparing machine-dependent floats.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "analysis/fleet.hpp"
#include "fleet/campaign.hpp"
#include "fleet/fleet_sim.hpp"
#include "obs/bench_io.hpp"

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

// Sanitizer builds interpose the allocator, which skews the counting hook;
// the steady-state hard zero is only asserted on plain builds (the CI
// perf gate), sanitized runs keep it report-only like E18.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DECOS_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DECOS_BENCH_SANITIZED 1
#endif
#endif

namespace {

using namespace decos;

#if defined(DECOS_BENCH_SANITIZED)
constexpr bool kAllocGateArmed = false;
#else
constexpr bool kAllocGateArmed = true;
#endif

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

/// Section 1: steady-state stepping. Warm-up pass reaches every high-water
/// mark; the measured pass must be allocation-free.
void bench_steady(obs::BenchReporter& reporter, std::uint32_t vehicles,
                  std::uint32_t shards) {
  fleet::FleetBatchConfig cfg;
  cfg.vehicles = vehicles;
  cfg.epochs = 4;
  cfg.shards = shards;
  cfg.seed = 2026;
  fleet::FleetSimulator sim(cfg);

  analysis::FleetBatchCounts tally(cfg.grid);
  // Sparse software-failure cells are the only unbounded tally; reserve
  // past any plausible two-pass count so the window sees no vector growth.
  tally.module_failures.reserve(2 * vehicles);

  sim.run_into(tally);  // warm-up: slabs, runs, tallies at HWM

  const auto h0 = sim.simulator().heap_pushes();
  const auto a0 = g_allocs.load(std::memory_order_relaxed);
  const auto w0 = std::chrono::steady_clock::now();
  sim.run_into(tally);
  const auto w1 = std::chrono::steady_clock::now();
  const auto allocs = g_allocs.load(std::memory_order_relaxed) - a0;
  const double wall = std::chrono::duration<double>(w1 - w0).count();
  const auto epochs = static_cast<double>(vehicles) * 4.0;
  // Every epoch is scheduled in firing order, so each push is an O(1)
  // append to its shard's run; a heap push means that order broke.
  const double heap_share =
      static_cast<double>(sim.simulator().heap_pushes() - h0) / epochs;

  std::printf(
      "steady: vehicles=%u shards=%u vehicle_epochs_per_sec=%.3g "
      "steady_allocs=%llu heap_pushes_per_vehicle_epoch=%.4f\n",
      vehicles, shards, epochs / wall,
      static_cast<unsigned long long>(allocs), heap_share);
  reporter.set_info("vehicle_epochs_per_sec", epochs / wall);
  reporter.set_info("steady_allocs", static_cast<double>(allocs));
  reporter.set_info("heap_pushes_per_vehicle_epoch", heap_share);
  check(allocs == 0 || !kAllocGateArmed,
        "steady-state fleet stepping allocated");
  check(heap_share == 0.0, "steady-state fleet epochs took the heap lane");
}

/// Section 2: the campaign driver end to end, plus the paper's shapes.
void bench_campaign(obs::BenchReporter& reporter, std::uint32_t vehicles,
                    std::uint32_t shards, unsigned jobs) {
  fleet::FleetCampaignConfig cfg;
  cfg.vehicles = vehicles;
  cfg.batch_size = std::max<std::uint32_t>(1, vehicles / 10);
  cfg.epochs = 12;
  cfg.shards = shards;
  cfg.seed = 2026;
  cfg.jobs = jobs;

  const auto w0 = std::chrono::steady_clock::now();
  const analysis::FleetAggregate agg = fleet::FleetCampaign(cfg).run();
  const auto w1 = std::chrono::steady_clock::now();
  const double wall = std::chrono::duration<double>(w1 - w0).count();

  std::printf("campaign: %s", agg.summary().c_str());
  std::printf("campaign: vehicles_per_sec=%.3g (jobs=%u)\n",
              static_cast<double>(vehicles) / wall, jobs);
  reporter.set_info("campaign_vehicles",
                    static_cast<double>(agg.vehicles()));
  reporter.set_info("campaign_vehicles_per_sec",
                    static_cast<double>(vehicles) / wall);
  reporter.set_info("nff_naive", agg.naive().nff_ratio());
  reporter.set_info("nff_guided", agg.guided().nff_ratio());
  reporter.set_info("spares_total", static_cast<double>(agg.total_spares()));
  reporter.set_info("sw_head_share", agg.modules().head_share(0.2));

  // Fig. 12 shape: symptom-driven replacement wastes strictly more.
  check(agg.naive().nff > agg.guided().nff,
        "naive NFF count not above guided");
  check(agg.naive().nff_ratio() > agg.guided().nff_ratio() + 0.05,
        "naive NFF ratio not clearly above guided");

  // Fig. 7 shape: infant mortality and wearout both rise out of the
  // useful-life valley of the failure-rate-vs-age histogram.
  double valley = 1e300;
  for (std::uint32_t b = 4; b < 16; ++b) {
    valley = std::min(valley, agg.failure_rate_per_mh(b));
  }
  double old_peak = 0.0;
  for (std::uint32_t b = 18; b < agg.grid().age_bins; ++b) {
    old_peak = std::max(old_peak, agg.failure_rate_per_mh(b));
  }
  const double infant = agg.failure_rate_per_mh(0);
  std::printf(
      "campaign: bathtub infant=%.1f valley=%.1f wearout_peak=%.1f "
      "(failures per 1e6 vehicle-hours)\n",
      infant, valley, old_peak);
  reporter.set_info("infant_over_valley", valley > 0 ? infant / valley : 0.0);
  reporter.set_info("wearout_over_valley",
                    valley > 0 ? old_peak / valley : 0.0);
  check(infant > 2.0 * valley, "no infant-mortality spike in age histogram");
  check(old_peak > 2.0 * valley, "no wearout rise in age histogram");

  // 20-80 shape: the head modules carry most software failures.
  check(agg.modules().head_share(0.2) > 0.5,
        "software failures not concentrated in head modules");
}

/// Section 3: determinism oracle — a small campaign must merge to the
/// same aggregate for any worker count and any kernel shard count.
void bench_determinism() {
  fleet::FleetCampaignConfig cfg;
  cfg.vehicles = 400;
  cfg.batch_size = 100;
  cfg.epochs = 6;
  cfg.seed = 7;

  cfg.jobs = 1;
  cfg.shards = 1;
  const auto serial = fleet::FleetCampaign(cfg).run();
  cfg.jobs = 2;
  cfg.shards = 8;
  const auto parallel = fleet::FleetCampaign(cfg).run();
  check(serial == parallel,
        "fleet aggregate differs across jobs/shard counts");
  std::printf("determinism: jobs 1/shards 1 == jobs 2/shards 8: %s\n",
              serial == parallel ? "ok" : "MISMATCH");
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("bench_fleet", argc, argv);

  // `--quick` is the ctest smoke shape; `--full` is the 100k-vehicle run;
  // `--vehicles N` overrides the campaign size outright.
  const bool quick = reporter.flag("--quick");
  const bool full = reporter.flag("--full");
  const auto vehicles = static_cast<std::uint32_t>(
      reporter.count("--vehicles")
          .value_or(quick ? 2'000 : full ? 100'000 : 10'000));
  const std::uint32_t shards = 8;

  bench_steady(reporter, quick ? 2'000 : 10'000, shards);
  bench_campaign(reporter, vehicles, shards, reporter.jobs());
  bench_determinism();

  const int rc = reporter.finish();
  if (g_failures > 0) {
    std::printf("bench_fleet: %d check(s) failed\n", g_failures);
    return 1;
  }
  return rc;
}
