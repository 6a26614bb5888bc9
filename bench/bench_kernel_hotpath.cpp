// E18 — kernel hot-path microbenchmark: events/sec and allocations/event
// through the discrete-event kernel, allocations/round through the vnet
// mux spine (send -> drain -> pack -> unpack), and allocations/symptom
// through the diagnostic evidence ingest, measured with a counting
// operator-new hook.
//
// The scheduling section reproduces the event population of a steady
// TDMA simulation: staggered periodic timers (slot ticks), one-shot
// self-rescheduling chains (frame deliveries), and watchdog cancel/re-arm
// loops (the assessor failover detector). The mux section runs the
// per-round message path on caller-provided reusable buffers. Both
// sections warm up first so slab/ring/buffer high-water marks are
// reached, then assert nothing about the numbers — they are *reported*
// (stdout + --json) so the experiment table stays measured, not asserted;
// sanitizer builds interpose operator new and would skew any hard zero.
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "diag/evidence.hpp"
#include "diag/symptom.hpp"
#include "obs/bench_io.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "vnet/message.hpp"
#include "vnet/multiplexer.hpp"
#include "vnet/network_plan.hpp"

namespace {
unsigned long long g_allocs = 0;
}

// Counting global allocator hooks: every variant funnels through malloc so
// the count covers array, nothrow and over-aligned forms alike.
void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  ++g_allocs;
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

struct SectionResult {
  double per_sec = 0.0;
  double allocs_per_unit = 0.0;
  double heap_pushes_per_unit = 0.0;  // scheduling only
};

/// Scheduling hot path: 16 periodic timers (1 ms period, 61 us stagger),
/// 8 one-shot re-scheduling chains (501 us), 4 watchdog cancel/re-arm
/// loops (10 ms timeout kicked every 733 us). 200 ms sim-time warm-up,
/// then measured to `horizon` sim-seconds.
SectionResult bench_scheduling(int horizon_seconds) {
  sim::Simulator s(42);

  std::array<sim::Timer, 16> timers;
  for (int i = 0; i < 16; ++i) {
    timers[static_cast<std::size_t>(i)].start(
        s, sim::SimTime::zero() + sim::microseconds(i * 61),
        []() -> std::optional<sim::Duration> { return sim::milliseconds(1); },
        sim::EventPriority::kClock);
  }

  struct Chain {
    sim::Simulator* s = nullptr;
    void arm() {
      s->schedule_after(sim::microseconds(501), [this] { arm(); },
                        sim::EventPriority::kApplication);
    }
  };
  std::array<Chain, 8> chains;
  for (auto& c : chains) {
    c.s = &s;
    c.arm();
  }

  struct Watchdog {
    sim::Simulator* s = nullptr;
    sim::EventId pending{};
    void kick() {
      s->cancel(pending);
      pending = s->schedule_after(sim::milliseconds(10), [] {},
                                  sim::EventPriority::kDiagnosis);
      s->schedule_after(sim::microseconds(733), [this] { kick(); },
                        sim::EventPriority::kDiagnosis);
    }
  };
  std::array<Watchdog, 4> dogs;
  for (auto& d : dogs) {
    d.s = &s;
    d.kick();
  }

  s.run_until(sim::SimTime::zero() + sim::milliseconds(200));  // warm-up
  const auto ev0 = s.events_executed();
  const auto h0 = s.heap_pushes();
  const auto a0 = g_allocs;
  const auto w0 = std::chrono::steady_clock::now();
  s.run_until(sim::SimTime::zero() + sim::seconds(horizon_seconds));
  const auto w1 = std::chrono::steady_clock::now();
  const auto events = s.events_executed() - ev0;
  const auto allocs = g_allocs - a0;
  const double wall = std::chrono::duration<double>(w1 - w0).count();

  SectionResult r;
  r.per_sec = static_cast<double>(events) / wall;
  r.allocs_per_unit =
      static_cast<double>(allocs) / static_cast<double>(events);
  // Schedules that arrived out of firing order and took the heap instead
  // of the O(1) run, per executed event (info only: the mix decides it).
  r.heap_pushes_per_unit = static_cast<double>(s.heap_pushes() - h0) /
                           static_cast<double>(events);
  std::printf(
      "scheduling: events=%llu events_per_sec=%.3g allocs_per_event=%.4f "
      "heap_pushes_per_event=%.4f\n",
      static_cast<unsigned long long>(events), r.per_sec, r.allocs_per_unit,
      r.heap_pushes_per_unit);
  return r;
}

/// Mux spine: two event-triggered vnets, four ports, four sends per round,
/// then the steady-state round path on reused buffers —
/// drain_messages -> pack_into -> unpack_arrival.
SectionResult bench_mux_round(tta::RoundId rounds) {
  vnet::NetworkPlan plan;
  plan.add_vnet({0, "app", 4, 8, vnet::VnetKind::kEventTriggered});
  plan.add_vnet({1, "diag", 4, 8, vnet::VnetKind::kEventTriggered});
  plan.add_port({0, "p0", 0, 0, {1}});
  plan.add_port({1, "p1", 0, 1, {0}});
  plan.add_port({2, "p2", 1, 2, {3}});
  plan.add_port({3, "p3", 1, 3, {2}});
  vnet::Multiplexer mux(plan, 0);
  for (platform::PortId p = 0; p < 4; ++p) mux.host_port(p);

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
    return arrived.size();
  };

  for (tta::RoundId r = 0; r < 512; ++r) round_once(r);  // warm-up
  const auto a0 = g_allocs;
  const auto w0 = std::chrono::steady_clock::now();
  std::size_t sink = 0;
  for (tta::RoundId r = 512; r < 512 + rounds; ++r) sink += round_once(r);
  const auto w1 = std::chrono::steady_clock::now();
  const auto allocs = g_allocs - a0;
  const double wall = std::chrono::duration<double>(w1 - w0).count();

  SectionResult res;
  res.per_sec = static_cast<double>(rounds) / wall;
  res.allocs_per_unit =
      static_cast<double>(allocs) / static_cast<double>(rounds);
  std::printf(
      "mux_round: rounds=%llu rounds_per_sec=%.3g allocs_per_round=%.2f "
      "sink=%zu\n",
      static_cast<unsigned long long>(rounds), res.per_sec,
      res.allocs_per_unit, sink);
  return res;
}

/// Diag ingest path: the evidence store consuming a steady symptom stream
/// (transport verdicts about a rotating set of senders, plus job-level
/// value symptoms), pruned every round to a bounded window as a real
/// assessor does, but of 2,000 rounds: each prune pretends the store's
/// whole window minus that has passed, so the bench stays small. Like the
/// event and mux spines this path allocates nothing once warm (flat
/// round logs with observer masks), and a prune that shifted the whole
/// window on every round would collapse the throughput floor.
SectionResult bench_diag_ingest(tta::RoundId rounds) {
  diag::EvidenceStore store;
  constexpr tta::RoundId kPruneAhead =
      diag::EvidenceStore::kWindowRounds - 2'000;
  sim::Rng rng(7);

  auto round_once = [&](tta::RoundId r) {
    // Four observers judge one misbehaving sender per round.
    const auto subject = static_cast<platform::ComponentId>(r % 8);
    for (platform::ComponentId obs = 0; obs < 4; ++obs) {
      if (obs == subject) continue;
      diag::Symptom s;
      s.type = rng.bernoulli(0.5) ? diag::SymptomType::kSlotCrcError
                                  : diag::SymptomType::kSlotTimingError;
      s.observer = obs;
      s.subject_component = subject;
      s.round = r;
      store.ingest(s);
    }
    // One job-level symptom every few rounds.
    if (r % 4 == 0) {
      diag::Symptom s;
      s.type = diag::SymptomType::kValueOutOfRange;
      s.observer = 1;
      s.subject_component = 1;
      s.subject_job = static_cast<platform::JobId>(r % 6);
      s.round = r;
      s.magnitude = rng.uniform(0.1, 2.0);
      store.ingest(s);
    }
    store.prune(r + kPruneAhead);
  };

  for (tta::RoundId r = 0; r < 4'096; ++r) round_once(r);  // warm-up
  const auto n0 = store.symptoms_ingested();
  const auto a0 = g_allocs;
  const auto w0 = std::chrono::steady_clock::now();
  for (tta::RoundId r = 4'096; r < 4'096 + rounds; ++r) round_once(r);
  const auto w1 = std::chrono::steady_clock::now();
  const auto symptoms = store.symptoms_ingested() - n0;
  const auto allocs = g_allocs - a0;
  const double wall = std::chrono::duration<double>(w1 - w0).count();

  SectionResult res;
  res.per_sec = static_cast<double>(symptoms) / wall;
  res.allocs_per_unit =
      static_cast<double>(allocs) / static_cast<double>(symptoms);
  std::printf(
      "diag_ingest: symptoms=%llu symptoms_per_sec=%.3g "
      "allocs_per_symptom=%.2f\n",
      static_cast<unsigned long long>(symptoms), res.per_sec,
      res.allocs_per_unit);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("bench_kernel_hotpath", argc, argv);

  // `--quick` shrinks both sections for the ctest smoke run.
  const bool quick = reporter.flag("--quick");

  const SectionResult sched = bench_scheduling(quick ? 1 : 10);
  const SectionResult mux = bench_mux_round(quick ? 20'000 : 200'000);
  const SectionResult ingest = bench_diag_ingest(quick ? 20'000 : 200'000);

  reporter.set_info("events_per_sec", sched.per_sec);
  reporter.set_info("allocs_per_event", sched.allocs_per_unit);
  reporter.set_info("heap_pushes_per_event", sched.heap_pushes_per_unit);
  reporter.set_info("rounds_per_sec", mux.per_sec);
  reporter.set_info("allocs_per_round", mux.allocs_per_unit);
  reporter.set_info("symptoms_per_sec", ingest.per_sec);
  reporter.set_info("allocs_per_symptom", ingest.allocs_per_unit);
  return reporter.finish();
}
