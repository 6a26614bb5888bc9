// Unit tests for the discrete-event kernel: time arithmetic, RNG stream
// independence and distribution sanity, event ordering, cancellation,
// periodic scheduling, and determinism.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <new>
#include <optional>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/ring.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"

namespace {
// Counting global allocator hooks for the allocation-free refill test.
// Every variant funnels through malloc/free so replaced and sanitizer
// allocators never mix.
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

namespace decos::sim {
namespace {

// --- time ------------------------------------------------------------------

TEST(SimTime, ArithmeticAndComparisons) {
  const SimTime t0 = SimTime::zero();
  const SimTime t1 = t0 + milliseconds(5);
  EXPECT_EQ(t1.ns(), 5'000'000);
  EXPECT_LT(t0, t1);
  EXPECT_EQ(t1 - t0, milliseconds(5));
  EXPECT_EQ((t1 - milliseconds(5)), t0);
}

TEST(SimTime, UnitHelpers) {
  EXPECT_EQ(microseconds(1).ns(), 1'000);
  EXPECT_EQ(seconds(1).ns(), 1'000'000'000);
  EXPECT_EQ(hours(1).ns(), 3'600'000'000'000);
  EXPECT_DOUBLE_EQ(hours(2).hours(), 2.0);
  EXPECT_DOUBLE_EQ(milliseconds(1500).sec(), 1.5);
}

TEST(SimTime, ToStringPicksSensibleUnit) {
  EXPECT_EQ(to_string(SimTime{500}), "500ns");
  EXPECT_NE(to_string(milliseconds(3)).find("ms"), std::string::npos);
  EXPECT_NE(to_string(hours(5)).find("h"), std::string::npos);
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkedStreamsAreIndependentAndStable) {
  Rng base(7);
  Rng f1 = base.fork("alpha");
  Rng f2 = base.fork("beta");
  Rng f1_again = base.fork("alpha");
  EXPECT_EQ(f1.next_u64(), f1_again.next_u64());
  EXPECT_NE(f1.next_u64(), f2.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversBoundsInclusive) {
  Rng r(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 2);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng r(5);
  const double rate = 0.25;
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.15);
}

TEST(Rng, WeibullShapeOneIsExponential) {
  Rng r(6);
  const double scale = 8.0;
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.weibull(1.0, scale);
  EXPECT_NEAR(sum / n, scale, 0.4);
}

TEST(Rng, NormalMoments) {
  Rng r(8);
  const int n = 20000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng r(9);
  for (double mean : {2.0, 120.0}) {
    double sum = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(r.poisson(mean));
    EXPECT_NEAR(sum / n, mean, mean * 0.1 + 0.2);
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng r(10);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Fnv1a, StableKnownValue) {
  // FNV-1a of empty string is the offset basis.
  EXPECT_EQ(fnv1a(""), 0xCBF29CE484222325ull);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
}

// --- event queue / simulator -------------------------------------------------

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim(1);
  std::vector<int> order;
  sim.schedule_at(SimTime{300}, [&] { order.push_back(3); });
  sim.schedule_at(SimTime{100}, [&] { order.push_back(1); });
  sim.schedule_at(SimTime{200}, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime{300});
}

TEST(Simulator, SameInstantRespectsPriorityThenFifo) {
  Simulator sim(1);
  std::vector<int> order;
  sim.schedule_at(SimTime{100}, [&] { order.push_back(2); },
                  EventPriority::kApplication);
  sim.schedule_at(SimTime{100}, [&] { order.push_back(3); },
                  EventPriority::kDiagnosis);
  sim.schedule_at(SimTime{100}, [&] { order.push_back(1); },
                  EventPriority::kClock);
  sim.schedule_at(SimTime{100}, [&] { order.push_back(4); },
                  EventPriority::kDiagnosis);  // FIFO within same priority
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Simulator, RunUntilStopsAndAdvancesClock) {
  Simulator sim(1);
  int fired = 0;
  sim.schedule_at(SimTime{100}, [&] { ++fired; });
  sim.schedule_at(SimTime{200}, [&] { ++fired; });
  sim.schedule_at(SimTime{300}, [&] { ++fired; });
  const auto n = sim.run_until(SimTime{200});
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), SimTime{200});
  sim.run_all();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim(1);
  int fired = 0;
  const EventId id = sim.schedule_at(SimTime{100}, [&] { ++fired; });
  sim.schedule_at(SimTime{50}, [&] { ++fired; });
  sim.cancel(id);
  sim.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim(1);
  std::vector<std::int64_t> at;
  sim.schedule_at(SimTime{10}, [&] {
    at.push_back(sim.now().ns());
    sim.schedule_after(Duration{5}, [&] { at.push_back(sim.now().ns()); });
  });
  sim.run_all();
  EXPECT_EQ(at, (std::vector<std::int64_t>{10, 15}));
}

TEST(Simulator, PeriodicRunsUntilFalse) {
  Simulator sim(1);
  int count = 0;
  Timer timer;
  timer.start(sim, SimTime{0}, [&]() -> std::optional<Duration> {
    ++count;
    if (count < 5) return Duration{10};
    return std::nullopt;
  });
  sim.run_all();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), SimTime{40});
  EXPECT_FALSE(timer.active());
}

TEST(Simulator, EventLimitThrows) {
  Simulator sim(1);
  sim.set_event_limit(100);
  Timer timer;
  timer.start(sim, SimTime{0},
              []() -> std::optional<Duration> { return Duration{1}; });
  EXPECT_THROW(sim.run_until(SimTime{10'000}), std::runtime_error);
}

TEST(Simulator, EventRateIsSustainedAcrossRunCalls) {
  // A cheap batch, then one slow event in a call of its own: the gauge
  // is the rate over both calls, not the rate of the slow one alone.
  Simulator sim(1);
  const auto wall_start = std::chrono::steady_clock::now();
  for (int i = 0; i < 20'000; ++i) sim.schedule_at(SimTime{1}, [] {});
  sim.run_until(SimTime{1});
  sim.schedule_at(SimTime{2}, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  sim.run_until(SimTime{2});
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
  const obs::Snapshot snapshot = sim.metrics().snapshot();
  const obs::SnapshotEntry* rate = snapshot.find("sim.events_per_sec");
  ASSERT_NE(rate, nullptr);
  EXPECT_GE(rate->gauge,
            static_cast<double>(sim.events_executed()) / wall);
}

// --- event handles: cancellation is a detectable no-op on stale ids --------

TEST(EventQueue, DoubleCancelIsRejected) {
  EventQueue q;
  int fired = 0;
  const EventId id =
      q.push(SimTime{10}, EventPriority::kApplication, [&] { ++fired; });
  q.push(SimTime{20}, EventPriority::kApplication, [&] { ++fired; });
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
  // Second cancel of the same handle: rejected, counters untouched (the
  // old implementation decremented the live count again here).
  EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
  q.pop().fn();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAfterFireIsRejected) {
  EventQueue q;
  int fired = 0;
  const EventId id =
      q.push(SimTime{5}, EventPriority::kApplication, [&] { ++fired; });
  q.pop().fn();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, StaleHandleCannotHitRecycledSlot) {
  EventQueue q;
  const EventId first =
      q.push(SimTime{1}, EventPriority::kApplication, [] {});
  q.pop().fn();  // frees the slot
  int fired = 0;
  const EventId second =
      q.push(SimTime{2}, EventPriority::kApplication, [&] { ++fired; });
  // Same slab slot, new generation: the stale handle must not cancel the
  // new occupant.
  EXPECT_EQ(first.slot, second.slot);
  EXPECT_NE(first.gen, second.gen);
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, DefaultHandleIsInvalidAndSafeToCancel) {
  EventQueue q;
  EXPECT_FALSE(EventId{}.valid());
  EXPECT_FALSE(q.cancel(EventId{}));
  q.push(SimTime{1}, EventPriority::kApplication, [] {});
  EXPECT_FALSE(q.cancel(EventId{}));
  EXPECT_EQ(q.size(), 1u);
}

// Every closure lives inline in its event node: one that does not fit the
// buffer, or whose move can throw, is a compile error, not a heap spill.
TEST(EventQueue, OnlyInlineNothrowClosuresCompile) {
  std::array<std::uint8_t, EventFn::kInlineCapacity> fits{};
  std::array<std::uint8_t, EventFn::kInlineCapacity + 1> too_big{};
  const std::vector<int> frozen{1, 2, 3};
  auto at_capacity = [fits] { (void)fits; };
  auto over_capacity = [too_big] { (void)too_big; };
  auto throwing_move = [frozen] { (void)frozen; };
  static_assert(sizeof(at_capacity) == 48);
  static_assert(sizeof(over_capacity) == 49);
  static_assert(EventFn::fits_inline<decltype(at_capacity)>);
  static_assert(!EventFn::fits_inline<decltype(over_capacity)>);
  // A const vector's "move" is a copy, which can throw.
  static_assert(!EventFn::fits_inline<decltype(throwing_move)>);

  // A closure filling the buffer exactly keeps its payload through the
  // event node.
  std::array<std::uint8_t, EventFn::kInlineCapacity - sizeof(int*)> payload{};
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i);
  }
  int sum = 0;
  auto full = [payload, &sum] {
    for (const auto b : payload) sum += b;
  };
  static_assert(sizeof(full) == EventFn::kInlineCapacity);
  EventQueue q;
  q.push(SimTime{1}, EventPriority::kApplication, std::move(full));
  q.pop().fn();
  EXPECT_EQ(sum, 39 * 40 / 2);
}

TEST(Simulator, DoubleCancelViaSimulatorKeepsQueueTruthful) {
  Simulator sim(1);
  int fired = 0;
  const EventId id = sim.schedule_at(SimTime{100}, [&] { ++fired; });
  sim.schedule_at(SimTime{200}, [&] { ++fired; });
  sim.schedule_at(SimTime{300}, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  sim.run_all();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), SimTime{300});
}

// --- timers ----------------------------------------------------------------

// A Timer whose callback always returns the same gap is a periodic timer.

TEST(PeriodicTimer, CancelStopsFutureTicks) {
  Simulator sim(1);
  int count = 0;
  Timer timer;
  timer.start(sim, SimTime{0}, [&]() -> std::optional<Duration> {
    ++count;
    return Duration{10};
  });
  sim.run_until(SimTime{25});  // ticks at 0, 10, 20
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(timer.active());
  EXPECT_TRUE(timer.cancel());
  EXPECT_FALSE(timer.active());
  EXPECT_FALSE(timer.cancel());  // already stopped: detectable no-op
  sim.run_until(SimTime{100});
  EXPECT_EQ(count, 3);
}

TEST(PeriodicTimer, CancelFromWithinCallback) {
  Simulator sim(1);
  int count = 0;
  Timer timer;
  timer.start(sim, SimTime{0}, [&]() -> std::optional<Duration> {
    ++count;
    timer.cancel();       // stop from inside the executing tick
    return Duration{10};  // return value must lose against the explicit cancel
  });
  sim.run_all();
  EXPECT_EQ(count, 1);
  EXPECT_FALSE(timer.active());
  EXPECT_EQ(sim.now(), SimTime{0});
}

TEST(PeriodicTimer, RestartFromWithinCallbackTakesNewPeriod) {
  Simulator sim(1);
  std::vector<std::int64_t> ticks;
  Timer timer;
  timer.start(sim, SimTime{0}, [&]() -> std::optional<Duration> {
    ticks.push_back(sim.now().ns());
    if (ticks.size() == 2) {
      // Re-arm with a different phase and period mid-tick; the old chain
      // must not double-schedule.
      timer.start(sim, sim.now() + Duration{3},
                  [&]() -> std::optional<Duration> {
                    ticks.push_back(sim.now().ns());
                    if (ticks.size() < 5) return Duration{100};
                    return std::nullopt;
                  });
    }
    return Duration{10};
  });
  sim.run_all();
  EXPECT_EQ(ticks, (std::vector<std::int64_t>{0, 10, 13, 113, 213}));
  EXPECT_FALSE(timer.active());
}

TEST(PeriodicTimer, DestructionCancelsPendingTick) {
  Simulator sim(1);
  int count = 0;
  {
    Timer timer;
    timer.start(sim, SimTime{0}, [&]() -> std::optional<Duration> {
      ++count;
      return Duration{10};
    });
  }  // timer destroyed with a tick pending
  sim.run_until(SimTime{100});
  EXPECT_EQ(count, 0);
}

TEST(AperiodicTimer, StopsWhenCallbackReturnsNullopt) {
  Simulator sim(1);
  std::vector<std::int64_t> fires;
  Timer timer;
  timer.start(sim, SimTime{5}, [&]() -> std::optional<Duration> {
    fires.push_back(sim.now().ns());
    if (fires.size() >= 3) return std::nullopt;
    return Duration{static_cast<std::int64_t>(10 * fires.size())};
  });
  sim.run_all();
  EXPECT_EQ(fires, (std::vector<std::int64_t>{5, 15, 35}));
  EXPECT_FALSE(timer.active());
}

// Determinism: two simulators with the same seed produce identical event
// streams (property the whole experiment suite rests on).
TEST(Simulator, DeterministicAcrossInstances) {
  auto run = [](std::uint64_t seed) {
    Simulator sim(seed);
    Rng r = sim.fork_rng("load");
    std::vector<std::int64_t> times;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at(SimTime{static_cast<std::int64_t>(r.uniform_int(0, 1000))},
                      [&times, &sim] { times.push_back(sim.now().ns()); });
    }
    sim.run_all();
    return times;
  };
  EXPECT_EQ(run(77), run(77));
  EXPECT_NE(run(77), run(78));
}

// --- sharded pending-event set ---------------------------------------------

// The tournament merge must preserve the global (time, prio, seq) order no
// matter how events are spread over shards: the same workload pushed onto
// 1 and onto 5 shards (round-robin) pops in exactly the same order.
TEST(EventQueue, PopOrderIsShardAssignmentInvariant) {
  auto run = [](std::uint32_t shards) {
    EventQueue q(shards);
    Rng r(99);
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 400; ++i) {
      const SimTime t{static_cast<std::int64_t>(r.uniform_int(0, 40))};
      const auto prio =
          r.bernoulli(0.3) ? EventPriority::kClock : EventPriority::kApplication;
      ids.push_back(q.push_on(static_cast<std::uint32_t>(i) % shards, t, prio,
                              [&order, i] { order.push_back(i); }));
    }
    // Cancel a deterministic subset, including some shard heads.
    for (std::size_t i = 0; i < ids.size(); i += 7) {
      EXPECT_TRUE(q.cancel(ids[i]));
    }
    while (!q.empty()) q.pop().fn();
    return order;
  };
  const auto one = run(1);
  EXPECT_EQ(one.size(), 400u - 58u);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(5));
  EXPECT_EQ(one, run(8));
}

TEST(EventQueue, CancellingAShardHeadKeepsTheMergeLive) {
  EventQueue q(4);
  std::vector<int> order;
  // Shard 2 holds the earliest event; cancel it and the merge must yield
  // shard 0's next-earliest, not a tombstone.
  const EventId head =
      q.push_on(2, SimTime{1}, EventPriority::kApplication, [&] {
        order.push_back(-1);
      });
  q.push_on(0, SimTime{5}, EventPriority::kApplication,
            [&] { order.push_back(5); });
  q.push_on(3, SimTime{9}, EventPriority::kApplication,
            [&] { order.push_back(9); });
  EXPECT_EQ(q.next_time(), SimTime{1});
  EXPECT_TRUE(q.cancel(head));
  EXPECT_EQ(q.next_time(), SimTime{5});
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{5, 9}));
}

TEST(EventQueue, HandlesCarryTheirShard) {
  EventQueue q(3);
  const EventId id =
      q.push_on(2, SimTime{4}, EventPriority::kApplication, [] {});
  EXPECT_EQ(id.shard, 2u);
  const auto fired = q.pop();
  EXPECT_EQ(fired.shard, 2u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EmptyShardsNeverWinTheTournament) {
  EventQueue q(6);  // non-power-of-two: padding leaves must stay inert
  int fired = 0;
  q.push_on(4, SimTime{7}, EventPriority::kApplication, [&] { ++fired; });
  EXPECT_EQ(q.next_time(), SimTime{7});
  q.pop().fn();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
  // Refill a different single shard after a full drain.
  q.push_on(1, SimTime{3}, EventPriority::kApplication, [&] { ++fired; });
  EXPECT_EQ(q.next_time(), SimTime{3});
  q.pop().fn();
  EXPECT_EQ(fired, 2);
}

// Callbacks reschedule into the shard they fired from, so per-entity event
// chains stay shard-local without the call sites naming a shard.
TEST(Simulator, ReschedulesStayOnTheFiringShard) {
  Simulator sim(1, 4);
  std::vector<std::uint32_t> shard_of_fire;
  for (std::uint32_t s = 0; s < 4; ++s) {
    sim.set_current_shard(s);
    sim.schedule_at(SimTime{1}, [&sim, &shard_of_fire] {
      shard_of_fire.push_back(sim.current_shard());
      sim.schedule_after(Duration{1}, [&sim, &shard_of_fire] {
        shard_of_fire.push_back(sim.current_shard());
      });
    });
  }
  sim.set_current_shard(0);
  sim.run_all();
  EXPECT_EQ(shard_of_fire,
            (std::vector<std::uint32_t>{0, 1, 2, 3, 0, 1, 2, 3}));
}

// --- run lane beside the heap ------------------------------------------------

// Both lane fronts stay live: cancelling the run front or the heap top,
// whether or not it is the shard's head, collects it eagerly.
TEST(EventQueue, CancelAtEitherLaneFront) {
  for (std::uint32_t shards : {1u, 3u}) {
    EventQueue q(shards);
    std::vector<int> order;
    auto push = [&](std::uint32_t shard, std::int64_t t) {
      return q.push_on(shard, SimTime{t}, EventPriority::kApplication,
                       [&order, t] { order.push_back(static_cast<int>(t)); });
    };
    const std::uint32_t s = shards - 1;
    const EventId r10 = push(s, 10);  // run: 10 20 30
    const EventId r20 = push(s, 20);
    push(s, 30);
    const EventId h15 = push(s, 15);  // out of order, heap: 15 25
    const EventId h25 = push(s, 25);
    if (shards > 1) push(0, 100);     // another shard's run
    EXPECT_EQ(q.heap_pushes(), 2u);
    EXPECT_TRUE(q.cancel(r10));  // run front and shard head
    EXPECT_EQ(q.next_time(), SimTime{15});
    EXPECT_TRUE(q.cancel(h25));  // heap interior
    EXPECT_TRUE(q.cancel(h15));  // heap top and shard head
    EXPECT_EQ(q.next_time(), SimTime{20});
    push(s, 17);                 // heap top ahead of the run front
    EXPECT_TRUE(q.cancel(r20));  // run front behind the heap top
    EXPECT_EQ(q.next_time(), SimTime{17});
    EXPECT_FALSE(q.cancel(r10));  // stale: already cancelled
    EXPECT_FALSE(q.cancel(h15));
    EXPECT_EQ(q.size(), shards > 1 ? 3u : 2u);
    while (!q.empty()) q.pop().fn();
    EXPECT_EQ(order, shards > 1 ? (std::vector<int>{17, 30, 100})
                                : (std::vector<int>{17, 30}));
  }
}

// Each round pushes two in-order events and pops one, so the run's front
// advances while its live set grows: every doubling unwraps a wrapped ring.
TEST(EventQueue, RunGrowsWhileWrapped) {
  EventQueue q;
  std::vector<int> order;
  int next = 0;
  for (int round = 0; round < 300; ++round) {
    for (int k = 0; k < 2; ++k) {
      const int tag = next++;
      q.push(SimTime{tag}, EventPriority::kApplication,
             [&order, tag] { order.push_back(tag); });
    }
    q.pop().fn();
  }
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(order.size(), 600u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(i));
  }
  EXPECT_EQ(q.heap_pushes(), 0u);
}

// A drained run keeps its ring, as the slab keeps its nodes: refilling a
// warmed queue to the same depth allocates nothing.
TEST(EventQueue, DrainedRunRefillsWithoutAllocating) {
  EventQueue q(2);
  int fired = 0;
  auto fill_and_drain = [&] {
    for (std::int64_t t = 0; t < 500; ++t) {
      q.push_on(static_cast<std::uint32_t>(t % 2), SimTime{t},
                EventPriority::kApplication, [&fired] { ++fired; });
    }
    while (!q.empty()) q.pop().fn();
  };
  fill_and_drain();  // warm-up: ring, slab and free list at high water
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  fill_and_drain();
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(q.heap_pushes(), 0u);
}

// --- the shared FIFO ring (run lane and mux port queues) -------------------

// Model check against std::deque. A fixed prologue grows the ring while it
// is wrapped (head mid-buffer when the push finds it full); random
// push/pop runs then fill, drain and refill it across several doublings.
TEST(Ring, MatchesDequeAcrossGrowthWhileWrapped) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Ring<std::uint64_t> ring;
    std::deque<std::uint64_t> model;
    std::uint64_t next = 0;
    auto push = [&] {
      ring.push_back(next);
      model.push_back(next);
      ++next;
    };
    auto pop = [&] {
      ASSERT_FALSE(ring.empty());
      EXPECT_EQ(ring.front(), model.front());
      ring.pop_front();
      model.pop_front();
    };
    auto check = [&] {
      ASSERT_EQ(ring.size(), model.size());
      EXPECT_EQ(ring.empty(), model.empty());
      if (!model.empty()) {
        EXPECT_EQ(ring.front(), model.front());
        EXPECT_EQ(ring.back(), model.back());
      }
    };
    while (ring.size() < 8 || ring.size() < ring.capacity()) push();
    for (int i = 0; i < 3; ++i) pop();
    while (ring.size() < ring.capacity()) push();  // full and wrapped
    const std::size_t cap = ring.capacity();
    push();
    EXPECT_EQ(ring.capacity(), 2 * cap);
    check();

    Rng rng(seed);
    std::size_t high_water = 0;
    for (int step = 0; step < 20'000; ++step) {
      // Push-heavy and pop-heavy phases alternate, so the ring grows,
      // drains to empty and refills many times over.
      const double p_push = (step / 2'500) % 2 == 0 ? 0.6 : 0.35;
      if (model.empty() || rng.bernoulli(p_push)) {
        push();
      } else {
        pop();
      }
      check();
      high_water = std::max(high_water, model.size());
      EXPECT_GE(ring.capacity(), ring.size());
    }
    EXPECT_GE(ring.capacity(), high_water);
  }
}

// A drained ring keeps its capacity, and refilling it to that capacity,
// wrapped or not, allocates nothing.
TEST(Ring, DrainedRingKeepsCapacityAndRefillsWithoutAllocating) {
  Ring<std::uint64_t> ring;
  for (std::uint64_t i = 0; i < 100; ++i) ring.push_back(i);
  const std::size_t cap = ring.capacity();
  EXPECT_EQ(cap, 128u);
  while (!ring.empty()) ring.pop_front();
  EXPECT_EQ(ring.capacity(), cap);

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t i = 0; i < cap; ++i) ring.push_back(i);
    for (std::uint64_t i = 0; i < cap / 3; ++i) ring.pop_front();
    for (std::uint64_t i = 0; i < cap / 3; ++i) ring.push_back(i);
    while (!ring.empty()) ring.pop_front();
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(ring.capacity(), cap);
}

/// Drives an EventQueue with a random mix of in-order runs, out-of-order
/// pushes, pushes from inside callbacks and every kind of cancel, checking
/// each pop against a reference multiset in the kernel's total order.
class QueueModelCheck {
 public:
  QueueModelCheck(std::uint32_t shards, std::uint64_t seed)
      : q_(shards), rng_(seed), cursor_(shards, 0) {}

  void run(int steps) {
    for (int step = 0; step < steps; ++step) {
      const auto op = rng_.uniform_int(0, 9);
      const auto shard = random_shard();
      if (op <= 2) {
        // An in-order run from the shard's cursor: the lane's common case.
        const auto k = rng_.uniform_int(1, 6);
        std::int64_t t = std::max(cursor_[shard], now_);
        for (std::int64_t i = 0; i < k; ++i) {
          t += rng_.uniform_int(0, 3);
          push(shard, t, random_prio(), rng_.bernoulli(0.5));
        }
        cursor_[shard] = t;
      } else if (op <= 4) {
        push(shard, now_ + rng_.uniform_int(0, 40), random_prio(),
             rng_.bernoulli(0.5));
      } else if (op == 5) {
        cancel_head_of(shard);
      } else if (op == 6) {
        cancel_any();
      } else {
        pop_one();
      }
      ASSERT_EQ(q_.size(), model_.size());
      if (::testing::Test::HasFailure()) return;
    }
    draining_ = true;
    while (!model_.empty() && !::testing::Test::HasFailure()) pop_one();
    EXPECT_TRUE(q_.empty());
    // Both lanes were exercised.
    EXPECT_GT(q_.heap_pushes(), 0u);
    EXPECT_LT(q_.heap_pushes(), events_.size());
  }

 private:
  struct Event {
    SimTime time;
    EventPriority prio;
    std::uint64_t seq;
    std::uint32_t shard;
    EventId id;
    bool chain;  // pushes a follow-up from inside its callback
    bool pending = true;
  };
  /// Model entry: an index into events_, ordered by (time, prio, seq).
  struct ByFiring {
    const std::vector<Event>* events;
    bool operator()(std::size_t a, std::size_t b) const {
      const Event& x = (*events)[a];
      const Event& y = (*events)[b];
      return std::tie(x.time, x.prio, x.seq) < std::tie(y.time, y.prio, y.seq);
    }
  };

  std::uint32_t random_shard() {
    return static_cast<std::uint32_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(q_.shard_count()) - 1));
  }
  EventPriority random_prio() {
    return static_cast<EventPriority>(rng_.uniform_int(0, 4));
  }

  void push(std::uint32_t shard, std::int64_t t, EventPriority prio,
            bool chain) {
    const std::size_t tag = events_.size();
    events_.push_back(Event{SimTime{t}, prio, seq_++, shard, {}, chain});
    events_[tag].id =
        q_.push_on(shard, SimTime{t}, prio, [this, tag] { fired(tag); });
    model_.insert(tag);
  }

  void fired(std::size_t tag) {
    last_fired_ = tag;
    const Event& e = events_[tag];
    if (e.chain && !draining_) {
      // A self-rescheduling entity: the follow-up lands on its own shard.
      push(e.shard, now_ + rng_.uniform_int(0, 5), e.prio,
           rng_.bernoulli(0.7));
    }
  }

  void pop_one() {
    if (model_.empty()) return;
    const std::size_t want = *model_.begin();
    ASSERT_EQ(q_.next_time(), events_[want].time);
    model_.erase(model_.begin());
    events_[want].pending = false;
    auto fired_event = q_.pop();
    EXPECT_EQ(fired_event.time, events_[want].time);
    EXPECT_EQ(fired_event.shard, events_[want].shard);
    now_ = fired_event.time.ns();
    fired_event.fn();
    EXPECT_EQ(last_fired_, want);
  }

  void cancel(std::size_t tag) {
    Event& e = events_[tag];
    EXPECT_EQ(q_.cancel(e.id), e.pending) << "tag " << tag;
    if (e.pending) {
      model_.erase(tag);
      e.pending = false;
    }
  }

  /// The shard's head sits at one of its lane fronts.
  void cancel_head_of(std::uint32_t shard) {
    for (const std::size_t tag : model_) {
      if (events_[tag].shard == shard) {
        cancel(tag);
        return;
      }
    }
  }

  /// Any handle ever issued: mostly interior entries, plus stale handles
  /// of fired or cancelled events.
  void cancel_any() {
    if (events_.empty()) return;
    cancel(static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(events_.size()) - 1)));
  }

  EventQueue q_;
  Rng rng_;
  std::vector<std::int64_t> cursor_;  // last in-order time per shard
  std::vector<Event> events_;
  std::multiset<std::size_t, ByFiring> model_{ByFiring{&events_}};
  std::uint64_t seq_ = 0;
  std::int64_t now_ = 0;
  std::size_t last_fired_ = 0;
  bool draining_ = false;
};

TEST(EventQueue, RunAndHeapPopInTheModelsOrder) {
  for (std::uint32_t shards : {1u, 3u, 8u}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " seed=" << seed);
      QueueModelCheck check(shards, seed);
      check.run(4'000);
    }
  }
}

}  // namespace
}  // namespace decos::sim
