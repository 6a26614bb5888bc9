// Bit-granular value-fault tests: BER sampler determinism and extremes,
// the wearout bathtub curve, FramePool copy-on-corrupt isolation and its
// per-slot CRC verdict cache, the bit-fault plane on the Fig. 10 rig, and
// the campaign's jobs-N bit identity.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "fault/bitfault.hpp"
#include "scenario/bitfault.hpp"
#include "scenario/fig10.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "tta/bus.hpp"
#include "tta/frame_pool.hpp"
#include "tta/tdma.hpp"

namespace decos {
namespace {

// --- BerSampler -------------------------------------------------------------

std::vector<std::uint64_t> scan_positions(fault::BerSampler& s,
                                          std::uint64_t nbits,
                                          int frames) {
  std::vector<std::uint64_t> out;
  for (int f = 0; f < frames; ++f) {
    s.scan(nbits, [&](std::uint64_t bit) {
      out.push_back(static_cast<std::uint64_t>(f) * nbits + bit);
    });
  }
  return out;
}

TEST(BerSampler, SameSeedSamePositions) {
  sim::Simulator a(42), b(42);
  fault::BerSampler sa(a.fork_rng("ber"));
  fault::BerSampler sb(b.fork_rng("ber"));
  sa.set_ber(1e-3);
  sb.set_ber(1e-3);
  const auto pa = scan_positions(sa, 1024, 64);
  const auto pb = scan_positions(sb, 1024, 64);
  EXPECT_FALSE(pa.empty());
  EXPECT_EQ(pa, pb);
}

TEST(BerSampler, ZeroRateNeverFlips) {
  sim::Simulator s(1);
  fault::BerSampler sampler(s.fork_rng("ber"));
  sampler.set_ber(0.0);
  EXPECT_TRUE(scan_positions(sampler, 4096, 16).empty());
}

TEST(BerSampler, RateOneFlipsEveryBit) {
  sim::Simulator s(1);
  fault::BerSampler sampler(s.fork_rng("ber"));
  sampler.set_ber(1.0);
  const auto pos = scan_positions(sampler, 64, 1);
  ASSERT_EQ(pos.size(), 64u);
  for (std::uint64_t i = 0; i < 64; ++i) EXPECT_EQ(pos[i], i);
}

TEST(BerSampler, RateRoughlyMatchesBer) {
  sim::Simulator s(7);
  fault::BerSampler sampler(s.fork_rng("ber"));
  sampler.set_ber(1e-2);
  const std::uint64_t nbits = 1'000'000;
  const auto pos = scan_positions(sampler, nbits, 1);
  const double rate =
      static_cast<double>(pos.size()) / static_cast<double>(nbits);
  EXPECT_NEAR(rate, 1e-2, 2e-3);
}

TEST(BerSampler, SetBerClamps) {
  sim::Simulator s(1);
  fault::BerSampler sampler(s.fork_rng("ber"));
  sampler.set_ber(-0.5);
  EXPECT_EQ(sampler.ber(), 0.0);
  sampler.set_ber(7.0);
  EXPECT_EQ(sampler.ber(), 1.0);
}

// --- WearoutCurve ------------------------------------------------------------

TEST(WearoutCurve, BathtubShape) {
  const fault::WearoutCurve c;
  // Infant phase: monotone non-increasing.
  for (double t = 0.0; t < 0.6; t += 0.1) {
    EXPECT_GE(c.ber_at(t), c.ber_at(t + 0.1)) << "infant at " << t;
  }
  // Useful life sits below infant mortality.
  EXPECT_LT(c.ber_at(0.7), c.ber_at(0.0));
  // Wearout: monotone non-decreasing past the onset.
  for (double t = 0.9; t < 2.0; t += 0.1) {
    EXPECT_LE(c.ber_at(t), c.ber_at(t + 0.1)) << "wearout at " << t;
  }
  EXPECT_GT(c.ber_at(2.0), c.ber_at(0.9));
  // The physical cap holds however old the part gets.
  EXPECT_EQ(c.ber_at(100.0), c.cap_ber);
}

TEST(WearoutCurve, EveryNamedProfileResolves) {
  for (const std::string_view name : fault::WearoutCurve::profile_names()) {
    EXPECT_TRUE(fault::WearoutCurve::profile(name).has_value()) << name;
  }
  EXPECT_FALSE(fault::WearoutCurve::profile("granite").has_value());
}

TEST(WearoutCurve, AgedProfileWearsFromStart) {
  const auto aged = fault::WearoutCurve::profile("aged");
  ASSERT_TRUE(aged.has_value());
  EXPECT_GT(aged->ber_at(0.5), aged->ber_at(0.0));
  EXPECT_GT(aged->ber_at(0.0), fault::WearoutCurve{}.ber_at(0.7));
}

// --- FramePool copy-on-corrupt ----------------------------------------------

TEST(FramePool, CorruptIsReceiverLocal) {
  auto pool = tta::FramePool::create(4);
  tta::Frame f;
  f.payload = {1, 2, 3, 4};
  f.seal();

  tta::FrameHandle master = pool->acquire(f);
  tta::Delivery clean(*pool, master);
  tta::Delivery dirty(*pool, master);

  tta::Frame& mine = dirty.corrupt();
  mine.payload[0] ^= 0xFF;
  EXPECT_TRUE(dirty.privatized());
  EXPECT_FALSE(clean.privatized());

  // The other receiver (and the master) still see pristine bytes.
  EXPECT_EQ(clean.frame().payload, f.payload);
  EXPECT_EQ((*master).payload, f.payload);
  EXPECT_TRUE(clean.frame().crc_ok());
  EXPECT_FALSE(dirty.frame().crc_ok());
  EXPECT_EQ(pool->corrupt_copies(), 1u);
}

TEST(FramePool, RefcountsReturnToSteadyState) {
  auto pool = tta::FramePool::create(4);
  tta::Frame f;
  f.payload = {9, 9, 9};
  f.seal();
  {
    tta::FrameHandle master = pool->acquire(f);
    EXPECT_EQ(pool->in_use(), 1u);
    tta::Delivery a(*pool, master);
    tta::Delivery b(*pool, master);
    tta::Frame& c = b.corrupt();
    c.payload[1] = 0;
    EXPECT_EQ(pool->in_use(), 2u);  // master + private corrupt copy
    {
      const tta::FrameHandle ha = a.take();
      const tta::FrameHandle hb = b.take();
      EXPECT_FALSE(ha.unique());  // still shared with master
      EXPECT_TRUE(hb.unique());
    }
    EXPECT_EQ(pool->in_use(), 1u);
  }
  EXPECT_EQ(pool->in_use(), 0u);

  // Recycled slots reuse their payload capacity; repeated rounds keep the
  // slot count flat.
  const std::size_t slots_before = pool->slots();
  for (int i = 0; i < 100; ++i) {
    tta::FrameHandle h = pool->acquire(f);
  }
  EXPECT_EQ(pool->slots(), slots_before);
  EXPECT_EQ(pool->fallback_acquires(), 0u);
}

TEST(FramePool, SoftCapFallbackIsCounted) {
  auto pool = tta::FramePool::create(2);
  tta::Frame f;
  f.seal();
  std::vector<tta::FrameHandle> held;
  for (int i = 0; i < 5; ++i) held.push_back(pool->acquire(f));
  EXPECT_EQ(pool->in_use(), 5u);
  EXPECT_GT(pool->fallback_acquires(), 0u);
  held.clear();
  EXPECT_EQ(pool->in_use(), 0u);
}

// --- FramePool CRC verdict cache ----------------------------------------------

tta::Frame sealed_frame(std::vector<std::uint8_t> payload) {
  tta::Frame f;
  f.payload = std::move(payload);
  f.seal();
  return f;
}

TEST(FramePoolCrc, VerdictComputedOnceThenServedFromCache) {
  auto pool = tta::FramePool::create(4);
  const tta::FrameHandle master = pool->acquire(sealed_frame({1, 2, 3}));
  EXPECT_EQ(pool->crc_checks(), 0u);
  EXPECT_TRUE(master.crc_ok());
  EXPECT_EQ(pool->crc_checks(), 1u);

  // Every receiver of the broadcast shares the slot and its verdict.
  std::vector<tta::FrameHandle> receivers(8, master);
  for (const tta::FrameHandle& h : receivers) EXPECT_TRUE(h.crc_ok());
  EXPECT_TRUE(master.crc_ok());
  EXPECT_EQ(pool->crc_checks(), 1u);
}

TEST(FramePoolCrc, MutateOnUniqueHandleInvalidatesVerdict) {
  auto pool = tta::FramePool::create(4);
  tta::FrameHandle h = pool->acquire(sealed_frame({4, 5, 6}));
  ASSERT_TRUE(h.unique());
  EXPECT_TRUE(h.crc_ok());

  h.mutate().payload[1] ^= 0x10;
  EXPECT_FALSE(h.crc_ok());
  EXPECT_EQ(pool->crc_checks(), 2u);

  h.mutate().payload[1] ^= 0x10;  // flip back: the bytes are pristine again
  EXPECT_TRUE(h.crc_ok());
  EXPECT_EQ(pool->crc_checks(), 3u);
}

TEST(FramePoolCrc, RecycledSlotStartsUnknown) {
  auto pool = tta::FramePool::create(4);
  tta::Frame bad = sealed_frame({7, 8, 9});
  bad.payload[0] ^= 0xFF;
  {
    const tta::FrameHandle h = pool->acquire(bad);
    EXPECT_FALSE(h.crc_ok());
  }
  ASSERT_EQ(pool->in_use(), 0u);
  const std::size_t slots_before = pool->slots();

  // Same slot, fresh bytes: the old "bad" verdict must not leak through.
  const tta::FrameHandle h = pool->acquire(sealed_frame({7, 8, 9}));
  EXPECT_EQ(pool->slots(), slots_before);
  EXPECT_TRUE(h.crc_ok());
  EXPECT_EQ(pool->crc_checks(), 2u);
}

TEST(FramePoolCrc, PrivatizingKeepsMasterVerdict) {
  auto pool = tta::FramePool::create(4);
  const tta::FrameHandle master = pool->acquire(sealed_frame({1, 1, 2, 3}));
  EXPECT_TRUE(master.crc_ok());

  tta::Delivery d(*pool, master);
  d.corrupt().payload[2] ^= 0x01;
  const tta::FrameHandle mine = d.take();
  EXPECT_FALSE(mine.crc_ok());
  EXPECT_EQ(pool->crc_checks(), 2u);

  // The master's cached verdict is untouched and still served for free.
  EXPECT_TRUE(master.crc_ok());
  EXPECT_EQ(pool->crc_checks(), 2u);
}

TEST(FramePoolCrc, CachedVerdictAlwaysMatchesTheBytes) {
  // Seeded property loop: random payloads, random share / privatize /
  // mutate / drop sequences. After every step each live handle's cached
  // verdict must equal a fresh CRC over its current bytes.
  auto pool = tta::FramePool::create(8);
  sim::Rng rng(2024);
  std::vector<tta::FrameHandle> live;
  auto random_frame = [&rng] {
    std::vector<std::uint8_t> payload(
        static_cast<std::size_t>(rng.uniform_int(0, 24)));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    tta::Frame f = sealed_frame(std::move(payload));
    if (rng.bernoulli(0.3) && !f.payload.empty()) f.crc ^= 1u;
    return f;
  };
  auto pick = [&rng, &live]() -> tta::FrameHandle& {
    return live[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
  };

  for (int step = 0; step < 4000; ++step) {
    const std::int64_t op = live.empty() ? 0 : rng.uniform_int(0, 6);
    switch (op) {
      case 0:  // fresh transmission
        live.push_back(pool->acquire(random_frame()));
        break;
      case 1:  // share with another receiver
        live.push_back(pick());
        break;
      case 2: {  // copy-on-corrupt through a Delivery
        tta::Delivery d(*pool, pick());
        tta::Frame& f = d.corrupt();
        if (!f.payload.empty()) {
          f.payload[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(f.payload.size()) - 1))] ^= 0x5A;
        }
        live.push_back(d.take());
        break;
      }
      case 3: {  // mutate in place when unshared (reseal half of the time)
        tta::FrameHandle& h = pick();
        if (!h.unique()) break;
        tta::Frame& f = h.mutate();
        f.payload.push_back(static_cast<std::uint8_t>(step));
        if (rng.bernoulli(0.5)) f.seal();
        break;
      }
      case 4:  // privatize via acquire_copy without corrupting
        live.push_back(pool->acquire_copy(pick()));
        break;
      case 5: {  // seal in place when unshared, as a sender does
        tta::FrameHandle& h = pick();
        if (!h.unique()) break;
        if (rng.bernoulli(0.5)) {
          h.mutate().payload.push_back(static_cast<std::uint8_t>(step));
        }
        h.seal();
        break;
      }
      default: {  // drop a handle (may recycle its slot)
        tta::FrameHandle& h = pick();
        h = std::move(live.back());
        live.pop_back();
        break;
      }
    }
    for (const tta::FrameHandle& h : live) {
      ASSERT_EQ(h.crc_ok(), (*h).crc_ok()) << "step " << step;
    }
    if (live.size() > 32) live.erase(live.begin(), live.begin() + 16);
  }
  EXPECT_GT(pool->crc_checks(), 0u);
}

// --- bus-level isolation ----------------------------------------------------

struct RecordingSink : tta::BusReceiver {
  tta::NodeId id = 0;
  std::uint64_t frames = 0;
  std::uint64_t crc_bad = 0;
  void on_frame(const tta::FrameHandle& h, sim::SimTime) override {
    ++frames;
    if (!h.crc_ok()) ++crc_bad;
  }
  [[nodiscard]] tta::NodeId node_id() const override { return id; }
};

TEST(Bus, ChannelFaultCorruptsOnlyTheHookedReceiver) {
  constexpr std::uint32_t kNodes = 4;
  sim::Simulator s(3);
  tta::TdmaSchedule sched{tta::TdmaSchedule::Params{
      .slots_per_round = kNodes, .slot_length = sim::microseconds(500)}};
  tta::Bus bus(s, sched, tta::Bus::Params{});

  std::vector<RecordingSink> sinks(kNodes);
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    sinks[n].id = n;
    bus.attach(sinks[n]);
  }
  bus.add_channel_fault(
      [](tta::Delivery& d, tta::NodeId receiver, sim::SimTime) {
        if (receiver != 2 || d.frame().payload.empty()) return true;
        d.corrupt().payload[0] ^= 0xFF;
        return true;
      });

  // The frames outlive the run, so each send event captures a pointer to
  // its frame and stays inline in its event node.
  std::vector<tta::Frame> frames;
  frames.reserve(10 * kNodes);
  for (tta::RoundId r = 0; r < 10; ++r) {
    for (std::uint32_t node = 0; node < kNodes; ++node) {
      tta::Frame& f = frames.emplace_back();
      f.sender = node;
      f.slot = node;
      f.round = r;
      f.payload = {static_cast<std::uint8_t>(r), 7, 7};
      f.seal();
      s.schedule_at(sched.send_instant(r, node), [&bus, node, frame = &f] {
        (void)bus.transmit(node, bus.frame_pool()->acquire(*frame));
      });
    }
  }
  s.run_until(sched.slot_start(10, 0));

  // The bus delivers to every node but the sender: kNodes - 1 per frame.
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    EXPECT_EQ(sinks[n].frames, 10u * (kNodes - 1)) << "receiver " << n;
    if (n == 2) {
      EXPECT_EQ(sinks[n].crc_bad, 10u * (kNodes - 1));
    } else {
      EXPECT_EQ(sinks[n].crc_bad, 0u) << "receiver " << n;
    }
  }
  EXPECT_EQ(bus.frame_pool()->corrupt_copies(), 10u * (kNodes - 1));
  EXPECT_EQ(bus.frame_pool()->in_use(), 0u);
}

/// Logs every arrival in delivery order: which receiver, which broadcast,
/// which pool slot (by frame address) and the CRC verdict. Keeps no
/// handle, so the pool drains once the batches are delivered.
struct Arrival {
  tta::NodeId receiver;
  tta::NodeId sender;
  const tta::Frame* frame;
  bool crc_ok;
};

struct LoggingSink : tta::BusReceiver {
  tta::NodeId id = 0;
  std::vector<Arrival>* log = nullptr;
  std::function<void(const tta::FrameHandle&)> on_arrival;
  void on_frame(const tta::FrameHandle& h, sim::SimTime) override {
    log->push_back({id, h->sender, &*h, h.crc_ok()});
    if (on_arrival) on_arrival(h);
  }
  [[nodiscard]] tta::NodeId node_id() const override { return id; }
};

tta::FrameHandle sealed_in_pool(tta::Bus& bus, tta::NodeId sender) {
  tta::FrameHandle h = bus.frame_pool()->acquire();
  tta::Frame& f = h.mutate();
  f.sender = sender;
  f.slot = sender;
  f.payload = {static_cast<std::uint8_t>(sender), 1, 2, 3};
  h.seal();
  return h;
}

TEST(Bus, OneBatchPerBroadcastDeliversInAttachOrder) {
  // Two broadcasts in flight at once (propagation 5 us, sent 1 us apart,
  // as a tx_delay fault can cause), a drop hook on receiver 4 and a
  // corrupting hook on receivers 2 and 3. Each batch must reach its
  // receivers in attach order — not id order — with the corrupted ones on
  // private slots and the rest on the sender's sealed master.
  sim::Simulator s(3);
  tta::TdmaSchedule sched{tta::TdmaSchedule::Params{
      .slots_per_round = 6, .slot_length = sim::microseconds(500)}};
  tta::Bus bus(s, sched,
               tta::Bus::Params{.propagation_delay = sim::microseconds(5),
                                .guardian_enabled = false});
  std::vector<Arrival> log;
  const std::vector<tta::NodeId> attach_order = {3, 0, 4, 1, 5, 2};
  std::vector<LoggingSink> sinks(attach_order.size());
  for (std::size_t i = 0; i < attach_order.size(); ++i) {
    sinks[i].id = attach_order[i];
    sinks[i].log = &log;
    bus.attach(sinks[i]);
  }
  bus.add_channel_fault([](tta::Delivery&, tta::NodeId rx, sim::SimTime) {
    return rx != 4;
  });
  bus.add_channel_fault([](tta::Delivery& d, tta::NodeId rx, sim::SimTime) {
    if (rx == 2 || rx == 3) d.corrupt().payload[0] ^= 0xFF;
    return true;
  });

  std::vector<const tta::Frame*> masters;
  for (const tta::NodeId sender : {tta::NodeId{0}, tta::NodeId{1}}) {
    s.schedule_at(sim::SimTime{0} + sim::microseconds(10 + sender),
                  [&bus, &masters, sender] {
                    tta::FrameHandle h = sealed_in_pool(bus, sender);
                    masters.push_back(&*h);
                    EXPECT_TRUE(bus.transmit(sender, std::move(h)));
                  });
  }
  // Both batches are pending before either is delivered.
  s.run_until(sim::SimTime{0} + sim::microseconds(12));
  EXPECT_TRUE(log.empty());
  s.run_all();

  // Attach order minus the sender and the dropped receiver, per batch.
  const std::vector<std::pair<tta::NodeId, tta::NodeId>> expected = {
      {0, 3}, {0, 1}, {0, 5}, {0, 2},   // sender 0's broadcast
      {1, 3}, {1, 0}, {1, 5}, {1, 2}};  // then sender 1's
  ASSERT_EQ(log.size(), expected.size());
  std::vector<const tta::Frame*> private_slots;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const Arrival& a = log[i];
    EXPECT_EQ(a.sender, expected[i].first) << "arrival " << i;
    EXPECT_EQ(a.receiver, expected[i].second) << "arrival " << i;
    const tta::Frame* master = masters[a.sender];
    if (a.receiver == 2 || a.receiver == 3) {
      EXPECT_NE(a.frame, master) << "arrival " << i;
      EXPECT_FALSE(a.crc_ok) << "arrival " << i;
      private_slots.push_back(a.frame);
    } else {
      EXPECT_EQ(a.frame, master) << "arrival " << i;
      EXPECT_TRUE(a.crc_ok) << "arrival " << i;
    }
  }
  // Four corrupted deliveries, four distinct private slots: no receiver
  // shares another's copy, within or across the in-flight batches.
  ASSERT_EQ(private_slots.size(), 4u);
  std::sort(private_slots.begin(), private_slots.end());
  EXPECT_EQ(std::unique(private_slots.begin(), private_slots.end()),
            private_slots.end());
  EXPECT_EQ(bus.frame_pool()->corrupt_copies(), 4u);
  // Only the private copies were CRC-checked; the masters were sealed.
  EXPECT_EQ(bus.frame_pool()->crc_checks(), 4u);
  EXPECT_EQ(bus.frame_pool()->in_use(), 0u);
}

TEST(Bus, ReceiverTransmittingFromOnFrameKeepsTheBatchIntact) {
  // Receiver 1 (attached first) answers the first broadcast with three
  // broadcasts of its own from inside on_frame, which allocates new
  // batches while the first is mid-delivery. The rest of the first batch
  // must still reach receivers 2 and 3 with the original frame, the
  // corrupted delivery to 3 on its private slot; the answers follow.
  sim::Simulator s(5);
  tta::TdmaSchedule sched{tta::TdmaSchedule::Params{
      .slots_per_round = 4, .slot_length = sim::microseconds(500)}};
  tta::Bus bus(s, sched, tta::Bus::Params{.guardian_enabled = false});
  std::vector<Arrival> log;
  std::vector<LoggingSink> sinks(4);
  for (const tta::NodeId id : {1u, 2u, 3u, 0u}) {
    sinks[id].id = id;
    sinks[id].log = &log;
    bus.attach(sinks[id]);
  }
  bus.add_channel_fault([](tta::Delivery& d, tta::NodeId rx, sim::SimTime) {
    if (rx == 3 && d.frame().sender == 0) d.corrupt().payload[1] ^= 0x01;
    return true;
  });
  int answers = 0;
  sinks[1].on_arrival = [&](const tta::FrameHandle& h) {
    if (h->sender != 0 || answers > 0) return;
    for (; answers < 3; ++answers) {
      EXPECT_TRUE(bus.transmit(1, sealed_in_pool(bus, 1)));
    }
  };

  const tta::Frame* master = nullptr;
  s.schedule_at(sim::SimTime{0} + sim::microseconds(10), [&] {
    tta::FrameHandle h = sealed_in_pool(bus, 0);
    master = &*h;
    EXPECT_TRUE(bus.transmit(0, std::move(h)));
  });
  s.run_all();

  ASSERT_EQ(log.size(), 3u + 3u * 3u);
  EXPECT_EQ(log[0].receiver, 1u);
  EXPECT_EQ(log[1].receiver, 2u);
  EXPECT_EQ(log[2].receiver, 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(log[i].sender, 0u) << "arrival " << i;
  }
  EXPECT_EQ(log[0].frame, master);
  EXPECT_EQ(log[1].frame, master);
  EXPECT_TRUE(log[1].crc_ok);
  EXPECT_NE(log[2].frame, master);
  EXPECT_FALSE(log[2].crc_ok);
  // The answers arrive after the whole first batch, each in attach order.
  for (std::size_t i = 3; i < log.size(); ++i) {
    EXPECT_EQ(log[i].sender, 1u) << "arrival " << i;
    EXPECT_EQ(log[i].receiver, (std::vector<tta::NodeId>{2, 3, 0})[(i - 3) % 3])
        << "arrival " << i;
    EXPECT_TRUE(log[i].crc_ok) << "arrival " << i;
  }
  EXPECT_EQ(bus.frame_pool()->in_use(), 0u);
}

TEST(Bus, TxHookNeverWritesThroughACallersSharedHandle) {
  // A caller that keeps a copy of the handle it transmits must not see a
  // sender-side hook's corruption: the bus privatizes a shared master
  // before the hooks mutate it.
  sim::Simulator s(9);
  tta::TdmaSchedule sched{tta::TdmaSchedule::Params{
      .slots_per_round = 2, .slot_length = sim::microseconds(500)}};
  tta::Bus bus(s, sched, tta::Bus::Params{.guardian_enabled = false});
  std::vector<Arrival> log;
  std::vector<LoggingSink> sinks(2);
  for (tta::NodeId id = 0; id < 2; ++id) {
    sinks[id].id = id;
    sinks[id].log = &log;
    bus.attach(sinks[id]);
  }
  bus.add_tx_fault([](tta::Frame& f, tta::NodeId, sim::SimTime) {
    f.payload[0] ^= 0xFF;
  });
  const tta::FrameHandle kept = sealed_in_pool(bus, 0);
  EXPECT_TRUE(bus.transmit(0, kept));
  s.run_all();

  ASSERT_EQ(log.size(), 1u);
  EXPECT_NE(log[0].frame, &*kept);
  EXPECT_FALSE(log[0].crc_ok);
  EXPECT_EQ(kept->payload[0], 0u);
  EXPECT_TRUE(kept.crc_ok());
}

// --- the plane on the Fig. 10 rig -------------------------------------------

TEST(BitFaultPlane, FlipLogIsSeedStable) {
  auto run = [] {
    scenario::Fig10System rig({.seed = 5});
    rig.injector().bitfault_plane().set_rx_ber(2, 1e-3);
    rig.run(sim::milliseconds(500));
    std::vector<std::pair<tta::RoundId, std::uint32_t>> flips;
    for (const auto& r : rig.injector().bitfault_plane().log().records()) {
      EXPECT_EQ(r.component, 2u);
      flips.emplace_back(r.round, r.bit);
    }
    return flips;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(BitFaultPlane, DisabledPlaneStaysSilent) {
  scenario::Fig10System rig({.seed = 5});
  (void)rig.injector().bitfault_plane();  // constructed, nothing armed
  rig.run(sim::milliseconds(200));
  EXPECT_TRUE(rig.injector().bitfault_plane().log().records().empty());
  EXPECT_FALSE(rig.injector().bitfault_plane().any_active());
}

// --- campaign ----------------------------------------------------------------

TEST(BitCampaign, ParallelRunsAreBitIdenticalToSerial) {
  // The two cheap archetypes keep this inside test budget; the full
  // catalogue runs in bench_bitfault.
  auto specs = scenario::bitfault_archetypes();
  specs.erase(specs.begin());  // drop wearout-ber (longest horizon)
  const std::vector<std::uint64_t> seeds{1, 2};

  const auto serial = scenario::run_bitfault_campaign(specs, seeds, {}, 1);
  const auto parallel = scenario::run_bitfault_campaign(specs, seeds, {}, 4);

  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    const auto& a = serial.rows[i];
    const auto& b = parallel.rows[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.class_correct, b.class_correct);
    EXPECT_EQ(a.bit_correct, b.bit_correct);
    EXPECT_EQ(a.flips, b.flips);
    EXPECT_EQ(a.orphan_flips, b.orphan_flips);
    EXPECT_EQ(a.mean_flips_per_event, b.mean_flips_per_event);
    EXPECT_EQ(a.mean_rate_ratio, b.mean_rate_ratio);
  }
}

TEST(BitCampaign, EveryFlipBelongsToAJourney) {
  auto specs = scenario::bitfault_archetypes();
  specs.erase(specs.begin());  // EMI + SEU suffice for the orphan audit
  const auto result =
      scenario::run_bitfault_campaign(specs, {1}, {}, 1);
  EXPECT_GT(result.total_flips(), 0u);
  EXPECT_EQ(result.total_orphans(), 0u);
}

}  // namespace
}  // namespace decos
