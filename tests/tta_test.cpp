// Tests for the time-triggered core: CRC, TDMA schedule geometry, clock
// model, FTA sync algorithm, cluster-level sync convergence, guardian
// isolation, membership consistency, and fault-control observability.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "tta/cluster.hpp"
#include "tta/clock.hpp"
#include "tta/clock_sync.hpp"
#include "tta/frame.hpp"
#include "tta/tdma.hpp"

namespace decos::tta {
namespace {

// --- crc / frame ------------------------------------------------------------

TEST(Crc32, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE 802.3).
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

/// Bytewise reference CRC-32: the single-table loop the production
/// slice-by-8 routine replaced, kept here as its oracle.
std::uint32_t crc32_bytewise(std::span<const std::uint8_t> bytes) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    table[i] = c;
  }
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : bytes) c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, SliceBy8MatchesBytewiseOracle) {
  // Every length 0-300 (all head/tail splits around the 8-byte blocks) at
  // every offset 0-7 into one buffer, so unaligned loads are covered too.
  sim::Rng rng(8);
  std::vector<std::uint8_t> buf(300 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (std::size_t len = 0; len <= 300; ++len) {
    for (std::size_t off = 0; off < 8; ++off) {
      const std::span<const std::uint8_t> bytes(buf.data() + off, len);
      ASSERT_EQ(crc32(bytes), crc32_bytewise(bytes))
          << "len " << len << " offset " << off;
    }
  }
  // Random lengths over fresh random bytes.
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> data(
        static_cast<std::size_t>(rng.uniform_int(0, 300)));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    ASSERT_EQ(crc32(data), crc32_bytewise(data)) << "trial " << i;
  }
}

TEST(Frame, SealAndDetectCorruption) {
  Frame f;
  f.payload = {1, 2, 3, 4};
  f.seal();
  EXPECT_TRUE(f.crc_ok());
  f.payload[2] ^= 0xFF;
  EXPECT_FALSE(f.crc_ok());
}

TEST(Frame, EmptyPayloadSeals) {
  Frame f;
  f.seal();
  EXPECT_TRUE(f.crc_ok());
}

// --- tdma ----------------------------------------------------------------------

TEST(TdmaSchedule, Geometry) {
  TdmaSchedule s{TdmaSchedule::Params{.slots_per_round = 4,
                                      .slot_length = sim::microseconds(500)}};
  EXPECT_EQ(s.round_length(), sim::milliseconds(2));
  EXPECT_EQ(s.slot_owner(2), 2u);
  EXPECT_EQ(s.slot_of(3), 3u);
  EXPECT_EQ(s.round_at(sim::SimTime{0}), 0u);
  EXPECT_EQ(s.round_at(sim::SimTime{2'000'000}), 1u);
  EXPECT_EQ(s.slot_at(sim::SimTime{500'000}), 1u);
  EXPECT_EQ(s.slot_start(1, 2), sim::SimTime{3'000'000});
  EXPECT_EQ(s.send_instant(0, 0),
            sim::SimTime{s.params().action_offset.ns()});
}

TEST(TdmaSchedule, SlotsPartitionTheRound) {
  TdmaSchedule s{TdmaSchedule::Params{.slots_per_round = 6,
                                      .slot_length = sim::microseconds(250)}};
  for (std::int64_t t = 0; t < s.round_length().ns(); t += 10'000) {
    const SlotId slot = s.slot_at(sim::SimTime{t});
    EXPECT_LT(slot, 6u);
    EXPECT_LE(s.slot_start(0, slot), sim::SimTime{t});
  }
}

// --- local clock -----------------------------------------------------------------

TEST(LocalClock, DriftAccumulates) {
  LocalClock c(100.0);  // 100 ppm fast
  const sim::SimTime ref = sim::SimTime{1'000'000'000};  // 1 s
  EXPECT_EQ(c.offset(ref).ns(), 100'000);  // 100 us ahead after 1 s
}

TEST(LocalClock, AdjustShiftsOffset) {
  LocalClock c(0.0);
  c.adjust(sim::microseconds(5));
  EXPECT_EQ(c.offset(sim::SimTime{123}).ns(), 5'000);
}

TEST(LocalClock, RefTimeForLocalIsInverse) {
  LocalClock c(42.0);
  c.adjust(sim::microseconds(-3));
  const sim::SimTime ref{777'000'000};
  const sim::SimTime local = c.local_time(ref);
  EXPECT_NEAR(static_cast<double>(c.ref_time_for_local(local).ns()),
              static_cast<double>(ref.ns()), 2.0);
}

// --- FTA algorithm ----------------------------------------------------------------

TEST(FtaClockSync, TooFewMeasurementsGiveZero) {
  FtaClockSync s{FtaClockSync::Params{.k = 1, .gain = 0.5}};
  s.record(1, sim::microseconds(10));
  s.record(2, sim::microseconds(10));
  EXPECT_EQ(s.finish_round().ns(), 0);
}

TEST(FtaClockSync, DiscardsExtremesAndAverages) {
  FtaClockSync s{FtaClockSync::Params{.k = 1, .gain = 1.0}};
  s.record(1, sim::microseconds(10));
  s.record(2, sim::microseconds(12));
  s.record(3, sim::microseconds(-500));  // faulty clock, discarded
  s.record(4, sim::microseconds(14));
  s.record(5, sim::microseconds(900));  // faulty clock, discarded
  EXPECT_EQ(s.finish_round().ns(), 12'000);
}

TEST(FtaClockSync, RoundStateClears) {
  FtaClockSync s;
  s.record(1, sim::microseconds(10));
  (void)s.finish_round();
  EXPECT_EQ(s.measurements_this_round(), 0u);
}

// --- cluster integration -----------------------------------------------------------

Cluster::Params small_cluster(std::uint32_t n = 4) {
  Cluster::Params p;
  p.node_count = n;
  p.tdma.slot_length = sim::microseconds(500);
  p.tdma.receive_window = sim::microseconds(20);
  p.tdma.action_offset = sim::microseconds(50);
  p.drift_bound_ppm = 50.0;
  return p;
}

TEST(Cluster, AllNodesExchangeCorrectFrames) {
  sim::Simulator sim(101);
  Cluster cluster(sim, small_cluster());
  std::map<NodeId, int> correct;
  for (NodeId i = 0; i < cluster.size(); ++i) {
    cluster.node(i).observation_sink = [&correct](const SlotObservation& o) {
      if (o.verdict == SlotVerdict::kCorrect) ++correct[o.sender];
    };
  }
  cluster.start();
  sim.run_until(sim::SimTime{0} + sim::milliseconds(100));  // 50 rounds
  // Every sender was observed correct by the 3 others for ~50 rounds.
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_GT(correct[i], 40 * 3) << "node " << i;
  }
}

TEST(Cluster, ClockSyncKeepsPrecisionTight) {
  sim::Simulator sim(102);
  Cluster cluster(sim, small_cluster(5));
  cluster.start();
  sim.run_until(sim::SimTime{0} + sim::seconds(2));
  // Without sync, 100 ppm relative drift over 2 s would be 200 us.
  // With FTA resync every round (2.5 ms) precision stays in single-digit us.
  EXPECT_LT(cluster.precision().ns(), 10'000);
}

TEST(Cluster, DriftingNodeWithoutSyncDiverges) {
  sim::Simulator sim(103);
  auto p = small_cluster();
  p.drift_bound_ppm = 100.0;
  Cluster cluster(sim, p);
  // Disable corrections by zeroing gain through enormous k (no quorum).
  // Instead: simply check that raw clocks do drift apart physically.
  sim.run_until(sim::SimTime{0} + sim::seconds(1));
  sim::Duration spread = cluster.precision();
  // Nodes never started -> no corrections -> pure physical drift.
  EXPECT_GT(spread.ns(), 10'000);
}

TEST(Cluster, FailSilentNodeSeenAsOmission) {
  sim::Simulator sim(104);
  Cluster cluster(sim, small_cluster());
  int omissions_from_2 = 0;
  cluster.node(0).observation_sink = [&](const SlotObservation& o) {
    if (o.sender == 2 && o.verdict == SlotVerdict::kOmission) ++omissions_from_2;
  };
  cluster.node(2).faults().fail_silent = true;
  cluster.start();
  sim.run_until(sim::SimTime{0} + sim::milliseconds(50));
  EXPECT_GT(omissions_from_2, 20);
}

TEST(Cluster, MembershipDropsFailedNode) {
  sim::Simulator sim(105);
  Cluster cluster(sim, small_cluster());
  cluster.start();
  sim.run_until(sim::SimTime{0} + sim::milliseconds(20));
  // Healthy phase: node 0 sees everyone.
  EXPECT_EQ(cluster.node(0).membership(), 0b1111u);
  cluster.node(3).faults().fail_silent = true;
  sim.run_until(sim.now() + sim::milliseconds(20));
  EXPECT_EQ(cluster.node(0).membership(), 0b0111u);
  EXPECT_EQ(cluster.node(1).membership(), 0b0111u);
}

TEST(Cluster, MembershipConsistentAcrossObservers) {
  sim::Simulator sim(106);
  Cluster cluster(sim, small_cluster(6));
  cluster.node(4).faults().fail_silent = true;
  cluster.start();
  sim.run_until(sim::SimTime{0} + sim::milliseconds(60));
  const auto m0 = cluster.node(0).membership();
  for (NodeId i = 1; i < 4; ++i) {
    EXPECT_EQ(cluster.node(i).membership(), m0) << "node " << i;
  }
  EXPECT_EQ(m0 & (1u << 4), 0u);
}

TEST(Cluster, GuardianBlocksBabblingIdiot) {
  sim::Simulator sim(107);
  Cluster cluster(sim, small_cluster());
  cluster.start();
  sim.run_until(sim::SimTime{0} + sim::milliseconds(10));
  // Node 1 babbles outside its slot: pick an instant inside node 3's slot.
  const auto& sched = cluster.schedule();
  const RoundId r = sched.round_at(sim.now()) + 2;
  bool blocked_result = true;
  sim.schedule_at(sched.slot_start(r, 3) + sim::microseconds(200), [&] {
    blocked_result = cluster.node(1).attempt_transmit_now();
  });
  sim.run_until(sim::SimTime{0} + sim::milliseconds(30));
  EXPECT_FALSE(blocked_result);
  EXPECT_GT(cluster.bus().frames_blocked(), 0u);
}

TEST(Cluster, GuardianDisabledLetsBabbleThrough) {
  sim::Simulator sim(108);
  auto p = small_cluster();
  p.bus.guardian_enabled = false;
  Cluster cluster(sim, p);
  cluster.start();
  sim.run_until(sim::SimTime{0} + sim::milliseconds(10));
  const auto& sched = cluster.schedule();
  const RoundId r = sched.round_at(sim.now()) + 2;
  bool sent = false;
  sim.schedule_at(sched.slot_start(r, 3) + sim::microseconds(200), [&] {
    sent = cluster.node(1).attempt_transmit_now();
  });
  sim.run_until(sim::SimTime{0} + sim::milliseconds(30));
  EXPECT_TRUE(sent);
}

TEST(Cluster, CorruptingSenderSeenAsCrcErrorByAll) {
  sim::Simulator sim(109);
  Cluster cluster(sim, small_cluster());
  std::map<NodeId, int> crc_errors;  // observer -> count
  for (NodeId i = 0; i < cluster.size(); ++i) {
    cluster.node(i).observation_sink = [&crc_errors, i](const SlotObservation& o) {
      if (o.sender == 2 && o.verdict == SlotVerdict::kCrcError) ++crc_errors[i];
    };
  }
  cluster.node(2).faults().tx_corrupt_prob = 1.0;
  cluster.start();
  sim.run_until(sim::SimTime{0} + sim::milliseconds(50));
  for (NodeId i = 0; i < 4; ++i) {
    if (i == 2) continue;
    EXPECT_GT(crc_errors[i], 15) << "observer " << i;
  }
}

TEST(Cluster, ReceiverLocalCorruptionSeenOnlyByThatReceiver) {
  // The paper's connector-fault signature: errors on one component only.
  sim::Simulator sim(110);
  Cluster cluster(sim, small_cluster());
  std::map<NodeId, int> crc_errors;
  for (NodeId i = 0; i < cluster.size(); ++i) {
    cluster.node(i).observation_sink = [&crc_errors, i](const SlotObservation& o) {
      if (o.verdict == SlotVerdict::kCrcError) ++crc_errors[i];
    };
  }
  cluster.node(1).faults().rx_corrupt_prob = 1.0;
  cluster.start();
  sim.run_until(sim::SimTime{0} + sim::milliseconds(50));
  EXPECT_GT(crc_errors[1], 30);
  EXPECT_EQ(crc_errors[0], 0);
  EXPECT_EQ(crc_errors[2], 0);
  EXPECT_EQ(crc_errors[3], 0);
}

TEST(Cluster, ReceiverStageCorruptionIsNodeInternal) {
  // Receiver-stage corruption privatizes the node's pending frame inside
  // the node; it is not a channel fault, so the bus's copy-on-corrupt
  // counter stays put and the peers keep verifying the shared slot.
  sim::Simulator sim(121);
  Cluster cluster(sim, small_cluster());
  std::map<NodeId, int> crc_errors;
  std::map<NodeId, int> correct;
  for (NodeId i = 0; i < cluster.size(); ++i) {
    cluster.node(i).observation_sink = [&crc_errors, &correct,
                                        i](const SlotObservation& o) {
      if (o.verdict == SlotVerdict::kCrcError) ++crc_errors[i];
      if (o.verdict == SlotVerdict::kCorrect) ++correct[i];
    };
  }
  const auto& pool = cluster.bus().frame_pool();
  const std::uint64_t copies0 = pool->corrupt_copies();
  cluster.node(1).faults().rx_corrupt_prob = 1.0;
  cluster.start();
  sim.run_until(sim::SimTime{0} + sim::milliseconds(50));

  EXPECT_GT(crc_errors[1], 30);
  EXPECT_EQ(correct[1], 0);
  for (NodeId i : {0u, 2u, 3u}) {
    EXPECT_EQ(crc_errors[i], 0) << "observer " << i;
    EXPECT_GT(correct[i], 30) << "observer " << i;
  }
  EXPECT_EQ(pool->corrupt_copies(), copies0);
}

TEST(Cluster, RestartAndReintegrationReleaseThePendingFrame) {
  // The pending slot holds a pooled handle; restart() and reintegrate()
  // must release it, or every restart would pin a pool slot.
  sim::Simulator sim(122);
  Cluster cluster(sim, small_cluster());
  const auto& pool = cluster.bus().frame_pool();
  const auto& sched = cluster.schedule();
  // A private pending copy on node 1 makes its release observable.
  cluster.node(1).faults().rx_corrupt_prob = 1.0;
  cluster.start();
  sim.run_until(sim::SimTime{0} + sim::milliseconds(20));

  RoundId round = sched.round_at(sim.now()) + 1;
  for (int i = 0; i < 100; ++i, ++round) {
    // Mid-slot of node 0's transmission: the peers share the master, node
    // 1 holds its private corrupted copy.
    sim.run_until(sched.slot_start(round, sched.slot_of(0)) +
                  sim::microseconds(250));
    ASSERT_EQ(pool->in_use(), 2u) << "restart " << i;
    cluster.node(1).restart();
    EXPECT_EQ(pool->in_use(), 1u) << "restart " << i;
  }

  cluster.node(1).faults().rx_corrupt_prob = 0.0;

  // Quartz failure then repair: node 2 churns through desync and
  // re-integration cycles, each abandoning whatever it held pending.
  cluster.node(2).clock().set_drift_ppm(20'000.0);
  sim.run_until(sim.now() + sim::milliseconds(100));
  cluster.node(2).clock().set_drift_ppm(10.0);
  sim.run_until(sim.now() + sim::milliseconds(100));
  EXPECT_TRUE(cluster.node(2).in_sync());
  EXPECT_LE(pool->in_use(), cluster.size() + 1);
  EXPECT_LE(pool->slots(), 2 * cluster.size());
}

TEST(Cluster, DelayedTransmitterSeenAsTimingError) {
  sim::Simulator sim(111);
  Cluster cluster(sim, small_cluster());
  int timing_from_0 = 0;
  cluster.node(1).observation_sink = [&](const SlotObservation& o) {
    if (o.sender == 0 && o.verdict == SlotVerdict::kTimingError) ++timing_from_0;
  };
  // 25 us: inside the guardian window (30 us) so the frame reaches the
  // bus, but outside the receive window (20 us) so receivers judge it a
  // timing failure. Anything beyond the guardian window is cut off and
  // would be seen as an omission instead.
  cluster.node(0).faults().tx_delay = sim::microseconds(25);
  cluster.start();
  sim.run_until(sim::SimTime{0} + sim::milliseconds(50));
  EXPECT_GT(timing_from_0, 15);
}

TEST(Cluster, ClockExcursionDropsNodeAndReintegrationHeals) {
  sim::Simulator sim(112);
  Cluster cluster(sim, small_cluster());
  cluster.start();
  sim.run_until(sim::SimTime{0} + sim::milliseconds(20));
  // Quartz failure: the clock runs off wildly. The node churns through
  // desync/re-integrate cycles; its frames are useless to the others, so
  // the membership drops it even though it keeps trying.
  cluster.node(2).clock().set_drift_ppm(20'000.0);
  sim.run_until(sim.now() + sim::milliseconds(200));
  EXPECT_EQ(cluster.node(0).membership() & 0b0100u, 0u);
  // Repairing the oscillator is enough: TTP-style integration on received
  // frames resynchronises the node without any explicit restart.
  cluster.node(2).clock().set_drift_ppm(10.0);
  sim.run_until(sim.now() + sim::milliseconds(100));
  EXPECT_TRUE(cluster.node(2).in_sync());
  EXPECT_EQ(cluster.node(0).membership() & 0b0100u, 0b0100u);
}

TEST(Cluster, RestartIsSafeOnHealthyNode) {
  sim::Simulator sim(114);
  Cluster cluster(sim, small_cluster());
  cluster.start();
  sim.run_until(sim::SimTime{0} + sim::milliseconds(20));
  cluster.node(1).restart();
  sim.run_until(sim.now() + sim::milliseconds(40));
  EXPECT_TRUE(cluster.node(1).in_sync());
  EXPECT_EQ(cluster.node(0).membership(), 0b1111u);
}

TEST(Cluster, DoubleRestartRunsExactlyOneSlotChain) {
  // Two restarts in the same round must not race two concurrent slot
  // chains — the node would transmit twice per round and be judged a
  // babbler. The chain epoch cancels the first restart's chain.
  sim::Simulator sim(119);
  Cluster cluster(sim, small_cluster());
  cluster.start();
  sim.run_until(sim::SimTime{0} + sim::milliseconds(20));
  cluster.node(1).restart();
  cluster.node(1).restart();
  sim.run_until(sim.now() + sim::microseconds(300));
  cluster.node(1).restart();  // and once more while the fresh chain runs
  sim.run_until(sim.now() + sim::milliseconds(40));
  EXPECT_TRUE(cluster.node(1).in_sync());
  // Peers still see a well-behaved node 1 (no double transmissions).
  EXPECT_EQ(cluster.node(0).membership(), 0b1111u);
  EXPECT_EQ(cluster.node(2).membership(), 0b1111u);
}

TEST(Cluster, RestartDuringColdStartListeningJoins) {
  // A restart while the node is still in its cold-start listen phase used
  // to wedge it: in_sync_ was set but no slot chain existed, and the
  // anchor timeout had been consumed. It must come up on the running
  // cluster's schedule instead.
  sim::Simulator sim(120);
  Cluster cluster(sim, small_cluster());
  for (NodeId n = 0; n < 3; ++n) cluster.node(n).start();
  sim.run_until(sim::SimTime{0} + sim::milliseconds(10));
  cluster.node(3).start_cold();  // listening, not yet integrated
  cluster.node(3).restart();     // maintenance reset lands mid-listen
  sim.run_until(sim.now() + sim::milliseconds(60));
  EXPECT_TRUE(cluster.node(3).in_sync());
  EXPECT_EQ(cluster.node(0).membership() & 0b1000u, 0b1000u);
}

TEST(Cluster, AnchorRestartKeepsLoneNodeAlive) {
  // The cold-start anchor of a single-node "cluster" is restarted: with
  // nobody to resynchronise against it must keep free-running its own
  // schedule, not fall silent waiting for frames.
  sim::Simulator sim(121);
  Cluster cluster(sim, small_cluster(4));
  cluster.node(2).start_cold();
  sim.run_until(sim::SimTime{0} + sim::milliseconds(50));
  ASSERT_TRUE(cluster.node(2).in_sync());
  const auto frames_before = cluster.bus().frames_sent();
  cluster.node(2).restart();
  sim.run_until(sim.now() + sim::milliseconds(50));
  EXPECT_TRUE(cluster.node(2).in_sync());
  EXPECT_GT(cluster.bus().frames_sent(), frames_before + 10u);
}

TEST(Cluster, FaultFreeBroadcastsNeedNoReceiveSideCrc) {
  // Senders seal in their pool slot, which records the verdict: receivers
  // judge every fault-free frame correct without running a CRC. A
  // corrupting sender's frames are still checked (and fail) once each.
  sim::Simulator sim(107);
  Cluster cluster(sim, small_cluster());
  std::uint64_t correct = 0, crc_errors = 0;
  for (NodeId i = 0; i < cluster.size(); ++i) {
    cluster.node(i).observation_sink = [&](const SlotObservation& o) {
      correct += o.verdict == SlotVerdict::kCorrect;
      crc_errors += o.verdict == SlotVerdict::kCrcError;
    };
  }
  cluster.start();
  sim.run_until(sim::SimTime{0} + sim::milliseconds(40));
  EXPECT_GT(correct, 0u);
  EXPECT_EQ(crc_errors, 0u);
  EXPECT_EQ(cluster.bus().frame_pool()->crc_checks(), 0u);

  cluster.node(1).faults().tx_corrupt_prob = 1.0;
  const std::uint64_t sent = cluster.bus().frames_sent();
  sim.run_until(sim::SimTime{0} + sim::milliseconds(80));
  EXPECT_GT(crc_errors, 0u);
  EXPECT_GT(cluster.bus().frame_pool()->crc_checks(), 0u);
  EXPECT_LT(cluster.bus().frame_pool()->crc_checks(),
            cluster.bus().frames_sent() - sent);
}

TEST(Cluster, DeterministicTrajectories) {
  auto run = [](std::uint64_t seed) {
    sim::Simulator sim(seed);
    Cluster cluster(sim, small_cluster());
    std::vector<std::uint64_t> memberships;
    cluster.node(0).membership_handler = [&](RoundId, std::uint64_t m) {
      memberships.push_back(m);
    };
    cluster.node(1).faults().tx_omission_prob = 0.3;
    cluster.start();
    sim.run_until(sim::SimTime{0} + sim::milliseconds(100));
    return memberships;
  };
  EXPECT_EQ(run(55), run(55));
}

TEST(Cluster, PayloadDeliveredToHandler) {
  sim::Simulator sim(113);
  Cluster cluster(sim, small_cluster());
  cluster.node(0).payload_provider = [](RoundId r,
                                        std::vector<std::uint8_t>& out) {
    out = {0xDE, 0xAD, static_cast<std::uint8_t>(r & 0xFF)};
  };
  std::vector<std::uint8_t> last;
  cluster.node(2).delivery_handler = [&](NodeId sender,
                                         const std::vector<std::uint8_t>& p,
                                         RoundId) {
    if (sender == 0) last = p;
  };
  cluster.start();
  sim.run_until(sim::SimTime{0} + sim::milliseconds(20));
  ASSERT_EQ(last.size(), 3u);
  EXPECT_EQ(last[0], 0xDE);
  EXPECT_EQ(last[1], 0xAD);
}


TEST(ColdStart, StaggeredPowerOnConverges) {
  sim::Simulator sim(115);
  Cluster cluster(sim, small_cluster(5));
  cluster.start_cold(sim::milliseconds(20));
  sim.run_until(sim::SimTime{0} + sim::milliseconds(300));
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_TRUE(cluster.node(n).in_sync()) << "node " << n;
  }
  // Everyone sees everyone.
  EXPECT_EQ(cluster.node(0).membership(), 0b11111u);
  EXPECT_EQ(cluster.node(4).membership(), 0b11111u);
  // And traffic flows with tight precision.
  EXPECT_LT(cluster.precision().us(), 10.0);
}

TEST(ColdStart, SingleNodeAnchorsAlone) {
  sim::Simulator sim(116);
  Cluster cluster(sim, small_cluster(4));
  // Power on only node 2; it must anchor after its listen timeout and
  // keep executing its schedule although nobody answers.
  cluster.node(2).start_cold();
  sim.run_until(sim::SimTime{0} + sim::milliseconds(100));
  // A lone node keeps free-running: silence is not sync-loss evidence.
  EXPECT_TRUE(cluster.node(2).in_sync());
  EXPECT_GT(cluster.bus().frames_sent(), 30u);
}

TEST(ColdStart, LateJoinerIntegratesIntoRunningCluster) {
  sim::Simulator sim(117);
  Cluster cluster(sim, small_cluster(4));
  for (NodeId n = 0; n < 3; ++n) cluster.node(n).start();
  sim.run_until(sim::SimTime{0} + sim::milliseconds(50));
  cluster.node(3).start_cold();  // powers on late, hears traffic, joins
  sim.run_until(sim.now() + sim::milliseconds(100));
  EXPECT_TRUE(cluster.node(3).in_sync());
  EXPECT_EQ(cluster.node(0).membership() & 0b1000u, 0b1000u);
}

TEST(ColdStart, DeterministicFormation) {
  auto run = [](std::uint64_t seed) {
    sim::Simulator sim(seed);
    Cluster cluster(sim, small_cluster(5));
    cluster.start_cold(sim::milliseconds(20));
    sim.run_until(sim::SimTime{0} + sim::milliseconds(300));
    return cluster.bus().frames_sent();
  };
  EXPECT_EQ(run(118), run(118));
}

}  // namespace
}  // namespace decos::tta
