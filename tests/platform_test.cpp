// Tests for the platform layer: sensors and their fault modes, job
// dispatch semantics and software faults, and full System integration —
// jobs on different components exchanging messages over the TDMA bus,
// local loopback, DAS encapsulation bookkeeping, determinism, and the
// receive side's decode-only-hosted-records delivery.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "platform/system.hpp"
#include "platform/transducer.hpp"
#include "sim/simulator.hpp"

namespace decos::platform {
namespace {

// --- sensors -------------------------------------------------------------------

TEST(Sensor, HealthyTracksSignal) {
  sim::Rng rng(1);
  Sensor s({.name = "t", .signal = constant_signal(20.0), .noise_stddev = 0.01},
           rng);
  const double v = s.read(sim::SimTime{0});
  EXPECT_NEAR(v, 20.0, 0.1);
  EXPECT_DOUBLE_EQ(s.truth(sim::SimTime{0}), 20.0);
}

TEST(Sensor, StuckFreezesLastHealthyValue) {
  sim::Rng rng(2);
  Sensor s({.signal = sine_signal(10.0, 1.0), .noise_stddev = 0.0}, rng);
  (void)s.read(sim::SimTime{0});
  const double frozen = s.read(sim::SimTime{100'000'000});
  s.set_fault(SensorFaultMode::kStuck, sim::SimTime{100'000'000});
  for (int i = 1; i <= 5; ++i) {
    EXPECT_DOUBLE_EQ(s.read(sim::SimTime{100'000'000 + i * 50'000'000}), frozen);
  }
}

TEST(Sensor, OffsetAddsBias) {
  sim::Rng rng(3);
  Sensor s({.signal = constant_signal(0.0), .noise_stddev = 0.0,
            .offset_bias = 5.0}, rng);
  s.set_fault(SensorFaultMode::kOffset, sim::SimTime{0});
  EXPECT_NEAR(s.read(sim::SimTime{0}), 5.0, 1e-9);
}

TEST(Sensor, DriftGrowsWithTime) {
  sim::Rng rng(4);
  Sensor s({.signal = constant_signal(0.0), .noise_stddev = 0.0,
            .drift_rate_per_hour = 2.0}, rng);
  const sim::SimTime t0 = sim::SimTime{0};
  s.set_fault(SensorFaultMode::kDrift, t0);
  EXPECT_NEAR(s.read(t0 + sim::hours(1)), 2.0, 1e-6);
  EXPECT_NEAR(s.read(t0 + sim::hours(3)), 6.0, 1e-6);
}

TEST(Sensor, NoisyHasLargeVariance) {
  sim::Rng rng(5);
  Sensor s({.signal = constant_signal(0.0), .noise_stddev = 0.01,
            .noisy_stddev = 3.0}, rng);
  s.set_fault(SensorFaultMode::kNoisy, sim::SimTime{0});
  double sq = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const double v = s.read(sim::SimTime{i});
    sq += v * v;
  }
  EXPECT_NEAR(std::sqrt(sq / n), 3.0, 0.3);
}

// --- system integration ----------------------------------------------------------

struct TestRig {
  sim::Simulator sim;
  System system;

  explicit TestRig(std::uint64_t seed = 42, std::uint32_t nodes = 4)
      : sim(seed), system(sim, make_params(nodes)) {}

  static System::Params make_params(std::uint32_t nodes) {
    System::Params p;
    p.cluster.node_count = nodes;
    p.cluster.tdma.slot_length = sim::microseconds(500);
    return p;
  }

  void run_ms(std::int64_t ms) {
    sim.run_until(sim.now() + sim::milliseconds(ms));
  }
};

TEST(System, JobsOnDifferentComponentsExchangeMessages) {
  TestRig rig;
  auto& sys = rig.system;
  const DasId das = sys.add_das("app", Criticality::kNonSafetyCritical);
  const VnetId vn = sys.add_vnet("app", 4, 8);

  std::vector<double> received;
  Job& producer = sys.add_job(das, "producer", 0, [](JobContext& ctx) {
    ctx.send(0, 1.5 + static_cast<double>(ctx.round()));
  });
  Job& consumer = sys.add_job(das, "consumer", 2, [&](JobContext& ctx) {
    for (const auto& m : ctx.inbox()) received.push_back(m.value);
  });
  (void)consumer;
  sys.add_port(producer.id(), "out", vn, {consumer.id()});
  sys.finalize();
  sys.start();
  rig.run_ms(50);

  ASSERT_GT(received.size(), 10u);
  // Values are 1.5 + round, rounds increase by one.
  EXPECT_DOUBLE_EQ(received[1] - received[0], 1.0);
}

TEST(System, LocalLoopbackDeliversWithoutBus) {
  TestRig rig;
  auto& sys = rig.system;
  const DasId das = sys.add_das("app", Criticality::kNonSafetyCritical);
  const VnetId vn = sys.add_vnet("app", 4, 8);
  int received = 0;
  Job& a = sys.add_job(das, "a", 1, [](JobContext& ctx) { ctx.send(0, 7.0); });
  Job& b = sys.add_job(das, "b", 1, [&](JobContext& ctx) {
    received += static_cast<int>(ctx.inbox().size());
  });
  sys.add_port(a.id(), "out", vn, {b.id()});
  sys.finalize();
  sys.start();
  rig.run_ms(30);
  EXPECT_GT(received, 5);
}

TEST(System, MulticastReachesAllReceivers) {
  TestRig rig;
  auto& sys = rig.system;
  const DasId das = sys.add_das("app", Criticality::kNonSafetyCritical);
  const VnetId vn = sys.add_vnet("app", 4, 8);
  std::map<JobId, int> counts;
  Job& src = sys.add_job(das, "src", 0, [](JobContext& ctx) { ctx.send(0, 1.0); });
  Job& r1 = sys.add_job(das, "r1", 1, [&](JobContext& ctx) {
    counts[1] += static_cast<int>(ctx.inbox().size());
  });
  Job& r2 = sys.add_job(das, "r2", 2, [&](JobContext& ctx) {
    counts[2] += static_cast<int>(ctx.inbox().size());
  });
  Job& r3 = sys.add_job(das, "r3", 3, [&](JobContext& ctx) {
    counts[3] += static_cast<int>(ctx.inbox().size());
  });
  sys.add_port(src.id(), "out", vn, {r1.id(), r2.id(), r3.id()});
  sys.finalize();
  sys.start();
  rig.run_ms(40);
  EXPECT_GT(counts[1], 10);
  EXPECT_GT(counts[2], 10);
  EXPECT_GT(counts[3], 10);
}

TEST(System, PeriodicJobDispatchesAtItsPeriod) {
  TestRig rig;
  auto& sys = rig.system;
  const DasId das = sys.add_das("app", Criticality::kNonSafetyCritical);
  Job& slow = sys.add_job(das, "slow", 0, [](JobContext&) {}, 4);
  Job& fast = sys.add_job(das, "fast", 0, [](JobContext&) {}, 1);
  sys.finalize();
  sys.start();
  rig.run_ms(80);  // 40 rounds at 2 ms/round
  EXPECT_GT(fast.dispatches(), 30u);
  EXPECT_NEAR(static_cast<double>(fast.dispatches()) /
                  static_cast<double>(slow.dispatches()),
              4.0, 0.6);
}

TEST(System, CrashedJobStopsSendingUntilSoftwareUpdate) {
  TestRig rig;
  auto& sys = rig.system;
  const DasId das = sys.add_das("app", Criticality::kNonSafetyCritical);
  const VnetId vn = sys.add_vnet("app", 4, 8);
  int received = 0;
  Job& src = sys.add_job(das, "src", 0, [](JobContext& ctx) { ctx.send(0, 1.0); });
  Job& dst = sys.add_job(das, "dst", 1, [&](JobContext& ctx) {
    received += static_cast<int>(ctx.inbox().size());
  });
  sys.add_port(src.id(), "out", vn, {dst.id()});
  sys.finalize();
  sys.start();
  rig.run_ms(20);
  const int before = received;
  EXPECT_GT(before, 0);
  src.sw_faults().crashed = true;
  rig.run_ms(20);
  const int during = received - before;
  EXPECT_LE(during, 2);  // at most in-flight messages
  src.software_update();
  rig.run_ms(20);
  EXPECT_GT(received - before - during, 3);
}

TEST(System, HeisenbugValueErrorsAppearStochastically) {
  TestRig rig(7);
  auto& sys = rig.system;
  const DasId das = sys.add_das("app", Criticality::kNonSafetyCritical);
  const VnetId vn = sys.add_vnet("app", 4, 8);
  std::vector<double> values;
  Job& src = sys.add_job(das, "src", 0, [](JobContext& ctx) { ctx.send(0, 1.0); });
  Job& dst = sys.add_job(das, "dst", 1, [&](JobContext& ctx) {
    for (const auto& m : ctx.inbox()) values.push_back(m.value);
  });
  sys.add_port(src.id(), "out", vn, {dst.id()});
  src.sw_faults().heisenbug_prob = 0.3;
  src.sw_faults().manifestation =
      SoftwareFaultControls::Manifestation::kValueError;
  src.sw_faults().value_error = 50.0;
  sys.finalize();
  sys.start();
  rig.run_ms(100);
  ASSERT_GT(values.size(), 30u);
  int bad = 0;
  for (double v : values) {
    if (v > 25.0) ++bad;
  }
  const double frac = static_cast<double>(bad) / static_cast<double>(values.size());
  EXPECT_GT(frac, 0.15);
  EXPECT_LT(frac, 0.45);
}

TEST(System, BohrbugTriggersDeterministically) {
  TestRig rig;
  auto& sys = rig.system;
  const DasId das = sys.add_das("app", Criticality::kNonSafetyCritical);
  const VnetId vn = sys.add_vnet("app", 4, 8);
  std::vector<std::pair<tta::RoundId, double>> got;
  Job& src = sys.add_job(das, "src", 0, [](JobContext& ctx) {
    ctx.send(0, 1.0);
  });
  Job& dst = sys.add_job(das, "dst", 1, [&](JobContext& ctx) {
    for (const auto& m : ctx.inbox()) got.emplace_back(m.sent_round, m.value);
  });
  sys.add_port(src.id(), "out", vn, {dst.id()});
  // The Bohrbug fires exactly when round % 10 == 3 (a deterministic input
  // condition).
  src.sw_faults().bohrbug_trigger = [](tta::RoundId r,
                                       const std::vector<vnet::Message>&) {
    return r % 10 == 3;
  };
  src.sw_faults().manifestation =
      SoftwareFaultControls::Manifestation::kValueError;
  sys.finalize();
  sys.start();
  rig.run_ms(100);
  ASSERT_GT(got.size(), 20u);
  for (const auto& [round, value] : got) {
    if (round % 10 == 3) {
      EXPECT_GT(value, 25.0) << "round " << round;
    } else {
      EXPECT_LT(value, 25.0) << "round " << round;
    }
  }
}

TEST(System, SkipDispatchManifestsAsMissingMessages) {
  TestRig rig;
  auto& sys = rig.system;
  const DasId das = sys.add_das("app", Criticality::kNonSafetyCritical);
  const VnetId vn = sys.add_vnet("app", 4, 8);
  std::vector<std::uint32_t> seqs;
  Job& src = sys.add_job(das, "src", 0, [](JobContext& ctx) { ctx.send(0, 1.0); });
  Job& dst = sys.add_job(das, "dst", 1, [&](JobContext& ctx) {
    for (const auto& m : ctx.inbox()) seqs.push_back(m.seq);
  });
  sys.add_port(src.id(), "out", vn, {dst.id()});
  src.sw_faults().bohrbug_trigger = [](tta::RoundId r,
                                       const std::vector<vnet::Message>&) {
    return r % 5 == 0;
  };
  src.sw_faults().manifestation =
      SoftwareFaultControls::Manifestation::kSkipDispatch;
  sys.finalize();
  sys.start();
  rig.run_ms(100);
  // Sequence numbers are contiguous (they count sends, and skipped
  // dispatches send nothing), but the *number* of messages is ~80% of
  // rounds.
  ASSERT_GT(seqs.size(), 20u);
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], seqs[i - 1] + 1);
  }
  const auto rounds = rig.system.cluster().node(0).current_round();
  EXPECT_LT(seqs.size(), static_cast<std::size_t>(rounds) * 9 / 10);
}

TEST(System, UndersizedVnetBudgetCausesOverflows) {
  // The job borderline (configuration) fault: the job is specified to send
  // 3 messages per round but the vnet budget admits only 1.
  TestRig rig;
  auto& sys = rig.system;
  const DasId das = sys.add_das("app", Criticality::kNonSafetyCritical);
  const VnetId vn = sys.add_vnet("app", 1, 4);  // budget 1/round, depth 4
  Job& src = sys.add_job(das, "src", 0, [](JobContext& ctx) {
    ctx.send(0, 1.0);
    ctx.send(0, 2.0);
    ctx.send(0, 3.0);
  });
  Job& dst = sys.add_job(das, "dst", 1, [](JobContext&) {});
  sys.add_port(src.id(), "out", vn, {dst.id()});
  sys.finalize();
  sys.start();
  rig.run_ms(60);
  EXPECT_GT(sys.component(0).mux().total_overflows(), 10u);
}

TEST(System, DasBookkeepingTracksJobsAndCriticality) {
  TestRig rig;
  auto& sys = rig.system;
  const DasId sc = sys.add_das("brake", Criticality::kSafetyCritical);
  const DasId nsc = sys.add_das("media", Criticality::kNonSafetyCritical);
  Job& j1 = sys.add_job(sc, "b1", 0, [](JobContext&) {});
  Job& j2 = sys.add_job(nsc, "m1", 0, [](JobContext&) {});
  EXPECT_EQ(j1.criticality(), Criticality::kSafetyCritical);
  EXPECT_EQ(j2.criticality(), Criticality::kNonSafetyCritical);
  EXPECT_EQ(sys.das(sc).jobs.size(), 1u);
  EXPECT_EQ(sys.das(nsc).jobs.size(), 1u);
  EXPECT_EQ(sys.job(j1.id()).name(), "b1");
}

TEST(System, SenderSideLifObservationSeesAllTraffic) {
  TestRig rig;
  auto& sys = rig.system;
  const DasId das = sys.add_das("app", Criticality::kNonSafetyCritical);
  const VnetId vn = sys.add_vnet("app", 4, 8);
  Job& src = sys.add_job(das, "src", 0, [](JobContext& ctx) { ctx.send(0, 4.5); });
  Job& dst = sys.add_job(das, "dst", 1, [](JobContext&) {});
  sys.add_port(src.id(), "out", vn, {dst.id()});
  sys.finalize();
  int observed = 0;
  sys.component(0).on_message_sent = [&](const vnet::Message& m, tta::RoundId) {
    EXPECT_DOUBLE_EQ(m.value, 4.5);
    ++observed;
  };
  sys.start();
  rig.run_ms(30);
  EXPECT_GT(observed, 10);
}

TEST(System, DeterministicEndToEnd) {
  auto run = [](std::uint64_t seed) {
    TestRig rig(seed);
    auto& sys = rig.system;
    const DasId das = sys.add_das("app", Criticality::kNonSafetyCritical);
    const VnetId vn = sys.add_vnet("app", 4, 8);
    std::vector<double> values;
    Job& src = sys.add_job(das, "src", 0, [](JobContext& ctx) {
      ctx.send(0, static_cast<double>(ctx.round()));
    });
    Job& dst = sys.add_job(das, "dst", 1, [&](JobContext& ctx) {
      for (const auto& m : ctx.inbox()) values.push_back(m.value);
    });
    sys.add_port(src.id(), "out", vn, {dst.id()});
    src.sw_faults().heisenbug_prob = 0.2;
    sys.finalize();
    sys.start();
    rig.run_ms(60);
    return values;
  };
  EXPECT_EQ(run(9), run(9));
  EXPECT_NE(run(9), run(10));
}

// --- receive-side delivery ------------------------------------------------------

// Component 0 sends one record per round on port A (received by two jobs
// on component 1 and one on component 2) and one on port B (received on
// component 2 only), so component 1 hosts a receiver for A but not for B.
struct DeliveryRig {
  TestRig rig;
  PortId port_a = 0;
  PortId port_b = 0;
  std::vector<JobId> on_c1;  // the two port-A receivers on component 1
  /// Every record each receiver job saw, in inbox order.
  std::map<JobId, std::vector<vnet::Message>> inboxes;

  DeliveryRig() {
    System& sys = rig.system;
    const DasId das = sys.add_das("app", Criticality::kNonSafetyCritical);
    const VnetId vn = sys.add_vnet("app", 4, 8);
    Job& src = sys.add_job(das, "src", 0, [this](JobContext& ctx) {
      ctx.send(port_a, static_cast<double>(ctx.round()));
      ctx.send(port_b, -static_cast<double>(ctx.round()));
    });
    auto record = [this](JobContext& ctx) {
      auto& log = inboxes[ctx.job().id()];
      log.insert(log.end(), ctx.inbox().begin(), ctx.inbox().end());
    };
    const JobId r1a = sys.add_job(das, "r1a", 1, record).id();
    const JobId r1b = sys.add_job(das, "r1b", 1, record).id();
    const JobId r2 = sys.add_job(das, "r2", 2, record).id();
    on_c1 = {r1a, r1b};
    port_a = sys.add_port(src.id(), "a", vn, {r1a, r1b, r2});
    port_b = sys.add_port(src.id(), "b", vn, {r2});
    sys.finalize();
  }

  /// Ends on a round boundary, after component 1's last dispatch, so every
  /// record it decoded has reached an inbox.
  void run() {
    rig.system.start();
    rig.run_ms(40);
  }
};

bool same_record(const vnet::Message& a, const vnet::Message& b) {
  return a.vnet == b.vnet && a.port == b.port && a.sender == b.sender &&
         a.kind == b.kind && a.seq == b.seq && a.aux == b.aux &&
         a.value == b.value && a.sent_round == b.sent_round;
}

TEST(Delivery, ReceiverDecodesOnlyRecordsItHosts) {
  DeliveryRig d;
  d.run();
  const Component& c1 = d.rig.system.component(1);
  // Component 1 receives only component 0's frames with records (the
  // other nodes send empty payloads): one port-A record each, and the
  // port-B record is skipped undecoded.
  const std::size_t delivered = d.inboxes[d.on_c1[0]].size();
  ASSERT_GT(delivered, 10u);
  EXPECT_EQ(c1.records_decoded(), delivered);
  EXPECT_EQ(d.inboxes[d.on_c1[1]].size(), delivered);
  for (const vnet::Message& m : d.inboxes[d.on_c1[0]]) {
    EXPECT_EQ(m.port, d.port_a);
  }
}

TEST(Delivery, MutatorSeesEveryArrivingRecordIncludingUnhostedPorts) {
  DeliveryRig d;
  std::map<PortId, std::size_t> mutated;
  d.rig.system.component(1).delivery_mutator = [&](vnet::Message& m) {
    ++mutated[m.port];
  };
  d.run();
  const Component& c1 = d.rig.system.component(1);
  // One call per arriving record: the port-A records its receivers get,
  // and as many port-B records that no job on component 1 receives.
  const std::size_t delivered = d.inboxes[d.on_c1[0]].size();
  ASSERT_GT(delivered, 10u);
  EXPECT_EQ(mutated[d.port_a], delivered);
  EXPECT_EQ(mutated[d.port_b], delivered);
  EXPECT_EQ(c1.records_decoded(), mutated[d.port_a] + mutated[d.port_b]);
}

TEST(Delivery, MaskedInboxesMatchTheFullDecode) {
  // An identity mutator forces the full (unmasked) decode without changing
  // any record, so both runs must fill every inbox identically.
  DeliveryRig masked;
  masked.run();
  DeliveryRig full;
  for (ComponentId c = 0; c < 4; ++c) {
    full.rig.system.component(c).delivery_mutator = [](vnet::Message&) {};
  }
  full.run();
  EXPECT_LT(masked.rig.system.component(1).records_decoded(),
            full.rig.system.component(1).records_decoded());
  ASSERT_EQ(masked.inboxes.size(), full.inboxes.size());
  for (const auto& [job, log] : masked.inboxes) {
    const auto& other = full.inboxes.at(job);
    ASSERT_EQ(log.size(), other.size()) << "job " << job;
    for (std::size_t i = 0; i < log.size(); ++i) {
      EXPECT_TRUE(same_record(log[i], other[i])) << "job " << job;
    }
  }
}

TEST(Delivery, FilterConsultedOncePerRecordAndHostedReceiver) {
  DeliveryRig d;
  std::map<std::pair<std::uint32_t, JobId>, int> calls;  // (seq, receiver)
  d.rig.system.component(1).delivery_filter = [&](const vnet::Message& m,
                                                  JobId receiver) {
    EXPECT_EQ(m.port, d.port_a);
    ++calls[{m.seq, receiver}];
    return true;
  };
  d.run();
  const std::size_t delivered = d.inboxes[d.on_c1[0]].size();
  ASSERT_GT(delivered, 10u);
  EXPECT_EQ(calls.size(), 2 * delivered);
  for (const auto& [key, n] : calls) {
    EXPECT_EQ(n, 1) << "seq " << key.first << " receiver " << key.second;
    EXPECT_TRUE(key.second == d.on_c1[0] || key.second == d.on_c1[1]);
  }
}

}  // namespace
}  // namespace decos::platform
