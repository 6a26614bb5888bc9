// Property-based parameterised suites (TEST_P): invariants that must hold
// across swept parameters and seeds rather than at hand-picked points —
// event-order monotonicity, wire-format round-trip/rejection under fuzz,
// multiplexer queue invariants, clock-sync precision across the drift
// envelope, and classifier correctness across archetype x seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <string>
#include <tuple>

#include "scenario/fig10.hpp"
#include "sim/simulator.hpp"
#include "tta/cluster.hpp"
#include "vnet/message.hpp"
#include "vnet/multiplexer.hpp"

namespace decos {
namespace {

// --- event queue: pops are monotone regardless of insertion pattern -----------

class EventOrderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventOrderProperty, PopsAreMonotone) {
  sim::Simulator simulator(GetParam());
  sim::Rng rng = simulator.fork_rng("fuzz");
  std::vector<std::int64_t> fired;
  for (int i = 0; i < 500; ++i) {
    simulator.schedule_at(
        sim::SimTime{rng.uniform_int(0, 100'000)},
        [&fired, &simulator] { fired.push_back(simulator.now().ns()); });
  }
  simulator.run_all();
  ASSERT_EQ(fired.size(), 500u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventOrderProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- wire format: round trip + rejection under truncation ----------------------

class WireFormatProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFormatProperty, RandomMessagesRoundTrip) {
  sim::Rng rng(GetParam());
  std::vector<vnet::Message> msgs;
  const auto n = static_cast<std::size_t>(rng.uniform_int(0, 30));
  for (std::size_t i = 0; i < n; ++i) {
    vnet::Message m;
    m.vnet = static_cast<platform::VnetId>(rng.uniform_int(0, 65535));
    m.port = static_cast<platform::PortId>(rng.uniform_int(0, 65535));
    m.sender = static_cast<platform::JobId>(rng.uniform_int(0, 65534));
    m.kind = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    m.seq = static_cast<std::uint32_t>(rng.next_u64());
    m.aux = static_cast<std::uint32_t>(rng.next_u64());
    m.value = rng.normal(0, 1e6);
    m.sent_round = static_cast<tta::RoundId>(rng.uniform_int(0, 1 << 30));
    msgs.push_back(m);
  }
  const auto bytes = vnet::pack(msgs, 0);
  const auto back = vnet::unpack(bytes);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), msgs.size());
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ((*back)[i].vnet, msgs[i].vnet);
    EXPECT_EQ((*back)[i].port, msgs[i].port);
    EXPECT_EQ((*back)[i].sender, msgs[i].sender);
    EXPECT_EQ((*back)[i].kind, msgs[i].kind);
    EXPECT_EQ((*back)[i].seq, msgs[i].seq);
    EXPECT_EQ((*back)[i].aux, msgs[i].aux);
    EXPECT_DOUBLE_EQ((*back)[i].value, msgs[i].value);
    EXPECT_EQ((*back)[i].sent_round, msgs[i].sent_round);
  }
}

TEST_P(WireFormatProperty, AnyTruncationIsRejected) {
  sim::Rng rng(GetParam() + 100);
  vnet::Message m;
  m.value = 1.0;
  const auto bytes = vnet::pack({m, m, m}, 0);
  // Every strict prefix except the empty-list encoding must be rejected.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::span<const std::uint8_t> prefix(bytes.data(), len);
    const auto r = vnet::unpack(prefix);
    EXPECT_FALSE(r.has_value()) << "prefix length " << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFormatProperty,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

// --- multiplexer: depth / budget / FIFO invariants -------------------------------

using MuxParam = std::tuple<int, int>;  // (budget, depth)

class MultiplexerProperty : public ::testing::TestWithParam<MuxParam> {};

TEST_P(MultiplexerProperty, DepthBudgetAndFifoHold) {
  const auto [budget, depth] = GetParam();
  vnet::NetworkPlan plan;
  plan.add_vnet({.id = 0, .name = "diag", .msgs_per_round_per_node = 4,
                 .queue_depth = 4});
  plan.add_vnet({.id = 1, .name = "app",
                 .msgs_per_round_per_node = static_cast<std::uint16_t>(budget),
                 .queue_depth = static_cast<std::uint16_t>(depth)});
  plan.add_port({.id = 0, .name = "p", .vnet = 1, .owner = 0, .receivers = {}});
  vnet::Multiplexer mux(plan, 0);
  mux.host_port(0);

  sim::Rng rng(99);
  std::uint32_t expected_seq = 0;
  for (tta::RoundId round = 0; round < 200; ++round) {
    const auto offered = rng.uniform_int(0, 5);
    for (std::int64_t i = 0; i < offered; ++i) {
      vnet::Message m;
      m.port = 0;
      mux.send(m, round);
      // Invariant: queue never exceeds the configured depth.
      EXPECT_LE(mux.queue_length(0), static_cast<std::size_t>(depth));
    }
    const auto out = mux.drain_messages(round);
    // Invariant: drain never exceeds the vnet budget.
    EXPECT_LE(out.size(), static_cast<std::size_t>(budget));
    // Invariant: FIFO — sequence numbers strictly increase across drains.
    for (const auto& m : out) {
      EXPECT_EQ(m.seq, expected_seq);
      ++expected_seq;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BudgetDepth, MultiplexerProperty,
    ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Values(1, 3, 8)));

// --- multiplexer: equal to a reference model under random traffic ---------------

// The multiplexer as a plain reference: queues in a map by port, drained
// in ascending vnet order, round-robin over each vnet's ports in hosting
// order, a pass repeating until the budget is spent or a whole pass moves
// nothing. Budgets, depths and kinds are read from the plan at each use.
struct MuxModel {
  const vnet::NetworkPlan& plan;
  std::map<platform::VnetId, std::vector<platform::PortId>> by_vnet;
  struct Port {
    std::deque<vnet::Message> queue;
    std::uint64_t overflows = 0;
    std::uint32_t next_seq = 0;
  };
  std::map<platform::PortId, Port> ports;

  void host(platform::PortId p) {
    ports[p];
    by_vnet[plan.port(p).vnet].push_back(p);
  }

  bool send(vnet::Message m, tta::RoundId round) {
    Port& q = ports.at(m.port);
    const vnet::VnetConfig& vn = plan.vnet(plan.port(m.port).vnet);
    m.vnet = plan.port(m.port).vnet;
    m.sender = plan.port(m.port).owner;
    m.sent_round = round;
    if (vn.kind == vnet::VnetKind::kTimeTriggered) {
      m.seq = q.next_seq++;
      if (q.queue.empty()) {
        q.queue.push_back(m);
      } else {
        q.queue.back() = m;
      }
      return true;
    }
    if (q.queue.size() >= vn.queue_depth) {
      ++q.overflows;
      return false;
    }
    m.seq = q.next_seq++;
    q.queue.push_back(m);
    return true;
  }

  std::vector<vnet::Message> drain(
      tta::RoundId round,
      const std::function<bool(vnet::Message&, tta::RoundId)>& filter) {
    std::vector<vnet::Message> out;
    for (const auto& [vnet_id, list] : by_vnet) {
      std::uint16_t budget = plan.vnet(vnet_id).msgs_per_round_per_node;
      bool progress = true;
      while (budget > 0 && progress) {
        progress = false;
        for (const platform::PortId p : list) {
          if (budget == 0) break;
          Port& q = ports.at(p);
          if (q.queue.empty()) continue;
          vnet::Message m = q.queue.front();
          q.queue.pop_front();
          --budget;
          progress = true;
          if (!filter(m, round)) continue;
          out.push_back(m);
        }
      }
    }
    return out;
  }
};

class MultiplexerModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiplexerModel, MatchesTheReferenceUnderRandomTraffic) {
  // Four vnets (two ET, one TT, one with nothing hosted), ten ports hosted
  // in shuffled order so each vnet's ports interleave with the others',
  // and one port left unhosted.
  vnet::NetworkPlan plan;
  plan.add_vnet({.id = 0, .name = "diag", .msgs_per_round_per_node = 3,
                 .queue_depth = 4});
  plan.add_vnet({.id = 1, .name = "state", .msgs_per_round_per_node = 2,
                 .queue_depth = 1, .kind = vnet::VnetKind::kTimeTriggered});
  plan.add_vnet({.id = 2, .name = "events", .msgs_per_round_per_node = 4,
                 .queue_depth = 3});
  plan.add_vnet({.id = 3, .name = "idle", .msgs_per_round_per_node = 4,
                 .queue_depth = 3});
  constexpr platform::PortId kPorts = 11;
  constexpr platform::PortId kUnhosted = 7;
  sim::Rng rng(GetParam());
  for (platform::PortId p = 0; p < kPorts; ++p) {
    const auto vn = static_cast<platform::VnetId>(rng.uniform_int(0, 2));
    plan.add_port({.id = p, .name = "p" + std::to_string(p), .vnet = vn,
                   .owner = static_cast<platform::JobId>(100 + p),
                   .receivers = {}});
  }
  std::vector<platform::PortId> hosted;
  for (platform::PortId p = 0; p < kPorts; ++p) {
    if (p != kUnhosted) hosted.push_back(p);
  }
  for (std::size_t i = hosted.size(); i > 1; --i) {
    std::swap(hosted[i - 1],
              hosted[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }

  vnet::Multiplexer mux(plan, 0);
  MuxModel model{plan, {}, {}};
  for (const platform::PortId p : hosted) {
    mux.host_port(p);
    model.host(p);
  }
  // A pure filter (both sides see the same calls): drops every fifth
  // message by content and corrupts the value of some others.
  const auto filter = [](vnet::Message& m, tta::RoundId) {
    if ((m.seq * 7 + m.port) % 5 == 0) return false;
    if (m.seq % 3 == 0) m.value = -m.value;
    return true;
  };
  mux.drain_filter = filter;

  // A drain that never ends is a failure too, so the run has a deadline.
  auto run = std::async(std::launch::async, [&] {
    for (tta::RoundId round = 1; round <= 400; ++round) {
      if (round == 150) {
        // Mid-run reconfiguration, as a job borderline fault injects it.
        plan.mutable_vnet(2).msgs_per_round_per_node = 1;
        plan.mutable_vnet(2).queue_depth = 6;
      }
      if (round == 280) {
        plan.mutable_vnet(0).msgs_per_round_per_node = 8;
        plan.mutable_vnet(2).queue_depth = 2;
      }
      const auto offered = rng.uniform_int(0, 9);
      for (std::int64_t i = 0; i < offered; ++i) {
        vnet::Message m;
        m.port = hosted[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(hosted.size()) - 1))];
        m.value = static_cast<double>(round * 16) + static_cast<double>(i);
        m.kind = static_cast<std::uint8_t>(i);
        ASSERT_EQ(mux.send(m, round), model.send(m, round))
            << "round " << round;
      }
      // Every few rounds nothing is drained, so queues fill and overflow.
      if (round % 4 == 3) continue;
      const std::vector<vnet::Message> got = mux.drain_messages(round);
      const std::vector<vnet::Message> want = model.drain(round, filter);
      ASSERT_EQ(got.size(), want.size()) << "round " << round;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].port, want[i].port) << "round " << round << " #" << i;
        EXPECT_EQ(got[i].vnet, want[i].vnet);
        EXPECT_EQ(got[i].sender, want[i].sender);
        EXPECT_EQ(got[i].seq, want[i].seq);
        EXPECT_EQ(got[i].kind, want[i].kind);
        EXPECT_EQ(got[i].value, want[i].value);
        EXPECT_EQ(got[i].sent_round, want[i].sent_round);
      }
      for (platform::PortId p = 0; p < kPorts + 2; ++p) {
        const auto it = model.ports.find(p);
        const bool hosted_here = it != model.ports.end();
        EXPECT_EQ(mux.overflows(p), hosted_here ? it->second.overflows : 0)
            << "port " << p;
        EXPECT_EQ(mux.queue_length(p),
                  hosted_here ? it->second.queue.size() : 0)
            << "port " << p;
      }
    }
  });
  if (run.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    ADD_FAILURE() << "drain_messages did not return";
    std::_Exit(1);
  }
  run.get();
  EXPECT_EQ(mux.queue_length(kUnhosted), 0u);
  EXPECT_EQ(mux.overflows(kUnhosted), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiplexerModel,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// --- clock sync: precision across the drift envelope -----------------------------

class ClockSyncProperty : public ::testing::TestWithParam<double> {};

TEST_P(ClockSyncProperty, PrecisionStaysWellInsideReceiveWindow) {
  const double drift_ppm = GetParam();
  sim::Simulator simulator(
      0xC10C5 + static_cast<std::uint64_t>(drift_ppm));
  tta::Cluster::Params p;
  p.node_count = 5;
  p.tdma.slot_length = sim::microseconds(500);
  p.drift_bound_ppm = drift_ppm;
  tta::Cluster cluster(simulator, p);
  cluster.start();
  simulator.run_until(sim::SimTime{0} + sim::seconds(3));
  for (tta::NodeId n = 0; n < 5; ++n) {
    EXPECT_TRUE(cluster.node(n).in_sync()) << "node " << n;
  }
  // Receive window is 20 us; FTA must hold precision well below half.
  EXPECT_LT(cluster.precision().us(), 10.0);
}

INSTANTIATE_TEST_SUITE_P(DriftBounds, ClockSyncProperty,
                         ::testing::Values(5.0, 20.0, 50.0, 100.0, 150.0));

// --- classifier: archetype x seed sweep ------------------------------------------

enum class Archetype {
  kWearout,
  kPermanent,
  kConnector,
  kEmi,
  kHeisenbug,
  kConfig,
  kBrownout,
};

const char* name(Archetype a) {
  switch (a) {
    case Archetype::kWearout: return "wearout";
    case Archetype::kPermanent: return "permanent";
    case Archetype::kConnector: return "connector";
    case Archetype::kEmi: return "emi";
    case Archetype::kHeisenbug: return "heisenbug";
    case Archetype::kConfig: return "config";
    case Archetype::kBrownout: return "brownout";
  }
  return "?";
}

using ClassifierParam = std::tuple<Archetype, std::uint64_t>;

class ClassifierProperty : public ::testing::TestWithParam<ClassifierParam> {};

TEST_P(ClassifierProperty, ArchetypeClassifiedCorrectly) {
  const auto [arch, seed] = GetParam();
  SCOPED_TRACE(name(arch));
  scenario::Fig10System rig({.seed = seed});
  const auto t0 = sim::SimTime{0};

  fault::FaultClass expected = fault::FaultClass::kNone;
  bool job_level = false;
  platform::ComponentId subject_c = 0;
  platform::JobId subject_j = 0;
  sim::Duration horizon = sim::seconds(4);

  switch (arch) {
    case Archetype::kWearout:
      rig.injector().inject_wearout(1, t0 + sim::milliseconds(300),
                                    sim::milliseconds(600), 0.7,
                                    sim::milliseconds(10));
      expected = fault::FaultClass::kComponentInternal;
      subject_c = 1;
      horizon = sim::seconds(5);
      break;
    case Archetype::kPermanent:
      rig.injector().inject_permanent_failure(2, t0 + sim::milliseconds(500));
      expected = fault::FaultClass::kComponentInternal;
      subject_c = 2;
      break;
    case Archetype::kConnector:
      rig.injector().inject_connector_fault(3, t0 + sim::milliseconds(300),
                                            sim::milliseconds(250),
                                            sim::milliseconds(10), 0.8);
      expected = fault::FaultClass::kComponentBorderline;
      subject_c = 3;
      horizon = sim::seconds(5);
      break;
    case Archetype::kEmi:
      rig.injector().inject_emi_burst(1.0, 1.1, t0 + sim::milliseconds(600),
                                      sim::milliseconds(12));
      expected = fault::FaultClass::kComponentExternal;
      subject_c = 1;
      horizon = sim::seconds(3);
      break;
    case Archetype::kHeisenbug:
      rig.injector().inject_heisenbug(rig.a(1), t0 + sim::milliseconds(300),
                                      0.08);
      expected = fault::FaultClass::kJobInherentSoftware;
      job_level = true;
      subject_j = rig.a(1);
      break;
    case Archetype::kConfig:
      rig.injector().inject_config_fault(2, t0 + sim::milliseconds(300), 0, 2);
      expected = fault::FaultClass::kJobBorderline;
      job_level = true;
      subject_j = *rig.injector().ledger().front().job;
      horizon = sim::seconds(3);
      break;
    case Archetype::kBrownout:
      rig.injector().inject_brownout(4, t0 + sim::milliseconds(400));
      expected = fault::FaultClass::kComponentInternal;
      subject_c = 4;
      horizon = sim::seconds(6);
      break;
  }

  rig.run(horizon);
  const auto d = job_level
                     ? rig.diag().assessor().diagnose_job(subject_j)
                     : rig.diag().assessor().diagnose_component(subject_c);
  EXPECT_EQ(d.cls, expected) << diag::rationale(d);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClassifierProperty,
    ::testing::Combine(
        ::testing::Values(Archetype::kWearout, Archetype::kPermanent,
                          Archetype::kConnector, Archetype::kEmi,
                          Archetype::kHeisenbug, Archetype::kConfig,
                          Archetype::kBrownout),
        ::testing::Values(201, 202, 203, 204)),
    [](const ::testing::TestParamInfo<ClassifierParam>& info) {
      return std::string(name(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace decos
