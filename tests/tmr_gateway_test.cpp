// Tests for the redundancy-management service (TMR voter + latent-fault
// monitor) and the hidden gateway: unit level plus end-to-end on the
// Fig. 10 system (replica loss detected as degraded redundancy while the
// voted service stays correct) and a hand-built gateway bridging two DASs.
// Also holds the faults-off Fig. 10 and hierarchy rigs to zero allocations
// per round once warm.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#include "platform/gateway.hpp"
#include "scenario/fig10.hpp"
#include "scenario/hierarchy.hpp"
#include "vnet/tmr.hpp"

// Counts every global allocation, so a test can assert that a call makes
// none.
namespace {
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

namespace decos::vnet {
namespace {

using Opt = std::optional<double>;

// --- voter ---------------------------------------------------------------------

TEST(TmrVoter, UnanimousTriple) {
  TmrVoter v{TmrVoter::Params{.epsilon = 0.5}};
  const std::array<Opt, 3> r{10.0, 10.1, 9.9};
  const auto res = v.vote(r);
  EXPECT_EQ(res.status, TmrVoter::Status::kUnanimous);
  EXPECT_NEAR(res.value, 10.0, 0.2);
  EXPECT_FALSE(res.outvoted.has_value());
}

TEST(TmrVoter, MajorityOutvotesDeviant) {
  TmrVoter v{TmrVoter::Params{.epsilon = 0.5}};
  const std::array<Opt, 3> r{10.0, 55.0, 10.2};
  const auto res = v.vote(r);
  EXPECT_EQ(res.status, TmrVoter::Status::kMajority);
  EXPECT_NEAR(res.value, 10.1, 0.2);
  ASSERT_TRUE(res.outvoted.has_value());
  EXPECT_EQ(*res.outvoted, 1u);
}

TEST(TmrVoter, TwoOfThreeWithMissingReplica) {
  TmrVoter v{TmrVoter::Params{.epsilon = 0.5}};
  const std::array<Opt, 3> r{10.0, std::nullopt, 10.2};
  const auto res = v.vote(r);
  EXPECT_EQ(res.status, TmrVoter::Status::kUnanimous);
  EXPECT_NEAR(res.value, 10.1, 0.2);
}

TEST(TmrVoter, NoQuorumWhenAllDisagree) {
  TmrVoter v{TmrVoter::Params{.epsilon = 0.5}};
  const std::array<Opt, 3> r{1.0, 20.0, 40.0};
  EXPECT_EQ(v.vote(r).status, TmrVoter::Status::kNoQuorum);
}

TEST(TmrVoter, InsufficientWithOneValue) {
  TmrVoter v;
  const std::array<Opt, 3> r{std::nullopt, 5.0, std::nullopt};
  EXPECT_EQ(v.vote(r).status, TmrVoter::Status::kInsufficient);
}

TEST(TmrVoter, FirstAgreeingPairInIndexOrderWins) {
  // Pairs are tried (0,1), (0,2), (0,3), ... over the present replicas:
  // (0,3) agrees before (1,2) is reached, and the last disagreeing
  // replica is the one reported outvoted.
  TmrVoter v{TmrVoter::Params{.epsilon = 0.5}};
  const std::array<Opt, 5> r{10.0, 20.0, 20.2, 10.3, std::nullopt};
  const auto res = v.vote(r);
  EXPECT_EQ(res.status, TmrVoter::Status::kMajority);
  EXPECT_DOUBLE_EQ(res.value, 10.15);
  ASSERT_TRUE(res.outvoted.has_value());
  EXPECT_EQ(*res.outvoted, 2u);
}

TEST(TmrVoter, MissingReplicasTakeNoPartWhereverTheyStand) {
  // An empty optional whose storage holds the bits of 10.1 (both common
  // standard libraries keep the value at offset 0, the flag after it): a
  // vote that read it would pair the ghost with the present 10.0.
  Opt ghost;
  const double bits = 10.1;
  std::memcpy(static_cast<void*>(&ghost), &bits, sizeof bits);
  ASSERT_FALSE(ghost.has_value());
  TmrVoter v{TmrVoter::Params{.epsilon = 0.5}};
  const std::array<std::array<Opt, 4>, 3> cases{{
      {ghost, 20.0, 10.0, 20.1},
      {10.0, ghost, 20.0, 20.1},
      {20.0, 10.0, 20.1, ghost},
  }};
  const std::array<std::size_t, 3> outvoted{2, 0, 1};
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto res = v.vote(cases[i]);
    EXPECT_EQ(res.status, TmrVoter::Status::kMajority) << "case " << i;
    EXPECT_DOUBLE_EQ(res.value, 20.05) << "case " << i;
    ASSERT_TRUE(res.outvoted.has_value()) << "case " << i;
    EXPECT_EQ(*res.outvoted, outvoted[i]) << "case " << i;
  }
}

TEST(TmrVoter, VoteAllocatesNothing) {
  TmrVoter v{TmrVoter::Params{.epsilon = 0.5}};
  const std::array<Opt, 3> unanimous{10.0, 10.1, 9.9};
  const std::array<Opt, 3> majority{10.0, 55.0, 10.2};
  const std::array<Opt, 3> missing{10.0, std::nullopt, 10.2};
  const std::array<Opt, 3> no_quorum{1.0, 20.0, 40.0};
  const std::array<Opt, 3> insufficient{std::nullopt, 5.0, std::nullopt};
  const std::uint64_t before = g_allocs.load();
  int majorities = 0;
  for (int i = 0; i < 100; ++i) {
    for (const auto* r : {&unanimous, &majority, &missing, &no_quorum,
                          &insufficient}) {
      if (v.vote(*r).status == TmrVoter::Status::kMajority) ++majorities;
    }
  }
  EXPECT_EQ(g_allocs.load() - before, 0u);
  EXPECT_EQ(majorities, 100);
}

// --- redundancy monitor -------------------------------------------------------------

TEST(RedundancyMonitor, DetectsPersistentlyMissingReplica) {
  TmrVoter v;
  RedundancyMonitor mon{RedundancyMonitor::Params{.replica_count = 3,
                                                  .degraded_after_rounds = 10}};
  const std::array<Opt, 3> degraded{10.0, std::nullopt, 10.1};
  for (int i = 0; i < 9; ++i) mon.observe(degraded, v.vote(degraded));
  EXPECT_FALSE(mon.degraded());
  mon.observe(degraded, v.vote(degraded));
  EXPECT_TRUE(mon.degraded());
  EXPECT_EQ(mon.lost_replicas(), (std::vector<std::size_t>{1}));
  EXPECT_EQ(mon.intact_replicas(), 2u);
}

TEST(RedundancyMonitor, DetectsPersistentlyOutvotedReplica) {
  TmrVoter v{TmrVoter::Params{.epsilon = 0.5}};
  RedundancyMonitor mon{RedundancyMonitor::Params{.replica_count = 3,
                                                  .degraded_after_rounds = 5}};
  const std::array<Opt, 3> deviant{10.0, 99.0, 10.1};
  for (int i = 0; i < 6; ++i) mon.observe(deviant, v.vote(deviant));
  EXPECT_TRUE(mon.degraded());
  EXPECT_EQ(mon.lost_replicas(), (std::vector<std::size_t>{1}));
}

TEST(RedundancyMonitor, RecoveryRestoresRedundancy) {
  TmrVoter v;
  RedundancyMonitor mon{RedundancyMonitor::Params{.replica_count = 3,
                                                  .degraded_after_rounds = 5}};
  const std::array<Opt, 3> degraded{10.0, std::nullopt, 10.1};
  const std::array<Opt, 3> healthy{10.0, 10.05, 10.1};
  for (int i = 0; i < 10; ++i) mon.observe(degraded, v.vote(degraded));
  EXPECT_TRUE(mon.degraded());
  mon.observe(healthy, v.vote(healthy));
  EXPECT_FALSE(mon.degraded());
  EXPECT_EQ(mon.intact_replicas(), 3u);
}

// --- end-to-end: latent redundancy loss ------------------------------------------

TEST(RedundancyLive, ReplicaHostFailureDegradesRedundancyButNotService) {
  scenario::Fig10System rig({.seed = 71});
  rig.run(sim::seconds(1));
  EXPECT_FALSE(rig.tmr().monitor.degraded());
  // Kill S1's host (component 0): the TMR triple silently degrades.
  rig.injector().inject_permanent_failure(0, sim::SimTime{0} + sim::milliseconds(1200));
  const auto votes_before = rig.tmr().votes;
  rig.run(sim::seconds(2));
  // Service survived...
  EXPECT_GT(rig.tmr().votes, votes_before + 100);
  EXPECT_EQ(rig.tmr().vote_failures, 0u);
  // ...but the monitor reports the latent loss of replica 0,
  EXPECT_TRUE(rig.tmr().monitor.degraded());
  EXPECT_EQ(rig.tmr().monitor.lost_replicas(), (std::vector<std::size_t>{0}));
  // ...and the diagnosis independently names the dead component.
  EXPECT_EQ(rig.diag().assessor().diagnose_component(0).cls,
            fault::FaultClass::kComponentInternal);
}

// --- steady-state allocations ----------------------------------------------------

/// Allocations made by `run(round * rounds)` after `run(round * warmup)`.
template <typename Rig>
std::uint64_t allocs_after_warmup(Rig& rig, std::int64_t warmup,
                                  std::int64_t rounds) {
  const sim::Duration round = rig.system().cluster().schedule().round_length();
  rig.run(round * warmup);
  const std::uint64_t before = g_allocs.load();
  rig.run(round * rounds);
  return g_allocs.load() - before;
}

TEST(SteadyState, Fig10RigAllocatesNothingPerRound) {
  // Rounds 400-1200: diagnosis, TMR voting and every DAS, faults off.
  scenario::Fig10System rig;
  EXPECT_EQ(allocs_after_warmup(rig, 400, 800), 0u);
}

TEST(SteadyState, HierarchyRigAllocatesNothingPerRound) {
  // Rounds 600-1600 of an 8-position cube with one application ring: past
  // the first staleness export and the first dedupe prune.
  scenario::HierarchyOptions opts;
  opts.components = 8;
  scenario::HierarchySystem rig(opts);
  EXPECT_EQ(allocs_after_warmup(rig, 600, 1000), 0u);
}

// --- gateway ----------------------------------------------------------------------

TEST(Gateway, BridgesTwoVnetsWithTransform) {
  sim::Simulator simulator(72);
  platform::System::Params sp;
  sp.cluster.node_count = 4;
  platform::System sys(simulator, sp);
  const auto das_a = sys.add_das("A", platform::Criticality::kNonSafetyCritical);
  const auto das_b = sys.add_das("B", platform::Criticality::kNonSafetyCritical);
  const auto vn_a = sys.add_vnet("vn.A", 4, 8);
  const auto vn_b = sys.add_vnet("vn.B", 4, 8);

  // Producer in DAS A publishes Fahrenheit.
  auto p_port = std::make_shared<platform::PortId>(0);
  platform::Job& producer = sys.add_job(
      das_a, "prod", 0, [p_port](platform::JobContext& ctx) {
        ctx.send(*p_port, 212.0);
      });

  // Consumer in DAS B expects Celsius.
  std::vector<double> received;
  platform::Job& consumer = sys.add_job(
      das_b, "cons", 2, [&received](platform::JobContext& ctx) {
        for (const auto& m : ctx.inbox()) received.push_back(m.value);
      });

  // Hidden gateway on component 1: subscribes to the producer's port on
  // vn.A, republishes on vn.B with a unit conversion.
  auto g_port = std::make_shared<platform::PortId>(0);
  platform::GatewayOptions gw_opts;
  gw_opts.transform = [](double f) { return (f - 32.0) * 5.0 / 9.0; };
  platform::Job& gateway = sys.add_job(
      das_b, "gateway", 1, platform::make_gateway(g_port, std::move(gw_opts)));

  *p_port = sys.add_port(producer.id(), "prod.out", vn_a, {gateway.id()});
  *g_port = sys.add_port(gateway.id(), "gw.out", vn_b, {consumer.id()});

  sys.finalize();
  sys.start();
  simulator.run_until(sim::SimTime{0} + sim::milliseconds(60));

  ASSERT_GT(received.size(), 10u);
  for (double v : received) EXPECT_NEAR(v, 100.0, 1e-9);
}

TEST(Gateway, DecimationForwardsEveryNth) {
  sim::Simulator simulator(73);
  platform::System::Params sp;
  sp.cluster.node_count = 4;
  platform::System sys(simulator, sp);
  const auto das = sys.add_das("A", platform::Criticality::kNonSafetyCritical);
  const auto vn_a = sys.add_vnet("vn.A", 4, 8);
  const auto vn_b = sys.add_vnet("vn.B", 4, 8);

  auto p_port = std::make_shared<platform::PortId>(0);
  platform::Job& producer = sys.add_job(
      das, "prod", 0, [p_port](platform::JobContext& ctx) {
        ctx.send(*p_port, static_cast<double>(ctx.round()));
      });
  int forwarded = 0;
  platform::Job& consumer = sys.add_job(
      das, "cons", 2, [&forwarded](platform::JobContext& ctx) {
        forwarded += static_cast<int>(ctx.inbox().size());
      });
  auto g_port = std::make_shared<platform::PortId>(0);
  platform::GatewayOptions gw_opts;
  gw_opts.decimation = 4;
  platform::Job& gateway = sys.add_job(
      das, "gateway", 1, platform::make_gateway(g_port, std::move(gw_opts)));
  *p_port = sys.add_port(producer.id(), "prod.out", vn_a, {gateway.id()});
  *g_port = sys.add_port(gateway.id(), "gw.out", vn_b, {consumer.id()});

  sys.finalize();
  sys.start();
  simulator.run_until(sim::SimTime{0} + sim::milliseconds(100));
  const auto rounds = sys.cluster().node(0).current_round();
  EXPECT_NEAR(static_cast<double>(forwarded),
              static_cast<double>(rounds) / 4.0,
              static_cast<double>(rounds) / 10.0);
}

}  // namespace
}  // namespace decos::vnet
