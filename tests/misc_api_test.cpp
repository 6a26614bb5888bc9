// Coverage of the smaller public-API surfaces: duration formatting edge
// cases, cluster precision with no synchronised nodes, job phase offsets,
// multi-receiver local routing, diagnostic-job identification, report row
// integrity, and Fig10 assessor replication through the scenario options.
#include <gtest/gtest.h>

#include "scenario/fig10.hpp"
#include "sim/simulator.hpp"
#include "tta/cluster.hpp"

namespace decos {
namespace {

TEST(Duration, NegativeValuesFormat) {
  EXPECT_FALSE(sim::to_string(sim::Duration{-1'500'000}).empty());
  EXPECT_EQ(sim::milliseconds(-2).ns(), -2'000'000);
}

TEST(Duration, CompoundAssignment) {
  sim::Duration d = sim::milliseconds(1);
  d += sim::microseconds(500);
  EXPECT_EQ(d.ns(), 1'500'000);
  d -= sim::milliseconds(1);
  EXPECT_EQ(d.ns(), 500'000);
  EXPECT_EQ((sim::milliseconds(3) / 3).ns(), sim::milliseconds(1).ns());
}

TEST(Cluster, PrecisionIsZeroWithNoSyncedNodes) {
  sim::Simulator simulator(1);
  tta::Cluster::Params p;
  p.node_count = 3;
  tta::Cluster cluster(simulator, p);
  for (tta::NodeId n = 0; n < 3; ++n) {
    cluster.node(n).faults().fail_silent = true;
  }
  // Nodes never started; precision over zero in-sync nodes must be 0, not
  // a crash.
  EXPECT_EQ(cluster.precision().ns(), 0);
}

TEST(Job, PhaseOffsetsStaggerDispatches) {
  sim::Simulator simulator(2);
  platform::System::Params sp;
  sp.cluster.node_count = 4;
  platform::System sys(simulator, sp);
  const auto das = sys.add_das("app", platform::Criticality::kNonSafetyCritical);
  std::vector<tta::RoundId> a_rounds, b_rounds;
  sys.add_job(das, "a", 0, [&](platform::JobContext& ctx) {
    a_rounds.push_back(ctx.round());
  }, 4, 0);
  sys.add_job(das, "b", 0, [&](platform::JobContext& ctx) {
    b_rounds.push_back(ctx.round());
  }, 4, 2);
  sys.finalize();
  sys.start();
  simulator.run_until(sim::SimTime{0} + sim::milliseconds(100));
  ASSERT_GT(a_rounds.size(), 3u);
  ASSERT_GT(b_rounds.size(), 3u);
  for (auto r : a_rounds) EXPECT_EQ(r % 4, 0u);
  for (auto r : b_rounds) EXPECT_EQ(r % 4, 2u);
}

TEST(Component, RoutesToMultipleLocalReceivers) {
  sim::Simulator simulator(3);
  platform::System::Params sp;
  sp.cluster.node_count = 4;
  platform::System sys(simulator, sp);
  const auto das = sys.add_das("app", platform::Criticality::kNonSafetyCritical);
  const auto vn = sys.add_vnet("app", 4, 8);
  int r1 = 0, r2 = 0;
  auto port = std::make_shared<platform::PortId>(0);
  platform::Job& src = sys.add_job(das, "src", 1, [port](platform::JobContext& ctx) {
    ctx.send(*port, 2.0);
  });
  platform::Job& a = sys.add_job(das, "a", 1, [&](platform::JobContext& ctx) {
    r1 += static_cast<int>(ctx.inbox().size());
  });
  platform::Job& b = sys.add_job(das, "b", 1, [&](platform::JobContext& ctx) {
    r2 += static_cast<int>(ctx.inbox().size());
  });
  *port = sys.add_port(src.id(), "out", vn, {a.id(), b.id()});
  sys.finalize();
  sys.start();
  simulator.run_until(sim::SimTime{0} + sim::milliseconds(40));
  EXPECT_GT(r1, 5);
  EXPECT_EQ(r1, r2);  // both co-hosted receivers get every message
}

TEST(DiagnosticService, IdentifiesItsOwnJobs) {
  scenario::Fig10System rig({.seed = 4});
  auto& service = rig.diag();
  // Every application job is not diagnostic; the assessor job is.
  for (platform::JobId j : rig.app_jobs()) {
    EXPECT_FALSE(service.is_diagnostic_job(j));
  }
  EXPECT_TRUE(service.is_diagnostic_job(service.assessor_job()));
}

TEST(DiagnosticService, ReportRowsNameEveryFru) {
  scenario::Fig10System rig({.seed = 5});
  rig.run(sim::seconds(1));
  const auto report = rig.diag().report();
  ASSERT_EQ(report.size(), 5u + rig.app_jobs().size());
  for (std::size_t c = 0; c < 5; ++c) {
    EXPECT_EQ(report[c].label(), "component " + std::to_string(c));
    EXPECT_GE(report[c].trust, 0.0);
    EXPECT_LE(report[c].trust, 1.0);
  }
  for (std::size_t i = 5; i < report.size(); ++i) {
    ASSERT_TRUE(report[i].job.has_value());
    const platform::JobId j = *report[i].job;
    const platform::Job& job = rig.system().job(j);
    EXPECT_EQ(report[i].component, job.host());
    EXPECT_EQ(report[i].label(), "job " + job.name() + " (j" +
                                     std::to_string(j) + ") on component " +
                                     std::to_string(job.host()));
  }
}

TEST(Fig10Options, ReplicaHostsWireThrough) {
  scenario::Fig10Options opts;
  opts.seed = 6;
  opts.assessor_replicas = {4};
  scenario::Fig10System rig(opts);
  EXPECT_EQ(rig.diag().assessor_count(), 2u);
  rig.injector().inject_permanent_failure(2, sim::SimTime{0} + sim::milliseconds(400));
  rig.run(sim::seconds(3));
  EXPECT_EQ(rig.diag().assessor(0).diagnose_component(2).cls,
            fault::FaultClass::kComponentInternal);
  EXPECT_EQ(rig.diag().assessor(1).diagnose_component(2).cls,
            fault::FaultClass::kComponentInternal);
}

TEST(Simulator, ForkRngMatchesMasterSeedDerivation) {
  sim::Simulator a(42), b(42);
  auto ra = a.fork_rng("x");
  auto rb = b.fork_rng("x");
  EXPECT_EQ(ra.next_u64(), rb.next_u64());
  auto rc = a.fork_rng("y");
  EXPECT_NE(ra.next_u64(), rc.next_u64());
  EXPECT_EQ(a.seed(), 42u);
}

}  // namespace
}  // namespace decos
