#include "scenario/fig10.hpp"

#include <array>
#include <cassert>
#include <cmath>

namespace decos::scenario {
namespace {

/// Value-range half width of every port spec: the largest sine amplitude
/// (10, the S triple) plus margin.
constexpr double kSpecBound = 15.0;
/// TMR vote agreement tolerance.
constexpr double kVoteEpsilon = 1.0;

platform::System::Params system_params(const Fig10Options& opts) {
  platform::System::Params p;
  p.cluster.node_count = opts.components;
  p.cluster.tdma.slot_length = opts.slot_length;
  p.cluster.drift_bound_ppm = opts.drift_bound_ppm;
  return p;
}

}  // namespace

Fig10System::Fig10System(Fig10Options opts)
    : opts_(opts), sim_(opts.seed), system_(sim_, system_params(opts)) {
  assert(opts_.components >= 5 && "Fig. 10 needs at least five components");
  if (opts_.provenance) sim_.enable_provenance(opts_.provenance_span_cap);
  auto& sys = system_;

  const auto das_s = sys.add_das("S", platform::Criticality::kSafetyCritical);
  const auto das_a = sys.add_das("A", platform::Criticality::kNonSafetyCritical);
  const auto das_b = sys.add_das("B", platform::Criticality::kNonSafetyCritical);
  const auto das_c = sys.add_das("C", platform::Criticality::kNonSafetyCritical);

  // The safety-critical DAS communicates time-triggered (state semantics,
  // structurally overflow-free); the non-SC DASs are event-triggered.
  const auto vn_s = sys.add_vnet("vn.S", 4, 8, vnet::VnetKind::kTimeTriggered);
  const auto vn_a = sys.add_vnet("vn.A", 4, 8);
  const auto vn_b = sys.add_vnet("vn.B", 4, 8);
  const auto vn_c = sys.add_vnet("vn.C", 4, 8);

  // Port ids are assigned in creation order; each publisher captures its
  // own id through a stable slot.
  static_assert(sizeof(platform::PortId) == 2);
  auto make_publisher = [&](platform::DasId das, const std::string& name,
                            platform::ComponentId host, double amplitude,
                            double period_sec) {
    auto port_slot = std::make_shared<platform::PortId>(0);
    platform::Job& job = sys.add_job(
        das, name, host, [port_slot](platform::JobContext& ctx) {
          const double v = ctx.sensor(0).read(ctx.now());
          ctx.send(*port_slot, v);
        });
    job.add_sensor(platform::Sensor::Params{
        .name = name + ".sensor",
        .signal = platform::sine_signal(amplitude, period_sec),
        .noise_stddev = 0.05,
        // Accelerated wearout for simulation horizons of seconds: a
        // drifting sensor gains ~3 units per simulated second.
        .drift_rate_per_hour = 3.0 * 3600.0,
    });
    return std::pair<platform::JobId, std::shared_ptr<platform::PortId>>{
        job.id(), port_slot};
  };

  // --- DAS S: TMR triple S1/S2/S3 on components 0/1/2 + voter on 3 ------
  std::vector<std::shared_ptr<platform::PortId>> s_ports;
  for (std::size_t r = 0; r < 3; ++r) {
    auto [jid, slot] = make_publisher(das_s, "S" + std::to_string(r + 1),
                                      static_cast<platform::ComponentId>(r),
                                      10.0, 2.0);
    s_jobs_.push_back(jid);
    s_ports.push_back(slot);
  }
  {
    auto voter_impl =
        std::make_shared<vnet::TmrVoter>(vnet::TmrVoter::Params{kVoteEpsilon});
    // Replica index by sending job: s_jobs_[r] was created in order.
    const std::array<platform::JobId, 3> replica_jobs{s_jobs_[0], s_jobs_[1],
                                                      s_jobs_[2]};
    platform::Job& voter = sys.add_job(
        das_s, "S.voter", 3,
        [this, voter_impl, replica_jobs](platform::JobContext& ctx) {
          std::array<std::optional<double>, 3> replicas{};
          for (const auto& m : ctx.inbox()) {
            for (std::size_t r = 0; r < replica_jobs.size(); ++r) {
              if (m.sender == replica_jobs[r]) replicas[r] = m.value;
            }
          }
          if (ctx.inbox().empty()) return;
          const auto result = voter_impl->vote(replicas);
          tmr_.monitor.observe(replicas, result);
          switch (result.status) {
            case vnet::TmrVoter::Status::kUnanimous:
              ++tmr_.votes;
              tmr_.voted = result.value;
              break;
            case vnet::TmrVoter::Status::kMajority:
              ++tmr_.votes;
              ++tmr_.disagreements;
              tmr_.voted = result.value;
              break;
            case vnet::TmrVoter::Status::kNoQuorum:
              ++tmr_.vote_failures;
              break;
            case vnet::TmrVoter::Status::kInsufficient:
              break;
          }
        });
    voter_job_ = voter.id();
  }
  for (std::size_t r = 0; r < 3; ++r) {
    *s_ports[r] = sys.add_port(s_jobs_[r], "S" + std::to_string(r + 1) + ".out",
                               vn_s, {voter_job_});
  }

  // --- DAS A: A1 on c0, A2 on c3, A3 on c1 (ring A1->A2->A3->A1) ---------
  struct Pub {
    platform::JobId job;
    std::shared_ptr<platform::PortId> port;
  };
  auto ring = [&](platform::DasId das, const char* base, platform::VnetId vn,
                  std::vector<platform::ComponentId> hosts,
                  std::vector<platform::JobId>& out_jobs, double amplitude) {
    std::vector<Pub> pubs;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      auto [jid, slot] =
          make_publisher(das, std::string(base) + std::to_string(i + 1),
                         hosts[i], amplitude, 1.0 + 0.3 * static_cast<double>(i));
      pubs.push_back(Pub{jid, slot});
      out_jobs.push_back(jid);
    }
    for (std::size_t i = 0; i < pubs.size(); ++i) {
      const platform::JobId next = pubs[(i + 1) % pubs.size()].job;
      *pubs[i].port = sys.add_port(
          pubs[i].job, std::string(base) + std::to_string(i + 1) + ".out", vn,
          {next});
    }
  };
  ring(das_a, "A", vn_a, {0, 3, 1}, a_jobs_, 8.0);
  ring(das_b, "B", vn_b, {2, 3, 4}, b_jobs_, 6.0);
  ring(das_c, "C", vn_c, {1, 1, 4}, c_jobs_, 9.0);

  // --- LIF specs for every application port -------------------------------
  diag::SpecTable specs;
  for (const auto& pc : sys.plan().ports()) {
    if (pc.vnet == platform::kDiagnosticVnet) continue;
    specs.set(pc.id, diag::PortSpec{
                         .min_value = -kSpecBound,
                         .max_value = kSpecBound,
                         .period_rounds = 1,
                         .gap_tolerance_periods = 3,
                     });
  }

  diag::DiagnosticService::Params dp;
  dp.assessor_host = opts_.assessor_host;
  dp.replica_hosts = opts_.assessor_replicas;
  dp.assessor = opts_.assessor;
  dp.hierarchy = opts_.hierarchy;
  diag_ = std::make_unique<diag::DiagnosticService>(
      sys, std::move(specs), fault::SpatialLayout::linear(opts_.components), dp);

  // Redundancy attrition is maintenance-relevant before it is
  // safety-relevant: losing S_i leaves the triple voting 2-of-2 with no
  // spare. Surface the monitor's transitions as an external ONA on the
  // replica's host (S1..S3 live on components 0..2) and as a counter.
  tmr_.monitor.on_transition = [this](std::size_t replica, bool lost) {
    sim_.metrics()
        .counter("vnet.tmr.redundancy_transitions",
                 lost ? "edge=lost" : "edge=recovered")
        .inc();
    const auto host = static_cast<platform::ComponentId>(replica);
    if (lost) {
      diag_->assert_external_ona(host, diag::Ona::kTmrRedundancyLost);
    } else {
      diag_->retract_external_ona(host, diag::Ona::kTmrRedundancyLost);
    }
  };

  injector_ = std::make_unique<fault::FaultInjector>(
      sim_, sys, fault::SpatialLayout::linear(opts_.components));

  sys.finalize();
  sys.start();
}

void Fig10System::run(sim::Duration d) {
  sim_.run_until(sim_.now() + d);
}

void Fig10System::run_sampled(sim::Duration d,
                              sim::FunctionRef<void(tta::RoundId)> sample) {
  const sim::Duration round = system_.cluster().schedule().round_length();
  const diag::Assessor& assessor = diag_->assessor();
  tta::RoundId last = 0;
  for (sim::Duration elapsed{}; elapsed < d; elapsed += round) {
    run(round);
    const tta::RoundId r = assessor.current_round();
    if (r < last + diag::Assessor::kSamplePeriod) continue;
    last = r;
    sample(r);
  }
}

std::vector<platform::JobId> Fig10System::app_jobs() const {
  std::vector<platform::JobId> out;
  out.insert(out.end(), s_jobs_.begin(), s_jobs_.end());
  out.push_back(voter_job_);
  out.insert(out.end(), a_jobs_.begin(), a_jobs_.end());
  out.insert(out.end(), b_jobs_.begin(), b_jobs_.end());
  out.insert(out.end(), c_jobs_.begin(), c_jobs_.end());
  return out;
}

}  // namespace decos::scenario
