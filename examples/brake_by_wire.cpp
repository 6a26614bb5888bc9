// Automotive scenario: a brake-by-wire vehicle built by hand on the public
// API (no scenario facade) — four wheel nodes plus a central node, a
// safety-critical brake DAS with TMR pedal-pressure computation, a non-SC
// body DAS (window lifter, lights) sharing the same components, and the
// diagnostic DAS on top.
//
// Fault story: the front-left wheel node's harness connector corrodes
// (borderline fault — intermittent receive errors on one node), and later
// a body job ships with a Heisenbug. The diagnosis must send the
// technician to the connector — not swap the wheel node — and flag the
// body job for a software update. Braking must stay alive throughout
// (TMR masks everything).
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "diag/service.hpp"
#include "fault/injector.hpp"
#include "platform/system.hpp"
#include "sim/simulator.hpp"

using namespace decos;

int main() {
  std::printf("brake-by-wire example\n");
  std::printf("=====================\n\n");

  sim::Simulator simulator(2026);

  platform::System::Params sp;
  sp.cluster.node_count = 5;  // wheel nodes FL,FR,RL,RR + central
  sp.cluster.tdma.slot_length = sim::microseconds(500);
  platform::System sys(simulator, sp);

  const auto das_brake =
      sys.add_das("brake", platform::Criticality::kSafetyCritical);
  const auto das_body =
      sys.add_das("body", platform::Criticality::kNonSafetyCritical);
  const auto vn_brake = sys.add_vnet("vn.brake", 6, 8);
  const auto vn_body = sys.add_vnet("vn.body", 4, 8);

  // --- brake DAS ---------------------------------------------------------
  // One actuator job per wheel node: 2-of-3 votes the replicated pedal
  // value and "actuates".
  std::uint64_t brake_commands = 0;
  std::vector<platform::JobId> actuators;
  for (platform::ComponentId w = 0; w < 4; ++w) {
    platform::Job& j = sys.add_job(
        das_brake, "brake.w" + std::to_string(w), w,
        [&brake_commands](platform::JobContext& ctx) {
          std::vector<double> vals;
          for (const auto& m : ctx.inbox()) vals.push_back(m.value);
          for (std::size_t i = 0; i < vals.size(); ++i) {
            for (std::size_t k = i + 1; k < vals.size(); ++k) {
              if (std::abs(vals[i] - vals[k]) < 2.0) {
                ++brake_commands;  // actuate with the agreed pressure
                return;
              }
            }
          }
        });
    actuators.push_back(j.id());
  }

  // TMR pedal-pressure replicas on components 0, 1, 4 (three independent
  // hardware FCRs, as the fault hypothesis requires).
  auto pedal_signal = platform::sine_signal(40.0, 5.0, 50.0);  // 10..90 bar
  const platform::ComponentId tmr_hosts[3] = {0, 1, 4};
  for (int r = 0; r < 3; ++r) {
    auto port = std::make_shared<platform::PortId>(0);
    platform::Job& j = sys.add_job(
        das_brake, "pedal.r" + std::to_string(r), tmr_hosts[r],
        [port](platform::JobContext& ctx) {
          ctx.send(*port, ctx.sensor(0).read(ctx.now()));
        });
    j.add_sensor(
        {.name = "pedal", .signal = pedal_signal, .noise_stddev = 0.2});
    *port = sys.add_port(j.id(), "pedal.r" + std::to_string(r) + ".out",
                         vn_brake, actuators);
  }

  // --- body DAS: window lifter + light controller --------------------------
  auto wl_port = std::make_shared<platform::PortId>(0);
  platform::Job& window_lifter = sys.add_job(
      das_body, "body.window", 4, [wl_port](platform::JobContext& ctx) {
        ctx.send(*wl_port, ctx.sensor(0).read(ctx.now()));
      });
  window_lifter.add_sensor({.name = "position",
                            .signal = platform::sine_signal(30.0, 8.0, 50.0),
                            .noise_stddev = 0.1});
  platform::Job& light_ctrl =
      sys.add_job(das_body, "body.light", 2, [](platform::JobContext&) {});
  *wl_port = sys.add_port(window_lifter.id(), "body.window.out", vn_body,
                          {light_ctrl.id()});

  // --- LIF specs + diagnostic DAS + injector ------------------------------
  diag::SpecTable specs;
  for (const auto& pc : sys.plan().ports()) {
    if (pc.vnet == platform::kDiagnosticVnet) continue;
    specs.set(pc.id, diag::PortSpec{.min_value = 0.0,
                                    .max_value = 100.0,
                                    .period_rounds = 1,
                                    .gap_tolerance_periods = 3});
  }
  diag::DiagnosticService::Params dp;
  dp.assessor_host = 4;
  diag::DiagnosticService diag_service(sys, std::move(specs),
                                       fault::SpatialLayout::linear(5), dp);
  fault::FaultInjector injector(simulator, sys, fault::SpatialLayout::linear(5));

  sys.finalize();
  sys.start();

  // --- fault story -----------------------------------------------------------
  const sim::SimTime t0 = sim::SimTime::zero();
  injector.inject_connector_fault(/*FL wheel node=*/0,
                                  t0 + sim::milliseconds(500),
                                  sim::milliseconds(300),
                                  sim::milliseconds(10), 0.8);
  injector.inject_heisenbug(window_lifter.id(), t0 + sim::seconds(2), 0.06,
                            500.0);

  simulator.run_until(t0 + sim::seconds(6));

  // --- report -------------------------------------------------------------------
  std::printf("brake commands actuated: %llu (braking stayed alive "
              "throughout)\n\n",
              static_cast<unsigned long long>(brake_commands));

  auto& assessor = diag_service.assessor();
  const auto d_wheel = assessor.diagnose_component(0);
  std::printf("front-left wheel node : %-22s -> %s\n",
              fault::to_string(d_wheel.cls),
              fault::to_string(d_wheel.action()));
  std::printf("                        %s\n", diag::rationale(d_wheel).c_str());
  const auto d_body = assessor.diagnose_job(window_lifter.id());
  std::printf("body.window job       : %-22s -> %s\n",
              fault::to_string(d_body.cls), fault::to_string(d_body.action()));
  std::printf("                        %s\n", diag::rationale(d_body).c_str());

  std::printf("\ntakeaway: the technician inspects the FL connector instead "
              "of swapping the wheel node (NFF avoided), and the window-"
              "lifter software goes back to the OEM for a fix.\n");
  return 0;
}
