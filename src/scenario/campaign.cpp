#include "scenario/campaign.hpp"

namespace decos::scenario {
namespace {

sim::SimTime ms(std::int64_t v) { return sim::SimTime{0} + sim::milliseconds(v); }

Archetype component_archetype(std::string name, fault::FaultClass truth,
                              sim::Duration horizon,
                              std::function<void(Fig10System&)> inject,
                              platform::ComponentId subject) {
  return Archetype{
      std::move(name), truth, horizon, std::move(inject),
      [subject](Fig10System& rig) {
        return rig.diag().assessor().diagnose_component(subject);
      }};
}

}  // namespace

std::vector<Archetype> standard_archetypes() {
  std::vector<Archetype> out;

  out.push_back(component_archetype(
      "emi-bursts", fault::FaultClass::kComponentExternal, sim::seconds(4),
      [](Fig10System& rig) {
        rig.injector().inject_emi_burst(1.0, 1.1, ms(600), sim::milliseconds(12));
        rig.injector().inject_emi_burst(1.0, 1.1, ms(1500), sim::milliseconds(12));
        rig.injector().inject_emi_burst(1.0, 1.1, ms(2700), sim::milliseconds(12));
      },
      1));
  out.push_back(component_archetype(
      "seu", fault::FaultClass::kComponentExternal, sim::seconds(3),
      [](Fig10System& rig) { rig.injector().inject_seu(3, ms(500)); }, 3));
  out.push_back(component_archetype(
      "connector", fault::FaultClass::kComponentBorderline, sim::seconds(5),
      [](Fig10System& rig) {
        rig.injector().inject_connector_fault(3, ms(300), sim::milliseconds(250),
                                              sim::milliseconds(10), 0.8);
      },
      3));
  out.push_back(component_archetype(
      "wearout", fault::FaultClass::kComponentInternal, sim::seconds(5),
      [](Fig10System& rig) {
        rig.injector().inject_wearout(1, ms(300), sim::milliseconds(600), 0.7,
                                      sim::milliseconds(10));
      },
      1));
  out.push_back(component_archetype(
      "permanent", fault::FaultClass::kComponentInternal, sim::seconds(4),
      [](Fig10System& rig) {
        rig.injector().inject_permanent_failure(2, ms(500));
      },
      2));
  out.push_back(component_archetype(
      "quartz", fault::FaultClass::kComponentInternal, sim::seconds(5),
      [](Fig10System& rig) {
        rig.injector().inject_quartz_fault(4, ms(500), 20'000.0);
      },
      4));
  out.push_back(component_archetype(
      "brownout", fault::FaultClass::kComponentInternal, sim::seconds(6),
      [](Fig10System& rig) { rig.injector().inject_brownout(4, ms(400)); },
      4));
  out.push_back(component_archetype(
      "babbling", fault::FaultClass::kComponentInternal, sim::seconds(5),
      [](Fig10System& rig) {
        rig.injector().inject_babbling(1, ms(500), sim::seconds(3),
                                       sim::milliseconds(2));
      },
      1));

  out.push_back(Archetype{
      "misconfiguration", fault::FaultClass::kJobBorderline, sim::seconds(3),
      [](Fig10System& rig) {
        rig.injector().inject_config_fault(2, ms(300), 0, 2);
      },
      [](Fig10System& rig) {
        return rig.diag().assessor().diagnose_job(
            *rig.injector().ledger().front().job);
      }});
  out.push_back(Archetype{
      "heisenbug", fault::FaultClass::kJobInherentSoftware, sim::seconds(4),
      [](Fig10System& rig) {
        rig.injector().inject_heisenbug(rig.a(1), ms(300), 0.08);
      },
      [](Fig10System& rig) {
        return rig.diag().assessor().diagnose_job(rig.a(1));
      }});
  out.push_back(Archetype{
      "bohrbug", fault::FaultClass::kJobInherentSoftware, sim::seconds(4),
      [](Fig10System& rig) {
        rig.injector().inject_bohrbug(rig.b(0), ms(300), 40, 3);
      },
      [](Fig10System& rig) {
        return rig.diag().assessor().diagnose_job(rig.b(0));
      }});
  out.push_back(Archetype{
      "sw-crash", fault::FaultClass::kJobInherentSoftware, sim::seconds(3),
      [](Fig10System& rig) {
        rig.injector().inject_software_crash(rig.b(2), ms(500));
      },
      [](Fig10System& rig) {
        return rig.diag().assessor().diagnose_job(rig.b(2));
      }});
  out.push_back(Archetype{
      "sensor-drift", fault::FaultClass::kJobInherentTransducer,
      sim::seconds(10),
      [](Fig10System& rig) {
        rig.injector().inject_sensor_fault(rig.c(0), 0,
                                           platform::SensorFaultMode::kDrift,
                                           ms(300));
      },
      [](Fig10System& rig) {
        return rig.diag().assessor().diagnose_job(rig.c(0));
      }});
  return out;
}

void CampaignResult::open_rows(const std::vector<Archetype>& archetypes) {
  per_archetype.reserve(archetypes.size());
  for (const Archetype& arch : archetypes) {
    per_archetype.push_back({arch.name, arch.truth, 0, 0});
  }
}

bool CampaignResult::score(std::size_t row, fault::FaultClass predicted) {
  PerArchetype& r = per_archetype[row];
  confusion.add(r.truth, predicted);
  ++r.runs;
  const bool hit = predicted == r.truth;
  if (hit) ++r.correct;
  return hit;
}

CampaignResult run_campaign(const std::vector<Archetype>& archetypes,
                            const std::vector<std::uint64_t>& seeds,
                            Fig10Options base_options, unsigned jobs) {
  CampaignResult result;
  result.open_rows(archetypes);
  run_grid(
      archetypes, seeds, jobs,
      [&base_options](const Archetype& arch, std::uint64_t seed) {
        Fig10Options opts = base_options;
        opts.seed = seed;
        Fig10System rig(opts);
        arch.inject(rig);
        rig.run(arch.horizon);
        return arch.diagnose(rig).cls;
      },
      [&result](std::size_t row, fault::FaultClass predicted) {
        result.score(row, predicted);
      });
  return result;
}

}  // namespace decos::scenario
