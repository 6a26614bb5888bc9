#include "fault/injector.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <memory>

namespace decos::fault {

SpatialLayout SpatialLayout::linear(std::uint32_t n, double spacing) {
  SpatialLayout l;
  l.position.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    l.position.push_back(static_cast<double>(i) * spacing);
  }
  return l;
}

std::vector<platform::ComponentId> SpatialLayout::within(double center,
                                                         double radius) const {
  std::vector<platform::ComponentId> out;
  for (std::size_t i = 0; i < position.size(); ++i) {
    if (std::abs(position[i] - center) <= radius) {
      out.push_back(static_cast<platform::ComponentId>(i));
    }
  }
  return out;
}

FaultInjector::FaultInjector(sim::Simulator& sim, platform::System& system,
                             SpatialLayout layout)
    : sim_(sim), system_(system), layout_(std::move(layout)) {
  assert(layout_.position.size() >= system_.component_count());
}

FaultId FaultInjector::record(InjectedFault f) {
  f.id = ledger_.size();
  auto& prov = sim_.provenance();
  if (prov.enabled()) {
    char ent[24];
    if (f.job.has_value()) {
      std::snprintf(ent, sizeof ent, "job.%u", static_cast<unsigned>(*f.job));
    } else {
      std::snprintf(ent, sizeof ent, "component.%u", f.component);
    }
    f.provenance =
        prov.begin_journey(ent, to_string(f.cls), f.description, f.start.ns());
    // FRU -> journey wiring lets every later stage (agents, assessor,
    // executor) attribute its observations without wire-format changes.
    prov.map_component(f.component, f.provenance);
    if (f.job.has_value()) prov.map_job(*f.job, f.provenance);
    for (auto c : f.affected) prov.map_component(c, f.provenance);
  }
  // Injections are rare; the registration lookup off the hot path is fine.
  sim_.metrics()
      .counter("fault.injections", std::string("cls=") + to_string(f.cls))
      .inc();
  ledger_.push_back(std::move(f));
  return ledger_.back().id;
}

void FaultInjector::manifest(platform::ComponentId c, std::string_view detail) {
  auto& prov = sim_.provenance();
  if (!prov.enabled()) return;
  char ent[24];
  std::snprintf(ent, sizeof ent, "component.%u", c);
  prov.event(prov.journey_for_component(c), obs::ProvStage::kManifestation, ent,
             detail);
}

void FaultInjector::manifest_job(platform::JobId j, std::string_view detail) {
  auto& prov = sim_.provenance();
  if (!prov.enabled()) return;
  char ent[24];
  std::snprintf(ent, sizeof ent, "job.%u", static_cast<unsigned>(j));
  prov.event(prov.journey_for_job(j), obs::ProvStage::kManifestation, ent,
             detail);
}

sim::Timer& FaultInjector::new_chain() {
  chains_.push_back(std::make_unique<sim::Timer>());
  return *chains_.back();
}

FaultId FaultInjector::inject_emi_burst(double center, double radius,
                                        sim::SimTime start,
                                        sim::Duration duration,
                                        double corrupt_prob) {
  // The activation event and the channel hook share one coupling record,
  // which keeps the event's capture inline (see sim/event_fn.hpp).
  struct Coupling {
    std::vector<platform::ComponentId> affected;
    double corrupt_prob;
    sim::Rng rng;
  };
  const auto burst = std::make_shared<Coupling>(Coupling{
      layout_.within(center, radius), corrupt_prob,
      sim_.fork_rng("emi." + std::to_string(ledger_.size()))});
  const auto& affected = burst->affected;
  const sim::SimTime end = start + duration;

  sim_.schedule_at(start, [this, burst, end] {
    for (auto c : burst->affected) manifest(c, "emi burst coupling");
    auto hook_id = std::make_shared<std::uint64_t>(0);
    *hook_id = system_.cluster().bus().add_channel_fault(
        [burst](tta::Delivery& d, tta::NodeId receiver, sim::SimTime) {
          // The burst couples into the harness near the affected nodes:
          // frames *arriving at* an affected receiver get bit flips
          // (multiple flips per frame — Fig. 8's value signature). Only a
          // delivery that actually takes flips is privatized; everyone
          // else keeps reading the shared pooled frame.
          sim::Rng& rng = burst->rng;
          for (auto c : burst->affected) {
            if (c == receiver && rng.bernoulli(burst->corrupt_prob)) {
              if (d.frame().payload.empty()) return false;  // frame lost entirely
              tta::Frame& copy = d.corrupt();
              for (int flip = 0; flip < 3; ++flip) {
                const auto idx = static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(copy.payload.size()) - 1));
                copy.payload[idx] ^= static_cast<std::uint8_t>(
                    1u << rng.uniform_int(0, 7));
              }
            }
          }
          return true;
        });
    sim_.schedule_at(end, [this, hook_id] {
      system_.cluster().bus().remove_channel_fault(*hook_id);
    });
  }, sim::EventPriority::kFault);

  InjectedFault f;
  f.cls = FaultClass::kComponentExternal;
  f.persistence = Persistence::kTransient;
  f.component = affected.empty() ? 0 : affected.front();
  f.affected = affected;
  f.start = start;
  f.duration = duration;
  f.description = "EMI burst r=" + std::to_string(radius) + " affecting " +
                  std::to_string(affected.size()) + " components";
  return record(f);
}

BitFaultPlane& FaultInjector::bitfault_plane() {
  if (!bitplane_) {
    bitplane_ = std::make_unique<BitFaultPlane>(sim_, system_);
    // Every flip becomes a manifestation event on the journey owning its
    // component. The detail strings are constant per kind, so the
    // tracer's coalescing keeps a dense shower at one span per episode.
    bitplane_->on_flip = [this](const BitFlipRecord& r) {
      switch (r.kind) {
        case BitFaultKind::kWearoutTx:
          manifest(r.component, "wearout tx bit flip");
          break;
        case BitFaultKind::kEmiRx:
          manifest(r.component, "emi rx bit flip");
          break;
        case BitFaultKind::kSeuRx:
          manifest(r.component, "seu rx bit flip");
          break;
        case BitFaultKind::kVnetValue:
          manifest(r.component, "seu value-field flip");
          break;
        case BitFaultKind::kSpurious:
          break;  // registry perturbation, not an injected fault
      }
    };
  }
  return *bitplane_;
}

FaultId FaultInjector::inject_wearout_ber(platform::ComponentId component,
                                          sim::SimTime start,
                                          WearoutCurve curve) {
  auto active = std::make_shared<bool>(true);
  (void)bitfault_plane();  // construct before the first frame of the window

  // Track the curve with a periodic rate update; one update per ~4 rounds
  // is plenty for time constants in the hundreds of milliseconds.
  new_chain().start(
      sim_, start,
      [this, component, curve, start, active]() -> std::optional<sim::Duration> {
        if (!*active) {  // the worn FRU was replaced
          bitfault_plane().set_tx_ber(component, 0.0);
          return std::nullopt;
        }
        const double age_s =
            static_cast<double>((sim_.now() - start).ns()) * 1e-9;
        bitfault_plane().set_tx_ber(component, curve.ber_at(age_s));
        return sim::milliseconds(10);
      },
      sim::EventPriority::kFault);

  InjectedFault f;
  f.cls = FaultClass::kComponentInternal;
  f.persistence = Persistence::kIntermittent;
  f.component = component;
  f.start = start;
  f.description = "wearout BER (bathtub bit-error curve)";
  f.active = std::move(active);
  return record(f);
}

FaultId FaultInjector::inject_emi_bit_burst(double center, double radius,
                                            sim::SimTime start,
                                            sim::Duration duration,
                                            double ber) {
  // Not const: the events below capture copies, and a const vector's
  // "move" is a copy that may throw, which an event closure must not.
  auto affected = layout_.within(center, radius);
  const sim::SimTime end = start + duration;
  (void)bitfault_plane();

  sim_.schedule_at(start, [this, affected, ber, end] {
    for (auto c : affected) {
      manifest(c, "emi burst coupling (bit shower)");
      bitfault_plane().set_rx_ber(c, ber, BitFaultKind::kEmiRx);
    }
    sim_.schedule_at(end, [this, affected] {
      for (auto c : affected) {
        bitfault_plane().set_rx_ber(c, 0.0, BitFaultKind::kEmiRx);
      }
    }, sim::EventPriority::kFault);
  }, sim::EventPriority::kFault);

  InjectedFault f;
  f.cls = FaultClass::kComponentExternal;
  f.persistence = Persistence::kTransient;
  f.component = affected.empty() ? 0 : affected.front();
  f.affected = affected;
  f.start = start;
  f.duration = duration;
  f.description = "EMI bit burst r=" + std::to_string(radius) +
                  " affecting " + std::to_string(affected.size()) +
                  " components";
  return record(f);
}

FaultId FaultInjector::inject_seu_shower(platform::ComponentId component,
                                         sim::SimTime start, double ber,
                                         std::uint32_t value_flips,
                                         std::uint32_t window_rounds) {
  const sim::Duration window =
      system_.cluster().schedule().round_length() *
      static_cast<std::int64_t>(window_rounds);
  (void)bitfault_plane();

  sim_.schedule_at(start, [this, component, ber, value_flips, window] {
    manifest(component, "seu shower");
    auto& plane = bitfault_plane();
    plane.set_rx_ber(component, ber, BitFaultKind::kSeuRx);
    if (value_flips > 0) plane.arm_value_flips(component, value_flips);
    sim_.schedule_after(window,
                        [this, component] {
                          auto& p = bitfault_plane();
                          p.set_rx_ber(component, 0.0, BitFaultKind::kSeuRx);
                          p.disarm_value_flips(component);
                        },
                        sim::EventPriority::kFault);
  }, sim::EventPriority::kFault);

  InjectedFault f;
  f.cls = FaultClass::kComponentExternal;
  f.persistence = Persistence::kTransient;
  f.component = component;
  f.start = start;
  f.duration = window;
  f.description = "SEU shower (bounded-window rx bit flips + stored-value upset)";
  return record(f);
}

FaultId FaultInjector::inject_seu(platform::ComponentId component,
                                  sim::SimTime start) {
  sim_.schedule_at(start, [this, component] {
    // One corrupted transmission, then back to healthy.
    manifest(component, "seu bit flip");
    auto& node = system_.cluster().node(component);
    node.faults().tx_corrupt_prob = 1.0;
    sim_.schedule_after(system_.cluster().schedule().round_length(),
                        [&node] { node.faults().tx_corrupt_prob = 0.0; },
                        sim::EventPriority::kFault);
  }, sim::EventPriority::kFault);

  InjectedFault f;
  f.cls = FaultClass::kComponentExternal;
  f.persistence = Persistence::kTransient;
  f.component = component;
  f.start = start;
  f.duration = system_.cluster().schedule().round_length();
  f.description = "SEU single bit flip";
  return record(f);
}

FaultId FaultInjector::inject_connector_fault(platform::ComponentId component,
                                              sim::SimTime start,
                                              sim::Duration mean_episode_gap,
                                              sim::Duration episode_len,
                                              double drop_prob) {
  auto rng = std::make_shared<sim::Rng>(
      sim_.fork_rng("connector." + std::to_string(component)));
  auto active = std::make_shared<bool>(true);

  // Episode chain with exponential gaps (arbitrary in time, Fig. 8) —
  // only this component's receive path is disturbed.
  new_chain().start(
      sim_, start,
      [this, component, mean_episode_gap, episode_len, drop_prob, rng,
       active]() -> std::optional<sim::Duration> {
        if (!*active) return std::nullopt;  // the connector was repaired
        manifest(component, "connector episode (rx drop/corrupt)");
        auto& node = system_.cluster().node(component);
        node.faults().rx_drop_prob = drop_prob;
        node.faults().rx_corrupt_prob = (1.0 - drop_prob);
        sim_.schedule_after(episode_len, [&node] {
          node.faults().rx_drop_prob = 0.0;
          node.faults().rx_corrupt_prob = 0.0;
        }, sim::EventPriority::kFault);

        const double gap_ns = rng->exponential(
            1.0 / static_cast<double>(mean_episode_gap.ns()));
        return episode_len + sim::Duration{static_cast<std::int64_t>(gap_ns)};
      },
      sim::EventPriority::kFault);

  InjectedFault f;
  f.cls = FaultClass::kComponentBorderline;
  f.persistence = Persistence::kIntermittent;
  f.component = component;
  f.start = start;
  f.description = "connector fault (intermittent contact)";
  f.active = std::move(active);
  return record(f);
}

FaultId FaultInjector::inject_wearout(platform::ComponentId component,
                                      sim::SimTime start,
                                      sim::Duration initial_gap,
                                      double gap_shrink,
                                      sim::Duration episode_len) {
  auto gap = std::make_shared<double>(static_cast<double>(initial_gap.ns()));
  auto active = std::make_shared<bool>(true);
  new_chain().start(
      sim_, start,
      [this, component, gap, gap_shrink, episode_len,
       active]() -> std::optional<sim::Duration> {
        if (!*active) return std::nullopt;  // the cracked board was replaced
        manifest(component, "wearout episode (tx corrupt)");
        auto& node = system_.cluster().node(component);
        node.faults().tx_corrupt_prob = 1.0;
        sim_.schedule_after(episode_len, [&node] {
          node.faults().tx_corrupt_prob = 0.0;
        }, sim::EventPriority::kFault);

        *gap *= gap_shrink;  // increasing frequency as time progresses (Fig. 8)
        return sim::Duration{static_cast<std::int64_t>(*gap)} + episode_len;
      },
      sim::EventPriority::kFault);

  InjectedFault f;
  f.cls = FaultClass::kComponentInternal;
  f.persistence = Persistence::kIntermittent;
  f.component = component;
  f.start = start;
  f.description = "wearout (PCB crack, rising transient rate)";
  f.active = std::move(active);
  return record(f);
}

FaultId FaultInjector::inject_permanent_failure(platform::ComponentId component,
                                                sim::SimTime start) {
  sim_.schedule_at(start, [this, component] {
    manifest(component, "permanent fail-silent");
    system_.cluster().node(component).faults().fail_silent = true;
  }, sim::EventPriority::kFault);

  InjectedFault f;
  f.cls = FaultClass::kComponentInternal;
  f.persistence = Persistence::kPermanent;
  f.component = component;
  f.start = start;
  f.description = "permanent hardware failure (fail-silent)";
  return record(f);
}

FaultId FaultInjector::inject_quartz_fault(platform::ComponentId component,
                                           sim::SimTime start,
                                           double drift_ppm) {
  sim_.schedule_at(start, [this, component, drift_ppm] {
    manifest(component, "quartz drift out of spec");
    system_.cluster().node(component).clock().set_drift_ppm(drift_ppm);
  }, sim::EventPriority::kFault);

  InjectedFault f;
  f.cls = FaultClass::kComponentInternal;
  f.persistence = Persistence::kPermanent;
  f.component = component;
  f.start = start;
  f.description = "quartz defect (" + std::to_string(drift_ppm) + " ppm)";
  return record(f);
}

FaultId FaultInjector::inject_transient_outage(platform::ComponentId component,
                                               sim::SimTime start,
                                               sim::Duration duration) {
  sim_.schedule_at(start, [this, component, duration] {
    manifest(component, "transient outage begin");
    auto& node = system_.cluster().node(component);
    node.faults().fail_silent = true;
    sim_.schedule_after(duration, [&node] { node.faults().fail_silent = false; },
                        sim::EventPriority::kFault);
  }, sim::EventPriority::kFault);

  InjectedFault f;
  f.cls = FaultClass::kComponentExternal;
  f.persistence = Persistence::kTransient;
  f.component = component;
  f.start = start;
  f.duration = duration;
  f.description =
      "transient outage (" + std::to_string(duration.ms()) + " ms)";
  return record(f);
}

FaultId FaultInjector::inject_babbling(platform::ComponentId component,
                                       sim::SimTime start,
                                       sim::Duration duration,
                                       sim::Duration mean_attempt_gap) {
  auto rng = std::make_shared<sim::Rng>(
      sim_.fork_rng("babble." + std::to_string(component)));
  auto active = std::make_shared<bool>(true);
  const sim::SimTime end = start + duration;
  new_chain().start(
      sim_, start,
      [this, component, mean_attempt_gap, rng, end,
       active]() -> std::optional<sim::Duration> {
        if (!*active) return std::nullopt;  // the controller was replaced
        if (sim_.now() >= end) return std::nullopt;
        manifest(component, "babble tx attempt");
        system_.cluster().node(component).attempt_transmit_now();
        const double gap_ns = rng->exponential(
            1.0 / static_cast<double>(mean_attempt_gap.ns()));
        return sim::Duration{static_cast<std::int64_t>(gap_ns)};
      },
      sim::EventPriority::kFault);

  InjectedFault f;
  f.cls = FaultClass::kComponentInternal;
  f.persistence = Persistence::kPermanent;
  f.component = component;
  f.start = start;
  f.duration = duration;
  f.description = "babbling idiot (random-instant transmissions)";
  f.active = std::move(active);
  return record(f);
}

FaultId FaultInjector::inject_brownout(platform::ComponentId component,
                                       sim::SimTime start,
                                       sim::Duration outage,
                                       sim::Duration uptime) {
  auto active = std::make_shared<bool>(true);
  new_chain().start(
      sim_, start,
      [this, component, outage, uptime,
       active]() -> std::optional<sim::Duration> {
        if (!*active) return std::nullopt;  // the supply was repaired
        manifest(component, "brownout reset");
        auto& node = system_.cluster().node(component);
        node.faults().fail_silent = true;
        sim_.schedule_after(outage,
                            [&node] { node.faults().fail_silent = false; },
                            sim::EventPriority::kFault);
        return outage + uptime;
      },
      sim::EventPriority::kFault);

  InjectedFault f;
  f.cls = FaultClass::kComponentInternal;
  f.persistence = Persistence::kIntermittent;
  f.component = component;
  f.start = start;
  f.description = "power-supply brownout (cyclic resets)";
  f.active = std::move(active);
  return record(f);
}

FaultId FaultInjector::inject_config_fault(platform::VnetId vnet,
                                           sim::SimTime start,
                                           std::uint16_t wrong_budget,
                                           std::uint16_t wrong_depth) {
  sim_.schedule_at(start, [this, vnet, wrong_budget, wrong_depth] {
    for (const auto& pc : system_.plan().ports()) {
      if (pc.vnet == vnet) {
        manifest_job(pc.owner, "vnet misconfiguration applied");
        break;
      }
    }
    auto& cfg = system_.plan().mutable_vnet(vnet);
    cfg.msgs_per_round_per_node = wrong_budget;
    cfg.queue_depth = wrong_depth;
  }, sim::EventPriority::kFault);

  // Attribute the configuration fault to the first sender job of the vnet
  // (its ports are the ones whose queues overflow).
  InjectedFault f;
  f.cls = FaultClass::kJobBorderline;
  f.persistence = Persistence::kPermanent;
  for (const auto& pc : system_.plan().ports()) {
    if (pc.vnet == vnet) {
      f.job = pc.owner;
      f.component = system_.job(pc.owner).host();
      break;
    }
  }
  f.start = start;
  f.description = "vnet misconfiguration (budget=" +
                  std::to_string(wrong_budget) + ", depth=" +
                  std::to_string(wrong_depth) + ")";
  return record(f);
}

FaultId FaultInjector::inject_heisenbug(platform::JobId job, sim::SimTime start,
                                        double prob, double value_error) {
  sim_.schedule_at(start, [this, job, prob, value_error] {
    manifest_job(job, "heisenbug armed");
    auto& sw = system_.job(job).sw_faults();
    sw.heisenbug_prob = prob;
    sw.manifestation = platform::SoftwareFaultControls::Manifestation::kValueError;
    sw.value_error = value_error;
  }, sim::EventPriority::kFault);

  InjectedFault f;
  f.cls = FaultClass::kJobInherentSoftware;
  f.persistence = Persistence::kIntermittent;
  f.job = job;
  f.component = system_.job(job).host();
  f.start = start;
  f.description = "Heisenbug (p=" + std::to_string(prob) + ")";
  return record(f);
}

FaultId FaultInjector::inject_bohrbug(platform::JobId job, sim::SimTime start,
                                      std::uint64_t modulo, std::uint64_t phase) {
  sim_.schedule_at(start, [this, job, modulo, phase] {
    manifest_job(job, "bohrbug armed");
    auto& sw = system_.job(job).sw_faults();
    sw.bohrbug_trigger = [modulo, phase](tta::RoundId r,
                                         const std::vector<vnet::Message>&) {
      return (r % modulo) == phase;
    };
    sw.manifestation = platform::SoftwareFaultControls::Manifestation::kValueError;
  }, sim::EventPriority::kFault);

  InjectedFault f;
  f.cls = FaultClass::kJobInherentSoftware;
  f.persistence = Persistence::kIntermittent;
  f.job = job;
  f.component = system_.job(job).host();
  f.start = start;
  f.description = "Bohrbug (round % " + std::to_string(modulo) + " == " +
                  std::to_string(phase) + ")";
  return record(f);
}

FaultId FaultInjector::inject_software_crash(platform::JobId job,
                                             sim::SimTime start) {
  sim_.schedule_at(start, [this, job] {
    manifest_job(job, "job crashed");
    system_.job(job).sw_faults().crashed = true;
  }, sim::EventPriority::kFault);

  InjectedFault f;
  f.cls = FaultClass::kJobInherentSoftware;
  f.persistence = Persistence::kPermanent;
  f.job = job;
  f.component = system_.job(job).host();
  f.start = start;
  f.description = "software crash (job halted)";
  return record(f);
}

FaultId FaultInjector::inject_sensor_fault(platform::JobId job,
                                           std::size_t sensor_index,
                                           platform::SensorFaultMode mode,
                                           sim::SimTime start) {
  sim_.schedule_at(start, [this, job, sensor_index, mode] {
    manifest_job(job, "sensor fault active");
    system_.job(job).sensor(sensor_index).set_fault(mode, sim_.now());
  }, sim::EventPriority::kFault);

  InjectedFault f;
  f.cls = FaultClass::kJobInherentTransducer;
  f.persistence = Persistence::kPermanent;
  f.job = job;
  f.component = system_.job(job).host();
  f.start = start;
  f.description = std::string("sensor fault (") + to_string(mode) + ")";
  return record(f);
}

void FaultInjector::repair_component(platform::ComponentId c) {
  for (auto& f : ledger_) {
    if (!f.job.has_value() && f.component == c) *f.active = false;
  }
}

void FaultInjector::repair_job(platform::JobId j) {
  for (auto& f : ledger_) {
    if (f.job.has_value() && *f.job == j) *f.active = false;
  }
}

std::size_t FaultInjector::apply_action(platform::ComponentId c,
                                        std::optional<platform::JobId> job,
                                        MaintenanceAction action) {
  std::size_t stopped = 0;
  for (auto& f : ledger_) {
    const bool same_fru = job.has_value()
                              ? (f.job.has_value() && *f.job == *job)
                              : (!f.job.has_value() && f.component == c);
    if (!same_fru) continue;
    if (!evaluate_action(f.cls, action).fault_eliminated) continue;
    if (*f.active) ++stopped;
    *f.active = false;
  }
  return stopped;
}

FaultId FaultInjector::inject_actuator_fault(platform::JobId job,
                                             std::size_t actuator_index,
                                             platform::ActuatorFaultMode mode,
                                             sim::SimTime start) {
  sim_.schedule_at(start, [this, job, actuator_index, mode] {
    manifest_job(job, "actuator fault active");
    system_.job(job).actuator(actuator_index).set_fault(mode);
  }, sim::EventPriority::kFault);

  InjectedFault f;
  f.cls = FaultClass::kJobInherentTransducer;
  f.persistence = Persistence::kPermanent;
  f.job = job;
  f.component = system_.job(job).host();
  f.start = start;
  f.description = std::string("actuator fault (") + to_string(mode) + ")";
  return record(f);
}

FaultClass FaultInjector::truth_for_component(platform::ComponentId c) const {
  // Component-level truth: the most replacement-relevant class wins if
  // several faults touch the same FRU (internal > borderline > external).
  FaultClass best = FaultClass::kNone;
  for (const auto& f : ledger_) {
    if (f.job.has_value()) continue;  // job-level faults judged per job
    const bool touches =
        f.component == c ||
        std::find(f.affected.begin(), f.affected.end(), c) != f.affected.end();
    if (!touches) continue;
    if (replacement_severity(f.cls) > replacement_severity(best)) best = f.cls;
  }
  return best;
}

FaultClass FaultInjector::truth_for_job(platform::JobId j) const {
  FaultClass best = FaultClass::kNone;
  auto rank = [](FaultClass fc) {
    switch (fc) {
      case FaultClass::kJobInherentSoftware: return 3;
      case FaultClass::kJobInherentTransducer: return 3;
      case FaultClass::kJobBorderline: return 2;
      default: return 0;
    }
  };
  for (const auto& f : ledger_) {
    if (!f.job.has_value() || *f.job != j) continue;
    if (rank(f.cls) > rank(best)) best = f.cls;
  }
  return best;
}

}  // namespace decos::fault
