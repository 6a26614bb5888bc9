#include "platform/system.hpp"

#include <cassert>

namespace decos::platform {
namespace {

/// Budget of the auto-created diagnostic vnet: messages per round per
/// node, and queue depth.
constexpr std::uint16_t kDiagMsgsPerRound = 16;
constexpr std::uint16_t kDiagQueueDepth = 64;

}  // namespace

System::System(sim::Simulator& sim, Params params)
    : sim_(sim), cluster_(sim, params.cluster) {
  components_.reserve(cluster_.size());
  for (ComponentId c = 0; c < cluster_.size(); ++c) {
    components_.push_back(
        std::make_unique<Component>(sim_, cluster_.node(c), plan_));
  }
  // Vnet 0: the reserved virtual diagnostic network.
  plan_.add_vnet(vnet::VnetConfig{
      .id = kDiagnosticVnet,
      .name = "diagnostic",
      .msgs_per_round_per_node = kDiagMsgsPerRound,
      .queue_depth = kDiagQueueDepth,
  });
}

DasId System::add_das(std::string name, Criticality criticality) {
  const DasId id = static_cast<DasId>(dases_.size());
  dases_.push_back(DasInfo{id, std::move(name), criticality, {}});
  return id;
}

VnetId System::add_vnet(std::string name, std::uint16_t msgs_per_round_per_node,
                        std::uint16_t queue_depth, vnet::VnetKind kind) {
  assert(!finalized_);
  const VnetId id = static_cast<VnetId>(plan_.vnets().size());
  plan_.add_vnet(vnet::VnetConfig{
      .id = id,
      .name = std::move(name),
      .msgs_per_round_per_node = msgs_per_round_per_node,
      .queue_depth = queue_depth,
      .kind = kind,
  });
  return id;
}

Job& System::add_job(DasId das, std::string name, ComponentId component,
                     Job::Behavior behavior, std::uint32_t period_rounds,
                     std::uint32_t phase_rounds) {
  assert(!finalized_);
  assert(component < components_.size());
  Job::Params jp;
  jp.id = static_cast<JobId>(jobs_.size());
  jp.name = std::move(name);
  jp.das = das;
  jp.criticality = dases_.at(das).criticality;
  jp.host = component;
  jp.period_rounds = period_rounds;
  jp.phase_rounds = phase_rounds;
  jobs_.push_back(std::make_unique<Job>(jp, std::move(behavior),
                                        sim_.fork_rng("job." + jp.name)));
  dases_.at(das).jobs.push_back(jp.id);
  components_.at(component)->host(*jobs_.back());
  return *jobs_.back();
}

PortId System::add_port(JobId owner, std::string name, VnetId vnet,
                        std::vector<JobId> receivers) {
  assert(!finalized_);
  const PortId id = static_cast<PortId>(plan_.ports().size());
  plan_.add_port(vnet::PortConfig{
      .id = id,
      .name = std::move(name),
      .vnet = vnet,
      .owner = owner,
      .receivers = std::move(receivers),
  });
  return id;
}

void System::finalize() {
  assert(!finalized_);
  finalized_ = true;
  for (const vnet::PortConfig& pc : plan_.ports()) {
    const ComponentId host = jobs_.at(pc.owner)->host();
    components_.at(host)->host_port(pc.id);
  }
  for (auto& c : components_) c->bind();
}

void System::start() {
  assert(finalized_ && "finalize() must run before start()");
  cluster_.start();
}

}  // namespace decos::platform
