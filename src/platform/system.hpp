// System facade: builds a complete integrated DECOS system — TTA cluster,
// components, DASs, jobs, ports and virtual networks — from declarative
// calls, then wires and starts everything. Scenario code (tests, benches,
// examples) should not assemble the layers by hand.
//
// The virtual diagnostic network (vnet 0) is created automatically, as the
// paper reserves a dedicated encapsulated overlay for the dissemination of
// diagnostic messages (Section II-D).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "platform/component.hpp"
#include "platform/job.hpp"
#include "platform/types.hpp"
#include "sim/simulator.hpp"
#include "tta/cluster.hpp"
#include "vnet/network_plan.hpp"

namespace decos::platform {

struct DasInfo {
  DasId id = 0;
  std::string name;
  Criticality criticality = Criticality::kNonSafetyCritical;
  std::vector<JobId> jobs;
};

class System {
 public:
  struct Params {
    tta::Cluster::Params cluster{};
  };

  System(sim::Simulator& sim, Params params);

  // --- construction (call before finalize) -------------------------------
  DasId add_das(std::string name, Criticality criticality);

  VnetId add_vnet(std::string name, std::uint16_t msgs_per_round_per_node,
                  std::uint16_t queue_depth,
                  vnet::VnetKind kind = vnet::VnetKind::kEventTriggered);

  /// Creates a job hosted on `component`, member of `das`, dispatching
  /// every `period_rounds`.
  Job& add_job(DasId das, std::string name, ComponentId component,
               Job::Behavior behavior, std::uint32_t period_rounds = 1,
               std::uint32_t phase_rounds = 0);

  /// Creates an output port owned by `job` on `vnet`, multicast to
  /// `receivers`.
  PortId add_port(JobId owner, std::string name, VnetId vnet,
                  std::vector<JobId> receivers);

  /// Wires ports onto components and installs node callbacks.
  void finalize();

  /// Starts the cluster schedule. Requires finalize().
  void start();

  // --- access -------------------------------------------------------------
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] tta::Cluster& cluster() { return cluster_; }
  [[nodiscard]] Component& component(ComponentId id) { return *components_.at(id); }
  [[nodiscard]] std::uint32_t component_count() const {
    return static_cast<std::uint32_t>(components_.size());
  }
  [[nodiscard]] Job& job(JobId id) { return *jobs_.at(id); }
  [[nodiscard]] const Job& job(JobId id) const { return *jobs_.at(id); }
  [[nodiscard]] std::size_t job_count() const { return jobs_.size(); }
  [[nodiscard]] const DasInfo& das(DasId id) const { return dases_.at(id); }
  [[nodiscard]] const std::vector<DasInfo>& dases() const { return dases_; }
  [[nodiscard]] vnet::NetworkPlan& plan() { return plan_; }
  [[nodiscard]] const vnet::NetworkPlan& plan() const { return plan_; }

 private:
  sim::Simulator& sim_;
  tta::Cluster cluster_;
  vnet::NetworkPlan plan_;
  std::vector<std::unique_ptr<Component>> components_;
  std::vector<std::unique_ptr<Job>> jobs_;
  std::vector<DasInfo> dases_;
  bool finalized_ = false;
};

}  // namespace decos::platform
