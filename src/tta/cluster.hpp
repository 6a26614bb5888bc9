// Cluster builder: wires a bus and N nodes into a runnable TTA cluster.
//
// The scenario code (tests, benches, examples) talks to this facade
// instead of assembling bus/nodes by hand. Drift rates are sampled from a
// spec bound per node using the cluster's RNG stream so every scenario is
// reproducible from the simulator seed alone.
#pragma once

#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "tta/bus.hpp"
#include "tta/node.hpp"

namespace decos::tta {

class Cluster {
 public:
  struct Params {
    std::uint32_t node_count = 4;
    TdmaSchedule::Params tdma{};
    Bus::Params bus{};
    /// Spec bound for crystal drift; per-node drift is uniform in
    /// [-bound, +bound] ppm.
    double drift_bound_ppm = 50.0;
  };

  Cluster(sim::Simulator& sim, Params params);

  /// Starts every node's schedule simultaneously (synchronised start).
  void start();

  /// Cold start: every node powers on at a random instant within
  /// `power_on_spread` and integrates via the TTP-style listen/anchor
  /// protocol. Returns the power-on instants (index = node).
  std::vector<sim::SimTime> start_cold(
      sim::Duration power_on_spread = sim::milliseconds(20));

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  [[nodiscard]] TtaNode& node(NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] const TtaNode& node(NodeId id) const { return *nodes_.at(id); }
  [[nodiscard]] Bus& bus() { return *bus_; }
  [[nodiscard]] const TdmaSchedule& schedule() const { return bus_->schedule(); }

  /// Worst pairwise clock offset across in-sync nodes right now — the
  /// achieved precision of the global time base.
  [[nodiscard]] sim::Duration precision() const;

 private:
  sim::Simulator& sim_;
  std::unique_ptr<Bus> bus_;
  std::vector<std::unique_ptr<TtaNode>> nodes_;
};

}  // namespace decos::tta
