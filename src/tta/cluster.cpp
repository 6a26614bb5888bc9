#include "tta/cluster.hpp"

#include <cassert>

namespace decos::tta {

Cluster::Cluster(sim::Simulator& sim, Params params) : sim_(sim) {
  assert(params.node_count > 0 && params.node_count <= 64);
  params.tdma.slots_per_round = params.node_count;
  bus_ = std::make_unique<Bus>(sim, TdmaSchedule{params.tdma}, params.bus);

  sim::Rng drift_rng = sim.fork_rng("tta.cluster.drift");
  nodes_.reserve(params.node_count);
  for (std::uint32_t i = 0; i < params.node_count; ++i) {
    const TtaNode::Params np{
        .id = i,
        .drift_ppm = drift_rng.uniform(-params.drift_bound_ppm,
                                       params.drift_bound_ppm)};
    nodes_.push_back(std::make_unique<TtaNode>(sim, *bus_, np));
  }
}

void Cluster::start() {
  for (auto& n : nodes_) n->start();
}

std::vector<sim::SimTime> Cluster::start_cold(sim::Duration power_on_spread) {
  sim::Rng rng = sim_.fork_rng("tta.cluster.poweron");
  std::vector<sim::SimTime> power_on;
  power_on.reserve(nodes_.size());
  for (auto& n : nodes_) {
    const sim::SimTime at =
        sim_.now() + sim::Duration{rng.uniform_int(0, power_on_spread.ns())};
    power_on.push_back(at);
    TtaNode* node = n.get();
    sim_.schedule_at(at, [node] { node->start_cold(); });
  }
  return power_on;
}

sim::Duration Cluster::precision() const {
  const sim::SimTime now = sim_.now();
  std::int64_t lo = 0, hi = 0;
  bool first = true;
  for (const auto& n : nodes_) {
    if (!n->in_sync()) continue;
    const std::int64_t off = n->clock().offset(now).ns();
    if (first) {
      lo = hi = off;
      first = false;
    } else {
      lo = std::min(lo, off);
      hi = std::max(hi, off);
    }
  }
  return sim::Duration{first ? 0 : hi - lo};
}

}  // namespace decos::tta
