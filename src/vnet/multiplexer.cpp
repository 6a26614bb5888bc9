#include "vnet/multiplexer.hpp"

#include <cassert>

namespace decos::vnet {

Multiplexer::Multiplexer(const NetworkPlan& plan, platform::ComponentId component)
    : plan_(plan), component_(component) {}

void Multiplexer::bind_metrics(obs::Registry& registry) {
  registry_ = &registry;
  relayed_metric_ = registry.counter("vnet.mux.messages_relayed");
  overflow_metric_ = registry.counter("vnet.mux.overflows");
  queue_occupancy_metric_ = registry.gauge("vnet.mux.queue_occupancy_hwm");
  for (auto& [pid, pq] : hosted_) bind_port_metrics(pq);
}

void Multiplexer::bind_port_metrics(PortQueue& pq) {
  if (!registry_) return;
  const PortConfig& cfg = plan_.port(pq.id);
  pq.overflow_labeled = registry_->counter(
      "vnet.mux.overflows",
      "port=" + plan_.vnet(cfg.vnet).name + "/" + cfg.name);
}

void Multiplexer::host_port(platform::PortId port) {
  const PortConfig& cfg = plan_.port(port);
  assert(!hosted_.contains(port));
  auto [it, inserted] = hosted_.emplace(port, PortQueue{port, {}, 0, 0, {}});
  bind_port_metrics(it->second);
  by_vnet_[cfg.vnet].push_back(port);
}

bool Multiplexer::send(Message msg, tta::RoundId round) {
  auto it = hosted_.find(msg.port);
  assert(it != hosted_.end() && "send on a port not hosted here");
  PortQueue& pq = it->second;
  const VnetConfig& vn = plan_.vnet(plan_.port(msg.port).vnet);

  msg.vnet = plan_.port(msg.port).vnet;
  msg.sender = plan_.port(msg.port).owner;
  msg.sent_round = round;

  if (vn.kind == VnetKind::kTimeTriggered) {
    // State semantics: the port is a single-value register; a newer value
    // overwrites an unsent older one. Never overflows.
    msg.seq = pq.next_seq++;
    if (!pq.queue.empty()) {
      pq.queue.back() = msg;
    } else {
      pq.queue.push_back(msg);
    }
    return true;
  }

  if (pq.queue.size() >= vn.queue_depth) {
    ++pq.overflows;
    ++total_overflows_;
    overflow_metric_.inc();
    pq.overflow_labeled.inc();
    if (on_overflow) on_overflow(msg.port, msg.vnet, round);
    return false;
  }
  msg.seq = pq.next_seq++;
  pq.queue.push_back(msg);
  if (static_cast<double>(pq.queue.size()) > queue_occupancy_metric_.value()) {
    queue_occupancy_metric_.set(static_cast<double>(pq.queue.size()));
  }
  return true;
}

void Multiplexer::drain_messages(tta::RoundId round,
                                 std::vector<Message>& out) {
  out.clear();
  for (auto& [vnet_id, ports] : by_vnet_) {
    const VnetConfig& vn = plan_.vnet(vnet_id);
    std::uint16_t budget = vn.msgs_per_round_per_node;
    // Round-robin across the vnet's hosted ports until the budget is used
    // or all queues are empty.
    bool progress = true;
    while (budget > 0 && progress) {
      progress = false;
      for (platform::PortId pid : ports) {
        if (budget == 0) break;
        auto& pq = hosted_.at(pid);
        if (pq.queue.empty()) continue;
        Message msg = pq.queue.front();
        pq.queue.pop_front();
        --budget;
        progress = true;
        if (drain_filter && !drain_filter(msg, round)) continue;  // injected loss
        out.push_back(std::move(msg));
      }
    }
  }
  (void)round;
  relayed_metric_.inc(out.size());
}

std::vector<Message> Multiplexer::drain_messages(tta::RoundId round) {
  std::vector<Message> out;
  drain_messages(round, out);
  return out;
}

void Multiplexer::unpack_arrival(std::span<const std::uint8_t> payload,
                                 std::vector<Message>& out,
                                 std::span<const std::uint8_t> port_mask) const {
  if (!unpack_into(payload, out, port_mask)) out.clear();
}

std::vector<Message> Multiplexer::unpack_arrival(
    std::span<const std::uint8_t> payload) const {
  std::vector<Message> out;
  unpack_arrival(payload, out);
  return out;
}

std::uint64_t Multiplexer::overflows(platform::PortId port) const {
  auto it = hosted_.find(port);
  return it == hosted_.end() ? 0 : it->second.overflows;
}

std::size_t Multiplexer::queue_length(platform::PortId port) const {
  auto it = hosted_.find(port);
  return it == hosted_.end() ? 0 : it->second.queue.size();
}

}  // namespace decos::vnet
