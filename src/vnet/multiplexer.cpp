#include "vnet/multiplexer.hpp"

#include <algorithm>
#include <cassert>

namespace decos::vnet {

Multiplexer::Multiplexer(const NetworkPlan& plan, platform::ComponentId component)
    : plan_(plan), component_(component) {}

void Multiplexer::bind_metrics(obs::Registry& registry) {
  registry_ = &registry;
  relayed_metric_ = registry.counter("vnet.mux.messages_relayed");
  overflow_metric_ = registry.counter("vnet.mux.overflows");
  queue_occupancy_metric_ = registry.gauge("vnet.mux.queue_occupancy_hwm");
  for (PortQueue& pq : queues_) bind_port_metrics(pq);
}

void Multiplexer::bind_port_metrics(PortQueue& pq) {
  if (!registry_) return;
  const PortConfig& cfg = plan_.port(pq.id);
  pq.overflow_labeled = registry_->counter(
      "vnet.mux.overflows",
      "port=" + plan_.vnet(cfg.vnet).name + "/" + cfg.name);
}

const Multiplexer::PortQueue* Multiplexer::find(platform::PortId port) const {
  if (port >= queue_of_port_.size() || queue_of_port_[port] == kNotHosted) {
    return nullptr;
  }
  return &queues_[queue_of_port_[port]];
}

void Multiplexer::host_port(platform::PortId port) {
  const PortConfig& cfg = plan_.port(port);
  assert(find(port) == nullptr);
  // Sized to the whole plan: ports are hosted once the plan is complete
  // (System::finalize), so the index is allocated once.
  if (port >= queue_of_port_.size()) {
    queue_of_port_.resize(std::max<std::size_t>(port + 1, plan_.ports().size()),
                          kNotHosted);
  }
  const auto index = static_cast<std::uint32_t>(queues_.size());
  queue_of_port_[port] = index;
  queues_.push_back(PortQueue{port, cfg.vnet, cfg.owner, {}, 0, 0, {}});
  bind_port_metrics(queues_.back());
  if (cfg.vnet >= lanes_.size()) {
    lanes_.resize(std::max<std::size_t>(cfg.vnet + 1, plan_.vnets().size()));
  }
  lanes_[cfg.vnet].queues.push_back(index);
}

bool Multiplexer::send(Message msg, tta::RoundId round) {
  assert(find(msg.port) != nullptr && "send on a port not hosted here");
  PortQueue& pq = queues_[queue_of_port_[msg.port]];
  Lane& lane = lanes_[pq.vnet];
  const VnetConfig& vn = plan_.vnet(pq.vnet);

  msg.vnet = pq.vnet;
  msg.sender = pq.owner;
  msg.sent_round = round;

  if (vn.kind == VnetKind::kTimeTriggered) {
    // State semantics: the port is a single-value register; a newer value
    // overwrites an unsent older one. Never overflows.
    msg.seq = pq.next_seq++;
    if (!pq.queue.empty()) {
      pq.queue.back() = msg;
    } else {
      pq.queue.push_back(msg);
      ++lane.queued;
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
  ++lane.queued;
  if (static_cast<double>(pq.queue.size()) > queue_occupancy_metric_.value()) {
    queue_occupancy_metric_.set(static_cast<double>(pq.queue.size()));
  }
  return true;
}

void Multiplexer::drain_messages(tta::RoundId round,
                                 std::vector<Message>& out) {
  out.clear();
  for (std::size_t vnet_id = 0; vnet_id < lanes_.size(); ++vnet_id) {
    Lane& lane = lanes_[vnet_id];
    if (lane.queued == 0) continue;
    std::uint16_t budget =
        plan_.vnet(static_cast<platform::VnetId>(vnet_id))
            .msgs_per_round_per_node;
    // Round-robin across the vnet's hosted ports until the budget is used
    // or the lane is empty.
    while (budget > 0 && lane.queued > 0) {
      for (const std::uint32_t index : lane.queues) {
        if (budget == 0 || lane.queued == 0) break;
        PortQueue& pq = queues_[index];
        if (pq.queue.empty()) continue;
        Message msg = pq.queue.front();
        pq.queue.pop_front();
        --lane.queued;
        --budget;
        if (drain_filter && !drain_filter(msg, round)) continue;  // injected loss
        out.push_back(std::move(msg));
      }
    }
  }
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
  const PortQueue* pq = find(port);
  return pq == nullptr ? 0 : pq->overflows;
}

std::size_t Multiplexer::queue_length(platform::PortId port) const {
  const PortQueue* pq = find(port);
  return pq == nullptr ? 0 : pq->queue.size();
}

}  // namespace decos::vnet
