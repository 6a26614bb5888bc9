#include "platform/component.hpp"

#include <cassert>

namespace decos::platform {

Component::Component(sim::Simulator& sim, tta::TtaNode& node,
                     const vnet::NetworkPlan& plan)
    : sim_(sim), node_(node), plan_(plan), mux_(plan, node.node_id()) {
  mux_.bind_metrics(sim_.metrics());
}

void Component::host(Job& job) {
  assert(job.host() == id() && "job host mismatch");
  jobs_.emplace(job.id(), &job);
}

void Component::host_port(PortId port) { mux_.host_port(port); }

void Component::bind() {
  receiver_offsets_.clear();
  receiver_offsets_.reserve(plan_.ports().size() + 1);
  receiver_offsets_.push_back(0);
  receivers_.clear();
  hosted_port_mask_.assign(plan_.ports().size(), 0);
  for (const vnet::PortConfig& pc : plan_.ports()) {
    for (JobId receiver : pc.receivers) {
      auto it = jobs_.find(receiver);
      if (it != jobs_.end()) receivers_.push_back(it->second);
    }
    receiver_offsets_.push_back(static_cast<std::uint32_t>(receivers_.size()));
    hosted_port_mask_[pc.id] =
        receiver_offsets_[pc.id + 1] == receiver_offsets_[pc.id] ? 0 : 1;
  }
  node_.payload_provider = [this](tta::RoundId round,
                                  std::vector<std::uint8_t>& out) {
    build_payload(round, out);
  };
  node_.delivery_handler = [this](tta::NodeId, const std::vector<std::uint8_t>& payload,
                                  tta::RoundId) {
    // Records nobody here receives are skipped undecoded — except under a
    // stored-record mutator, which corrupts every record this memory holds.
    const std::span<const std::uint8_t> mask =
        delivery_mutator ? std::span<const std::uint8_t>{} : hosted_port_mask_;
    mux_.unpack_arrival(payload, arrival_scratch_, mask);
    records_decoded_ += arrival_scratch_.size();
    for (const vnet::Message& m : arrival_scratch_) {
      route_local(m);
    }
  };
}

void Component::build_payload(tta::RoundId round,
                              std::vector<std::uint8_t>& out) {
  // Application layer first: dispatch partitions scheduled this round.
  const sim::SimTime now = sim_.now();
  for (auto& [jid, job] : jobs_) {
    if (!job->scheduled_in(round)) continue;
    job->dispatch(
        round, now,
        [this, round](PortId port, double value, std::uint8_t kind,
                      std::uint32_t aux) {
          vnet::Message msg;
          msg.port = port;
          msg.value = value;
          msg.kind = kind;
          msg.aux = aux;
          return mux_.send(msg, round);
        },
        [this, round, jid = jid](double magnitude) {
          if (on_transducer_anomaly) {
            on_transducer_anomaly(jid, magnitude, round);
          }
        });
  }

  // Then the encapsulation service: drain under the vnet budgets.
  mux_.drain_messages(round, drain_scratch_);
  for (const vnet::Message& m : drain_scratch_) {
    if (on_message_sent) on_message_sent(m, round);
    route_local(m);  // loopback for co-hosted subscribers (no self-reception)
  }
  vnet::pack_into(drain_scratch_, round, out);
}

std::span<Job* const> Component::local_receivers(PortId port) const {
  return {receivers_.data() + receiver_offsets_[port],
          receivers_.data() + receiver_offsets_[port + 1]};
}

void Component::route_local(const vnet::Message& msg) {
  if (msg.port + std::size_t{1} >= receiver_offsets_.size()) return;
  if (delivery_mutator) {
    vnet::Message stored = msg;  // the record as this component holds it
    delivery_mutator(stored);
    for (Job* receiver : local_receivers(msg.port)) {
      if (delivery_filter && !delivery_filter(stored, receiver->id())) continue;
      receiver->deliver(stored);
    }
    return;
  }
  for (Job* receiver : local_receivers(msg.port)) {
    if (delivery_filter && !delivery_filter(msg, receiver->id())) continue;
    receiver->deliver(msg);
  }
}

}  // namespace decos::platform
