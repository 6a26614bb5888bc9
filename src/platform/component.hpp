// The DECOS component (Fig. 2) — the paper's FCR/FRU for hardware faults.
//
// A component couples one TTA communication controller (the node) with an
// application layer hosting jobs of several DASs in separate partitions.
// The component implements the encapsulation glue: at its TDMA send
// instant it dispatches the jobs scheduled this round, drains their port
// queues through the multiplexer under the vnets' bandwidth budgets, packs
// the result into the frame, and loops drained messages back to local
// subscribers; on frame arrival it routes records to hosted receiver jobs.
// Arrival decodes only the records on ports with a hosted receiver (a mask
// precomputed in bind()), so a receiver's per-frame work follows what it
// hosts, not the frame size — unless a delivery_mutator is installed, which
// sees every arriving record (see below).
//
// Because every hosted job shares this node's physical resources, a
// component-internal hardware fault disturbs *all* of them at once — the
// correlation signature Fig. 10's judgement relies on.
#pragma once

#include <functional>
#include <map>
#include <span>
#include <vector>

#include "platform/job.hpp"
#include "platform/types.hpp"
#include "sim/simulator.hpp"
#include "tta/node.hpp"
#include "vnet/multiplexer.hpp"
#include "vnet/network_plan.hpp"

namespace decos::platform {

class Component {
 public:
  Component(sim::Simulator& sim, tta::TtaNode& node,
            const vnet::NetworkPlan& plan);

  /// Registers a job as hosted here (its partition). Jobs dispatch in
  /// ascending JobId order within a round.
  void host(Job& job);

  /// Declares an output port whose owner job runs here.
  void host_port(PortId port);

  /// Installs the node callbacks. Call once after all hosting is done.
  void bind();

  [[nodiscard]] ComponentId id() const { return node_.node_id(); }
  [[nodiscard]] tta::TtaNode& node() { return node_; }
  [[nodiscard]] vnet::Multiplexer& mux() { return mux_; }
  [[nodiscard]] const std::map<JobId, Job*>& hosted_jobs() const {
    return jobs_;
  }

  /// Sender-side LIF observation hook: every message this component put
  /// on the (virtual) wire this round. The local diagnostic agent
  /// subscribes here.
  std::function<void(const vnet::Message&, tta::RoundId)> on_message_sent;

  /// Model-based application assertions raised by hosted jobs
  /// (JobContext::report_transducer_anomaly). The local diagnostic agent
  /// subscribes here.
  std::function<void(JobId, double, tta::RoundId)> on_transducer_anomaly;

  /// Last-hop delivery gate: when set, a message reaches a hosted
  /// receiver job only if the filter returns true. Null (the default)
  /// delivers everything. Scenario-level fault instrumentation installs
  /// per-receiver drops here; the platform layer itself stays fault-model
  /// agnostic.
  std::function<bool(const vnet::Message&, JobId receiver)> delivery_filter;

  /// Value-domain corruption of the record as stored in this component's
  /// memory (SEU in a port buffer): when set, every locally delivered
  /// message passes through the mutator before reaching the hosted
  /// receiver jobs — all of them read the same corrupted store. The
  /// component's memory holds every arriving record, so while a mutator
  /// is installed arrivals are decoded in full and the mutator runs once
  /// per arriving record, hosted receiver or not. Null (the default) costs
  /// one branch.
  std::function<void(vnet::Message&)> delivery_mutator;

  /// Records decoded from the frames this component's node delivered:
  /// only records on ports with a hosted receiver, or all of them while a
  /// delivery_mutator is set.
  [[nodiscard]] std::uint64_t records_decoded() const {
    return records_decoded_;
  }

 private:
  void build_payload(tta::RoundId round, std::vector<std::uint8_t>& out);
  void route_local(const vnet::Message& msg);

  sim::Simulator& sim_;
  tta::TtaNode& node_;
  const vnet::NetworkPlan& plan_;
  vnet::Multiplexer mux_;
  std::map<JobId, Job*> jobs_;  // ordered: deterministic dispatch order
  /// The *hosted* receiver jobs of every port, precomputed in bind() as
  /// one CSR table: port p's receivers are
  /// receivers_[receiver_offsets_[p] .. receiver_offsets_[p + 1]). The
  /// delivery hot path walks exactly the jobs it will deliver to, and a
  /// port with no receiver here costs one offset, not an empty vector.
  std::vector<std::uint32_t> receiver_offsets_;
  std::vector<Job*> receivers_;
  [[nodiscard]] std::span<Job* const> local_receivers(PortId port) const;
  /// Per port: 1 if it has a receiver hosted here. The arrival decode
  /// mask (vnet::unpack_into).
  std::vector<std::uint8_t> hosted_port_mask_;
  std::uint64_t records_decoded_ = 0;
  /// Round-scratch buffers: cleared every use, capacity kept, so the
  /// steady-state TDMA round allocates nothing on this component.
  std::vector<vnet::Message> drain_scratch_;
  std::vector<vnet::Message> arrival_scratch_;
};

}  // namespace decos::platform
