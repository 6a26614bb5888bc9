// Per-component encapsulation service.
//
// Owns the output queues of every port hosted on one component, packs them
// into the node's TDMA payload under each vnet's bandwidth budget, and
// unpacks arriving payloads. Queue overflow — offered load exceeding the
// configured queue depth or budget — is precisely the manifestation of the
// paper's *job borderline (configuration) fault*, so overflows are counted
// per port and reported through a callback the diagnostic agent hooks.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/ring.hpp"
#include "vnet/message.hpp"
#include "vnet/network_plan.hpp"

namespace decos::vnet {

class Multiplexer {
 public:
  Multiplexer(const NetworkPlan& plan, platform::ComponentId component);

  /// Declares that the owning job of `port` runs on this component.
  void host_port(platform::PortId port);

  /// Job-side send. Returns false (and counts an overflow) if the port's
  /// queue is at its configured depth.
  bool send(Message msg, tta::RoundId round);

  /// Drains hosted queues for `round` into `out` (cleared first, capacity
  /// kept — a caller-owned scratch buffer makes the steady-state round
  /// allocation-free): oldest first, round-robin across ports within each
  /// vnet, up to the vnet's per-round budget. Messages beyond the budget
  /// stay queued (and will overflow eventually if the load persists). The
  /// caller packs the result into the frame payload and performs local
  /// loopback delivery.
  void drain_messages(tta::RoundId round, std::vector<Message>& out);

  /// Value-returning convenience over the buffer-filling overload.
  [[nodiscard]] std::vector<Message> drain_messages(tta::RoundId round);

  /// Fault-injection hook applied to each drained message before it is
  /// handed to the frame: return false to drop the message, or mutate it
  /// in place to corrupt it. Models channel faults *between* the port
  /// queue and the wire (the message already consumed its sequence
  /// number, so receivers see an honest gap).
  std::function<bool(Message&, tta::RoundId)> drain_filter;

  /// Unpacks an arriving payload into `out` (cleared first, capacity
  /// kept). Malformed payloads yield an empty list. `port_mask` restricts
  /// decoding to the selected ports (see unpack_into; empty = all).
  void unpack_arrival(std::span<const std::uint8_t> payload,
                      std::vector<Message>& out,
                      std::span<const std::uint8_t> port_mask = {}) const;

  /// Value-returning convenience over the buffer-filling overload.
  [[nodiscard]] std::vector<Message> unpack_arrival(
      std::span<const std::uint8_t> payload) const;

  [[nodiscard]] std::uint64_t overflows(platform::PortId port) const;
  [[nodiscard]] std::uint64_t total_overflows() const { return total_overflows_; }
  [[nodiscard]] std::size_t queue_length(platform::PortId port) const;

  /// Binds the mux to a metrics registry (messages relayed/overflowed and
  /// the queue-occupancy high-water mark, aggregated cluster-wide).
  /// Unbound instrumentation writes to the obs sink cells, so this is
  /// optional; platform::Component binds to its simulator's registry.
  void bind_metrics(obs::Registry& registry);

  /// Called on every overflow drop: (port, vnet, round). The vnet id lets
  /// the handler separate diagnostic-port drops from application-port
  /// drops without a plan lookup.
  std::function<void(platform::PortId, platform::VnetId, tta::RoundId)>
      on_overflow;

 private:
  const NetworkPlan& plan_;
  platform::ComponentId component_;
  struct PortQueue {
    platform::PortId id;
    /// The port's vnet and owner, fixed by the plan when hosted.
    platform::VnetId vnet;
    platform::JobId owner;
    /// Ring, not deque: the steady send/drain cycle must not trickle
    /// block allocations (see sim/ring.hpp).
    sim::Ring<Message> queue;
    std::uint64_t overflows = 0;
    std::uint32_t next_seq = 0;
    /// Per-port labelled overflow counter ("port=<vnet>/<port>"), so obs
    /// snapshots tell diagnostic-port drops from application-port drops.
    obs::Counter overflow_labeled;
  };
  /// Hosted port queues, in hosting order.
  std::vector<PortQueue> queues_;
  static constexpr std::uint32_t kNotHosted =
      std::numeric_limits<std::uint32_t>::max();
  /// Index into queues_ per PortId, kNotHosted for ports hosted
  /// elsewhere; covers every port the plan held when one was hosted.
  std::vector<std::uint32_t> queue_of_port_;
  /// One lane per VnetId: its hosted queues in hosting order (the
  /// round-robin order) and the messages queued on them, so a drain skips
  /// an idle vnet at once and ends a pass when the lane runs dry.
  struct Lane {
    std::vector<std::uint32_t> queues;
    std::size_t queued = 0;
  };
  std::vector<Lane> lanes_;
  [[nodiscard]] const PortQueue* find(platform::PortId port) const;
  std::uint64_t total_overflows_ = 0;
  obs::Registry* registry_ = nullptr;
  obs::Counter relayed_metric_;
  obs::Counter overflow_metric_;
  obs::Gauge queue_occupancy_metric_;

  void bind_port_metrics(PortQueue& pq);
};

}  // namespace decos::vnet
