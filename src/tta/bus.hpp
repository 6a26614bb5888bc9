// Broadcast channel with central bus guardians (core service C3: strong
// fault isolation).
//
// The bus delivers a sealed frame to every attached receiver after a fixed
// propagation delay. A per-node guardian window polices the static TDMA
// schedule: a transmission attempted outside the sender's slot (babbling
// idiot) is cut off at the guardian and never reaches the channel — the
// property the paper's error-containment argument (Fig. 10) builds on.
//
// Channel fault hooks model external disturbances (EMI bursts, SEU-induced
// bit flips near specific receivers): each hook may corrupt or drop the
// delivery destined for one receiver, which is exactly how a spatially
// correlated "massive transient" (Fig. 8) shows up in a real cluster.
//
// Deliveries ride on the ref-counted FramePool: one pooled master frame is
// shared by every receiver and cloned only at the instant a hook actually
// corrupts a delivery (copy-on-corrupt), so the fault-free broadcast path
// allocates and copies nothing per receiver (E22). The sender seals the
// master in its pool slot, so a fault-free broadcast is never CRC-checked
// on the receive side; receivers keep the handle rather than a copy.
//
// A broadcast is one kernel event, not one per receiver: transmit() runs
// the channel hooks, records every surviving delivery (receiver plus its
// privatised handle, if a hook corrupted it) in a bus-owned batch, and
// schedules a single event that hands the frame to the receivers in
// attach order. That is exactly the order one event per receiver would
// give: such events would share one (arrival, kTransport) key with
// consecutive sequence numbers, and nothing an on_frame schedules can run
// between them unless it is at that instant with a priority ahead of
// kTransport, which no code uses. Batches recycle through a free list
// (several can be in flight under a tx_delay fault), so the steady state
// allocates nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "tta/frame.hpp"
#include "tta/frame_pool.hpp"
#include "tta/tdma.hpp"
#include "tta/types.hpp"

namespace decos::tta {

/// Receiving side of a node, as seen by the bus.
class BusReceiver {
 public:
  virtual ~BusReceiver() = default;
  /// Delivery of a pooled frame (possibly corrupted by the channel). A
  /// receiver may retain a copy of the handle past the call; holding it
  /// pins the pool slot, so release it once the frame has been judged.
  /// `frame.crc_ok()` is verified once per slot and cached for the rest.
  virtual void on_frame(const FrameHandle& frame, sim::SimTime arrival) = 0;
  [[nodiscard]] virtual NodeId node_id() const = 0;
};

/// One receiver's view of an in-flight frame. Reading is free (the pooled
/// master frame is shared, and only referenced: `shared` must outlive the
/// Delivery); `corrupt()` privatizes the delivery into its own pool slot
/// on first call, so other receivers keep seeing pristine bytes while this
/// one's copy is mutilated.
class Delivery {
 public:
  Delivery(FramePool& pool, const FrameHandle& shared)
      : pool_(&pool), shared_(&shared) {}

  [[nodiscard]] const Frame& frame() const {
    return privatized_ ? *private_ : **shared_;
  }
  /// Copy-on-corrupt: returns a mutable frame private to this receiver.
  [[nodiscard]] Frame& corrupt() {
    if (!privatized_) {
      private_ = pool_->acquire_copy(*shared_);
      pool_->count_corrupt_copy();
      privatized_ = true;
    }
    return private_.mutate();
  }
  /// True once a hook privatized this delivery.
  [[nodiscard]] bool privatized() const { return privatized_; }
  /// Transfers ownership of the private frame to the caller, or hands out
  /// a reference to the shared one if no hook privatized the delivery.
  [[nodiscard]] FrameHandle take() {
    return privatized_ ? std::move(private_) : *shared_;
  }

 private:
  FramePool* pool_;
  const FrameHandle* shared_;
  FrameHandle private_;
  bool privatized_ = false;
};

/// Per-receiver channel fault. Returns false to drop the delivery
/// entirely; calls `d.corrupt()` to flip bits receiver-locally (CRC then
/// fails at the receiver).
using ChannelFaultHook =
    std::function<bool(Delivery& d, NodeId receiver, sim::SimTime now)>;

/// Sender-side fault applied once to the master frame before it is shared
/// with the receivers — every receiver sees the same mutilated bytes, the
/// signature of a component-internal value fault (wearout BER).
using TxFaultHook =
    std::function<void(Frame& frame, NodeId sender, sim::SimTime now)>;

class Bus {
 public:
  struct Params {
    sim::Duration propagation_delay = sim::microseconds(2);
    /// When false the guardian is disabled (ablation: shows why the core
    /// service is needed).
    bool guardian_enabled = true;
  };

  Bus(sim::Simulator& sim, TdmaSchedule schedule, Params params);

  void attach(BusReceiver& receiver);

  /// Transmission attempt by `sender` starting at the current instant.
  /// Returns false if the guardian blocked it. `frame` is the pooled
  /// master (build it in `frame_pool()->acquire()` and seal it there, or
  /// copy a frame in with `acquire(f)`); every receiver shares it, and
  /// channel faults stay receiver-local via copy-on-corrupt (see Delivery).
  bool transmit(NodeId sender, FrameHandle frame);

  /// Installs a channel fault hook; returns an id for removal.
  std::uint64_t add_channel_fault(ChannelFaultHook hook);
  void remove_channel_fault(std::uint64_t id);

  /// Installs a sender-side fault hook; returns an id for removal.
  std::uint64_t add_tx_fault(TxFaultHook hook);
  void remove_tx_fault(std::uint64_t id);

  [[nodiscard]] const std::shared_ptr<FramePool>& frame_pool() const {
    return pool_;
  }

  [[nodiscard]] const TdmaSchedule& schedule() const { return schedule_; }
  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }
  [[nodiscard]] std::uint64_t frames_blocked() const { return frames_blocked_; }

  /// Fired for every transmission the guardian blocks — the star
  /// coupler's own diagnostic interface. A babbling idiot is *contained*
  /// by the guardian and therefore invisible in the transport verdicts;
  /// the block log is how it stays diagnosable.
  std::function<void(NodeId sender, sim::SimTime when)> on_blocked;

 private:
  /// One broadcast in flight: the shared master and, per surviving
  /// receiver in attach order, its privatised handle (empty = the master).
  struct Batch {
    FrameHandle master;
    sim::SimTime arrival{};
    std::vector<std::pair<BusReceiver*, FrameHandle>> deliveries;
  };

  /// Pops a free batch (or makes one); its delivery list keeps capacity.
  [[nodiscard]] std::uint32_t acquire_batch();
  /// The batch's one kernel event: hands the frame to every receiver,
  /// then releases the handles and recycles the batch.
  void deliver(std::uint32_t batch);

  sim::Simulator& sim_;
  TdmaSchedule schedule_;
  Params params_;
  std::vector<BusReceiver*> receivers_;
  std::shared_ptr<FramePool> pool_;
  /// Stable addresses: a receiver may transmit from on_frame, which can
  /// add a batch while another is being delivered.
  std::vector<std::unique_ptr<Batch>> batches_;
  std::vector<std::uint32_t> free_batches_;
  std::vector<std::pair<std::uint64_t, ChannelFaultHook>> fault_hooks_;
  std::vector<std::pair<std::uint64_t, TxFaultHook>> tx_hooks_;
  std::uint64_t next_hook_id_ = 1;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_blocked_ = 0;
  obs::Counter frames_sent_metric_;
  obs::Counter frames_blocked_metric_;
  obs::Counter copies_dropped_metric_;  // channel-fault hook drops
  /// The guardian's estimate of the cluster's common-mode clock offset
  /// from the reference time base. FTA synchronisation keeps the nodes
  /// mutually aligned but lets the ensemble average walk at the mean
  /// crystal drift; a guardian that policed slots in absolute reference
  /// time would eventually block perfectly synchronised traffic. Like a
  /// real TTP star guardian, ours therefore tracks the observed traffic:
  /// each accepted in-window transmission nudges the estimate toward the
  /// transmission's deviation from the nominal send instant.
  double guardian_offset_ns_ = 0.0;
  /// Instant of the last accepted transmission; long silences re-arm the
  /// cold-start anchoring above.
  sim::SimTime last_accepted_{};
};

}  // namespace decos::tta
