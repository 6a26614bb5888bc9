// A TTA node: the communication controller of one DECOS component.
//
// The node runs the static TDMA schedule on its *local* clock: it
// transmits in its own slot, judges every other slot (correct / CRC error
// / timing error / omission), feeds timely arrivals into the FTA clock
// sync, and maintains the membership vector (core service C4: consistent
// diagnosis of failing nodes). The platform layer hooks the payload
// provider / delivery handler; the diagnostic layer hooks the observation
// sink — observations are the raw symptoms of the maintenance-oriented
// fault model.
//
// Fault injection talks to the node only through FaultControls and the
// local clock, mirroring the paper's position that faults manifest at the
// component's linking interface.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "tta/bus.hpp"
#include "tta/clock.hpp"
#include "tta/clock_sync.hpp"
#include "tta/frame.hpp"
#include "tta/tdma.hpp"

namespace decos::tta {

/// Knobs the fault-injection layer manipulates. All default to "healthy".
struct FaultControls {
  /// Node transmits nothing (crash / fail-silence). Reception continues so
  /// a restarted node can re-integrate.
  bool fail_silent = false;
  /// Probability that an individual transmission is skipped (loose
  /// contact, marginal driver stage).
  double tx_omission_prob = 0.0;
  /// Probability that the sealed payload is corrupted before it leaves the
  /// node (internal value fault; receivers see a CRC error).
  double tx_corrupt_prob = 0.0;
  /// Fixed extra delay added to every transmission (timing fault).
  sim::Duration tx_delay{};
  /// Probability that an *incoming* frame copy is corrupted inside this
  /// node's receiver stage (connector fault on this node's harness: only
  /// this node sees errors — the paper's borderline-fault signature).
  double rx_corrupt_prob = 0.0;
  /// Probability that an incoming frame is lost in this node's receiver.
  double rx_drop_prob = 0.0;
};

class TtaNode final : public BusReceiver {
 public:
  struct Params {
    NodeId id = 0;
    /// Crystal drift in ppm (sampled by the scenario builder).
    double drift_ppm = 0.0;
  };

  TtaNode(sim::Simulator& sim, Bus& bus, Params params);

  // BusReceiver
  void on_frame(const FrameHandle& frame, sim::SimTime arrival) override;
  [[nodiscard]] NodeId node_id() const override { return params_.id; }

  /// Begins executing the schedule immediately, assumed synchronised
  /// (all nodes powered on together at t = 0).
  void start();

  /// Cold start: the node powers on unsynchronised and listens. If a
  /// valid frame arrives it integrates onto the running cluster
  /// (reintegrate()); if nothing is heard for its id-unique listen
  /// timeout, it anchors the time base itself and sends the first frame —
  /// the TTP cold-start race, made deterministic by the unique timeouts.
  void start_cold();

  /// Restart with state synchronisation: clears fault-free operational
  /// state, snaps the local clock onto the reference time base (modelling
  /// re-integration from the observed global time) and resumes
  /// transmission. This is the maintenance action for external faults.
  void restart();

  /// Out-of-schedule transmission attempt (used to model a babbling
  /// component; the guardian should block it). Returns guardian verdict.
  bool attempt_transmit_now();

  FaultControls& faults() { return faults_; }
  LocalClock& clock() { return clock_; }
  [[nodiscard]] const LocalClock& clock() const { return clock_; }

  /// Membership this node currently believes (bit i = node i alive).
  [[nodiscard]] std::uint64_t membership() const { return membership_; }
  [[nodiscard]] bool in_sync() const { return in_sync_; }
  [[nodiscard]] RoundId current_round() const { return round_; }

  // --- hooks -------------------------------------------------------------
  /// Fills `out` with the payload for round `r` (the buffer is cleared by
  /// the node and its capacity reused every round, so a steady-state
  /// transmission allocates nothing). Unset => 4-byte round counter.
  std::function<void(RoundId r, std::vector<std::uint8_t>& out)>
      payload_provider;
  /// Called for every correct frame (after CRC and timing checks).
  std::function<void(NodeId sender, const std::vector<std::uint8_t>& payload,
                     RoundId round)> delivery_handler;
  /// Called for every slot verdict this node produces about another node.
  std::function<void(const SlotObservation&)> observation_sink;
  /// Called at each round boundary with the fresh membership vector.
  std::function<void(RoundId round, std::uint64_t membership)> membership_handler;

 private:
  void schedule_slot(RoundId round, SlotId slot);
  void do_transmit(RoundId round);
  void close_slot(RoundId round, SlotId slot);
  void finish_round(RoundId round);
  /// Re-integration from a valid frame: snap the local clock and round
  /// counter onto the sender's schedule position and restart the slot
  /// chain (listen-only for a few rounds). A node that lost sync heals
  /// itself this way, like a TTP controller integrating on i-frames —
  /// without it a single disturbed node could drag the whole cluster into
  /// a sync death spiral.
  void reintegrate(const Frame& frame, sim::SimTime arrival);

  sim::Simulator& sim_;
  Bus& bus_;
  Params params_;
  LocalClock clock_;
  FtaClockSync sync_;
  FaultControls faults_{};
  sim::Rng rng_;

  // Cluster-wide aggregates (all nodes of one simulator share the cells).
  obs::Counter slots_correct_metric_;
  obs::Counter slots_crc_metric_;
  obs::Counter slots_timing_metric_;
  obs::Counter slots_omission_metric_;
  /// Absolute per-round FTA correction in ns — the achieved-sync-offset
  /// distribution (core service C2, quantified).
  obs::Histogram sync_correction_metric_;

  RoundId round_ = 0;
  bool started_ = false;
  bool in_sync_ = true;
  std::uint32_t rounds_without_sync_ = 0;
  /// Invalidates stale slot-chain closures after re-integration restarts
  /// the chain.
  std::uint64_t chain_epoch_ = 0;
  /// Listen-only countdown after re-integration.
  std::uint32_t listen_rounds_left_ = 0;
  /// Frames received since the last round boundary (sync-loss evidence).
  std::uint32_t frames_heard_this_round_ = 0;
  std::uint64_t membership_ = 0;
  std::uint64_t next_membership_ = 0;

  /// Frame received in the currently open slot, if any (empty handle =
  /// none). It holds the bus's pooled handle, not a copy: every receiver
  /// of a broadcast shares one slot and its cached CRC verdict, and only
  /// receiver-stage corruption privatizes the frame into a slot of its
  /// own. Released when the slot closes or the chain restarts.
  struct Pending {
    FrameHandle frame;
    sim::Duration arrival_offset;
    bool timely = false;
  };
  Pending pending_;
};

}  // namespace decos::tta
