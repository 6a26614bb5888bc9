#include "tta/node.hpp"

#include <cassert>
#include <utility>

namespace decos::tta {
namespace {

/// Rounds without enough sync measurements before the node considers
/// itself desynchronised and stops transmitting.
constexpr std::uint32_t kSyncLossRounds = 8;
/// Rounds of listen-only operation after re-integration before the node
/// transmits again (TTP-style integration via received frames).
constexpr std::uint32_t kReintegrationListenRounds = 4;

}  // namespace

TtaNode::TtaNode(sim::Simulator& sim, Bus& bus, Params params)
    : sim_(sim),
      bus_(bus),
      params_(params),
      clock_(params.drift_ppm),
      rng_(sim.fork_rng("tta.node." + std::to_string(params.id))),
      slots_correct_metric_(
          sim.metrics().counter("tta.slot_verdicts", "verdict=correct")),
      slots_crc_metric_(
          sim.metrics().counter("tta.slot_verdicts", "verdict=crc_error")),
      slots_timing_metric_(
          sim.metrics().counter("tta.slot_verdicts", "verdict=timing_error")),
      slots_omission_metric_(
          sim.metrics().counter("tta.slot_verdicts", "verdict=omission")),
      sync_correction_metric_(
          sim.metrics().histogram("tta.sync_correction_ns")) {
  bus_.attach(*this);
}

void TtaNode::start() {
  assert(!started_);
  started_ = true;
  const auto n = bus_.schedule().params().slots_per_round;
  membership_ = (n >= 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
  next_membership_ = 0;
  schedule_slot(0, 0);
}

void TtaNode::start_cold() {
  assert(!started_);
  started_ = true;
  const auto n = bus_.schedule().params().slots_per_round;
  membership_ = (n >= 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
  next_membership_ = 0;
  in_sync_ = false;  // listening; reintegrate() fires on the first frame

  // Unique listen timeout: 2 + id rounds of silence before this node
  // decides it must anchor the cluster itself.
  const sim::Duration timeout =
      bus_.schedule().round_length() * (2 + static_cast<std::int64_t>(params_.id));
  const std::uint64_t epoch = chain_epoch_;
  sim_.schedule_after(timeout, [this, epoch] {
    if (in_sync_ || epoch != chain_epoch_) return;  // integrated meanwhile
    // Anchor: declare "my slot of round 0 starts now" on the local clock.
    const sim::SimTime local_anchor =
        bus_.schedule().slot_start(0, bus_.schedule().slot_of(params_.id));
    clock_.adjust(local_anchor - clock_.local_time(sim_.now()));
    in_sync_ = true;
    listen_rounds_left_ = 0;
    round_ = 0;
    ++chain_epoch_;
    schedule_slot(0, bus_.schedule().slot_of(params_.id));
  });
}

void TtaNode::restart() {
  // Re-integration: snap the local clock onto the reference base (in a real
  // cluster: onto the global time observed from correct frames) and resume.
  clock_.adjust(sim::Duration{-clock_.offset(sim_.now()).ns()});
  // Abandon whatever was in flight — a running slot chain, a cold-start
  // listen timeout, a previous restart's chain — and open exactly one
  // fresh chain at the next round boundary of the reference schedule.
  // Without this, a restart during cold-start listening left the node
  // wedged (in_sync_ set but no chain scheduled), and a double restart
  // could race two chains.
  ++chain_epoch_;
  pending_.frame.reset();
  in_sync_ = true;
  rounds_without_sync_ = 0;
  listen_rounds_left_ = 0;
  next_membership_ = 0;
  round_ = bus_.schedule().round_at(sim_.now()) + 1;
  schedule_slot(round_, 0);
}

void TtaNode::schedule_slot(RoundId round, SlotId slot) {
  const auto& sched = bus_.schedule();
  const std::uint64_t epoch = chain_epoch_;

  // Transmission in our own slot, planned on the local clock.
  if (sched.slot_owner(slot) == params_.id) {
    const sim::SimTime local_send = sched.send_instant(round, slot);
    sim::SimTime ref_send = clock_.ref_time_for_local(local_send);
    if (ref_send < sim_.now()) ref_send = sim_.now();
    sim_.schedule_at(ref_send,
                     [this, round, epoch] {
                       if (epoch == chain_epoch_) do_transmit(round);
                     },
                     sim::EventPriority::kApplication);
  }

  // Slot close (judgement) at the local end-of-slot instant.
  const sim::SimTime local_end =
      sched.slot_start(round, slot) + sched.params().slot_length;
  sim::SimTime ref_end = clock_.ref_time_for_local(local_end);
  if (ref_end < sim_.now()) ref_end = sim_.now();
  sim_.schedule_at(ref_end,
                   [this, round, slot, epoch] {
                     if (epoch == chain_epoch_) close_slot(round, slot);
                   },
                   sim::EventPriority::kDiagnosis);
}

void TtaNode::do_transmit(RoundId round) {
  if (faults_.fail_silent || !in_sync_ || listen_rounds_left_ > 0) return;
  if (faults_.tx_omission_prob > 0.0 && rng_.bernoulli(faults_.tx_omission_prob)) {
    return;
  }

  // Build and seal the frame in its pool slot: the seal records the CRC
  // verdict, and the slot's payload keeps its capacity across rounds, so a
  // steady-state transmission neither allocates nor gets CRC-checked again
  // by its receivers.
  FrameHandle sealed = bus_.frame_pool()->acquire();
  Frame& frame = sealed.mutate();
  frame.sender = params_.id;
  frame.slot = bus_.schedule().slot_of(params_.id);
  frame.round = round;
  frame.membership = membership_;
  if (payload_provider) {
    payload_provider(round, frame.payload);
  } else {
    frame.payload.push_back(static_cast<std::uint8_t>(round & 0xFF));
    frame.payload.push_back(static_cast<std::uint8_t>((round >> 8) & 0xFF));
    frame.payload.push_back(static_cast<std::uint8_t>((round >> 16) & 0xFF));
    frame.payload.push_back(static_cast<std::uint8_t>((round >> 24) & 0xFF));
  }
  sealed.seal();

  if (faults_.tx_corrupt_prob > 0.0 && rng_.bernoulli(faults_.tx_corrupt_prob) &&
      !sealed->payload.empty()) {
    const auto idx = static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(sealed->payload.size()) - 1));
    // Value fault: the CRC no longer matches (mutate() drops the verdict).
    sealed.mutate().payload[idx] ^= 0xA5;
  }

  if (faults_.tx_delay.ns() > 0) {
    // Timing fault: the delayed transmission carries the sealed slot.
    sim_.schedule_after(faults_.tx_delay,
                        [this, h = std::move(sealed)]() mutable {
                          bus_.transmit(params_.id, std::move(h));
                        },
                        sim::EventPriority::kApplication);
  } else {
    bus_.transmit(params_.id, std::move(sealed));
  }
}

bool TtaNode::attempt_transmit_now() {
  Frame frame;
  frame.sender = params_.id;
  frame.slot = bus_.schedule().slot_of(params_.id);
  frame.round = round_;
  frame.membership = membership_;
  frame.payload = {0xBA, 0xBB, 0x1E};
  frame.seal();
  return bus_.transmit(params_.id, bus_.frame_pool()->acquire(frame));
}

void TtaNode::on_frame(const FrameHandle& handle, sim::SimTime arrival) {
  if (faults_.rx_drop_prob > 0.0 && rng_.bernoulli(faults_.rx_drop_prob)) return;

  ++frames_heard_this_round_;

  const Frame& frame = *handle;
  // A desynchronised node integrates on the first valid frame it hears.
  if (!in_sync_ && handle.crc_ok()) {
    reintegrate(frame, arrival);
    return;
  }

  // Receiver-stage corruption. The draws happen before we know whether
  // the frame will be kept ("first wins" below) so the stream consumed
  // per arrival is fixed — restructuring the storage must not shift the
  // sequence other fault draws see.
  bool rx_corrupt = false;
  std::size_t rx_corrupt_idx = 0;
  if (faults_.rx_corrupt_prob > 0.0 && rng_.bernoulli(faults_.rx_corrupt_prob) &&
      !frame.payload.empty()) {
    rx_corrupt = true;
    rx_corrupt_idx = static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(frame.payload.size()) - 1));
  }

  // Judge arrival on the local clock against the static schedule.
  const auto& sched = bus_.schedule();
  const sim::SimTime local_arrival = clock_.local_time(arrival);
  const sim::SimTime expected = sched.send_instant(frame.round, frame.slot) +
                                bus_.params().propagation_delay;
  const sim::Duration offset = local_arrival - expected;
  const bool timely = offset.ns() >= -sched.params().receive_window.ns() &&
                      offset.ns() <= sched.params().receive_window.ns();

  // Keep the first frame of the open slot; a second arrival in the same
  // slot would collide on a real bus — modelling "first wins" keeps the
  // judgement deterministic. The pending slot shares the bus's pooled
  // frame; only receiver-stage corruption pays for a private copy.
  if (!pending_.frame) {
    if (rx_corrupt) {
      pending_.frame = bus_.frame_pool()->acquire_copy(handle);
      pending_.frame.mutate().payload[rx_corrupt_idx] ^= 0x5A;
    } else {
      pending_.frame = handle;
    }
    pending_.arrival_offset = offset;
    pending_.timely = timely;
  }
}

void TtaNode::close_slot(RoundId round, SlotId slot) {
  const auto& sched = bus_.schedule();
  const NodeId owner = sched.slot_owner(slot);

  if (owner == params_.id) {
    // Own slot: believe in ourselves if we were able to transmit.
    if (!faults_.fail_silent && in_sync_ && listen_rounds_left_ == 0) {
      next_membership_ |= std::uint64_t{1} << params_.id;
    }
    pending_.frame.reset();
  } else {
    SlotObservation obs;
    obs.observer = params_.id;
    obs.sender = owner;
    obs.slot = slot;
    obs.round = round;

    if (!pending_.frame) {
      obs.verdict = SlotVerdict::kOmission;
      slots_omission_metric_.inc();
    } else {
      const Pending& p = pending_;
      obs.arrival_offset = p.arrival_offset;
      const Frame& f = *p.frame;
      const bool slot_matches =
          f.sender == owner && f.slot == slot && f.round == round;
      if (!p.timely || !slot_matches) {
        obs.verdict = SlotVerdict::kTimingError;
        slots_timing_metric_.inc();
      } else if (!p.frame.crc_ok()) {
        obs.verdict = SlotVerdict::kCrcError;
        slots_crc_metric_.inc();
      } else {
        obs.verdict = SlotVerdict::kCorrect;
        slots_correct_metric_.inc();
        sync_.record(owner, p.arrival_offset);
        next_membership_ |= std::uint64_t{1} << owner;
        if (delivery_handler) delivery_handler(owner, f.payload, round);
      }
    }
    if (observation_sink) observation_sink(obs);
    pending_.frame.reset();
  }

  const std::uint32_t slots = sched.params().slots_per_round;
  if (slot + 1 < slots) {
    schedule_slot(round, slot + 1);
  } else {
    finish_round(round);
    schedule_slot(round + 1, 0);
  }
}

void TtaNode::finish_round(RoundId round) {
  // A node's own clock participates in the fault-tolerant average with a
  // deviation of zero (it is its own reference). Without the self term a
  // cluster of four could not survive a single fail-silent node: the three
  // survivors would see only two peers, below the 2k+1 quorum, and sync
  // loss would cascade through the whole cluster.
  sync_.record(params_.id, sim::Duration{0});
  const std::size_t measurements = sync_.measurements_this_round();
  const sim::Duration correction = sync_.finish_round();
  sync_correction_metric_.record(
      correction.ns() < 0 ? -correction.ns() : correction.ns());
  clock_.adjust(sim::Duration{-correction.ns()});

  // Sync loss needs positive evidence of being out of step: frames were
  // heard but could not be used as timely measurements. Total silence is
  // no such evidence — a node that is (or believes it is) alone on the bus
  // keeps free-running on its own clock, as a TTP controller does after a
  // lone cold start.
  const std::size_t needed = 2 * sync_.params().k + 1;
  if (measurements < needed && frames_heard_this_round_ > 0) {
    if (++rounds_without_sync_ >= kSyncLossRounds && in_sync_) {
      in_sync_ = false;
    }
  } else if (measurements >= needed) {
    rounds_without_sync_ = 0;
  }
  frames_heard_this_round_ = 0;

  membership_ = next_membership_;
  next_membership_ = 0;
  round_ = round + 1;
  if (listen_rounds_left_ > 0) --listen_rounds_left_;
  if (membership_handler) membership_handler(round, membership_);
}

void TtaNode::reintegrate(const Frame& frame, sim::SimTime arrival) {
  const auto& sched = bus_.schedule();
  // Snap the local clock so that the frame's arrival reads as exactly its
  // scheduled instant on the sender's (= cluster's) time base.
  const sim::SimTime expected_local =
      sched.send_instant(frame.round, frame.slot) +
      bus_.params().propagation_delay;
  const sim::SimTime actual_local = clock_.local_time(arrival);
  clock_.adjust(expected_local - actual_local);

  // Abandon the drifted slot chain and restart it at the next boundary of
  // the cluster's schedule, listen-only for a few rounds.
  ++chain_epoch_;
  pending_.frame.reset();
  in_sync_ = true;
  rounds_without_sync_ = 0;
  listen_rounds_left_ = kReintegrationListenRounds;
  round_ = frame.round;

  const std::uint32_t slots = sched.params().slots_per_round;
  SlotId next_slot = frame.slot + 1;
  RoundId next_round = frame.round;
  if (next_slot >= slots) {
    next_slot = 0;
    ++next_round;
  }
  schedule_slot(next_round, next_slot);
}

}  // namespace decos::tta
