#include "tta/bus.hpp"

#include <algorithm>
#include <cmath>

namespace decos::tta {
namespace {

/// Guardian tolerance around the sender's *send instant* (accounts for
/// sync precision). Transmissions outside send_instant±tolerance are
/// blocked. The window is anchored at the send instant rather than the
/// slot boundaries: a slot-boundary window lets a babble accepted in the
/// trailing tolerance leak into the *next* slot and mask its rightful
/// owner — misattributing the fault.
constexpr sim::Duration kGuardianTolerance = sim::microseconds(30);
/// FramePool slots the bus considers healthy; demand beyond it still
/// delivers but counts as a fallback acquire (see FramePool).
constexpr std::size_t kFramePoolSoftCap = 64;

}  // namespace

Bus::Bus(sim::Simulator& sim, TdmaSchedule schedule, Params params)
    : sim_(sim),
      schedule_(std::move(schedule)),
      params_(params),
      pool_(FramePool::create(kFramePoolSoftCap)),
      frames_sent_metric_(sim.metrics().counter("tta.bus.frames_sent")),
      frames_blocked_metric_(sim.metrics().counter("tta.bus.frames_blocked")),
      copies_dropped_metric_(
          sim.metrics().counter("tta.bus.copies_dropped_by_channel_fault")) {}

void Bus::attach(BusReceiver& receiver) { receivers_.push_back(&receiver); }

bool Bus::transmit(NodeId sender, FrameHandle master) {
  const sim::SimTime now = sim_.now();

  if (params_.guardian_enabled) {
    // Cold start: after a long bus silence the guardian has no usable
    // schedule anchor. Like a TTP star coupler it adopts the first
    // transmission as the new time-base anchor (assuming the sender
    // transmits at its nominal send instant) and polices everything after
    // that against it.
    if ((now - last_accepted_) > schedule_.round_length() * 4) {
      const SlotId own_slot0 = schedule_.slot_of(sender);
      const RoundId r0 = schedule_.round_at(now);
      guardian_offset_ns_ = static_cast<double>(
          (now - schedule_.send_instant(r0, own_slot0)).ns());
    }
    // Judge the transmission on the guardian's tracked cluster time base
    // (see guardian_offset_ns_), not raw reference time.
    const sim::SimTime adjusted =
        now - sim::Duration{static_cast<std::int64_t>(guardian_offset_ns_)};
    const SlotId own_slot = schedule_.slot_of(sender);
    // Candidate send instants in the rounds adjacent to `adjusted` (the
    // window may straddle a round boundary).
    const RoundId round = schedule_.round_at(adjusted);
    bool inside = false;
    RoundId matched_round = round;
    for (RoundId r : {round > 0 ? round - 1 : round, round, round + 1}) {
      const sim::SimTime nominal = schedule_.send_instant(r, own_slot);
      if (adjusted >= nominal - kGuardianTolerance &&
          adjusted <= nominal + kGuardianTolerance) {
        inside = true;
        matched_round = r;
        break;
      }
    }
    if (!inside) {
      ++frames_blocked_;
      frames_blocked_metric_.inc();
      if (on_blocked) on_blocked(sender, now);
      return false;
    }
    // Track the cluster's common-mode drift from accepted traffic.
    // Only transmissions within the guardian tolerance of their *nominal
    // send instant* feed the estimator: synchronised traffic is
    // microseconds-tight there, while an in-slot babble lands anywhere in
    // the slot — letting it vote would let a babbling node poison the
    // estimate and lock out legitimate senders.
    const double dev = static_cast<double>(
        (adjusted - schedule_.send_instant(matched_round, own_slot)).ns());
    guardian_offset_ns_ += 0.1 * dev;
  }

  ++frames_sent_;
  frames_sent_metric_.inc();
  last_accepted_ = now;

  // One pooled master, shared by every receiver. Sender-side hooks mutate
  // it before it is shared, so all receivers see the same internally-
  // corrupted bytes; mutate() resets the verdict recorded at seal.
  if (!tx_hooks_.empty()) {
    if (!master.unique()) master = pool_->acquire_copy(master);
    Frame& m = master.mutate();
    for (auto& [id, hook] : tx_hooks_) hook(m, sender, now);
  }

  const std::uint32_t bi = acquire_batch();
  Batch& batch = *batches_[bi];
  for (BusReceiver* rx : receivers_) {
    if (rx->node_id() == sender) continue;  // no self-reception
    // Channel faults stay receiver-local: the delivery reads the shared
    // master until a hook corrupts it, at which point it privatizes into
    // its own pool slot (copy-on-corrupt).
    Delivery d(*pool_, master);
    bool deliver = true;
    for (auto& [id, hook] : fault_hooks_) {
      if (!hook(d, rx->node_id(), now)) {
        deliver = false;
        break;
      }
    }
    if (!deliver) {
      copies_dropped_metric_.inc();
      continue;
    }
    batch.deliveries.emplace_back(rx, d.privatized() ? d.take() : FrameHandle{});
  }
  if (batch.deliveries.empty()) {
    free_batches_.push_back(bi);
    return true;
  }
  batch.master = std::move(master);
  batch.arrival = now + params_.propagation_delay;
  sim_.schedule_at(batch.arrival, [this, bi] { deliver(bi); },
                   sim::EventPriority::kTransport);
  return true;
}

std::uint32_t Bus::acquire_batch() {
  if (!free_batches_.empty()) {
    const std::uint32_t bi = free_batches_.back();
    free_batches_.pop_back();
    return bi;
  }
  auto batch = std::make_unique<Batch>();
  batch->deliveries.reserve(receivers_.size());
  batches_.push_back(std::move(batch));
  // Every batch can be free at once; growing here keeps release
  // allocation-free.
  free_batches_.reserve(batches_.size());
  return static_cast<std::uint32_t>(batches_.size() - 1);
}

void Bus::deliver(std::uint32_t bi) {
  Batch& batch = *batches_[bi];
  for (const auto& [rx, own] : batch.deliveries) {
    rx->on_frame(own ? own : batch.master, batch.arrival);
  }
  batch.deliveries.clear();
  batch.master.reset();
  free_batches_.push_back(bi);
}

std::uint64_t Bus::add_channel_fault(ChannelFaultHook hook) {
  const std::uint64_t id = next_hook_id_++;
  fault_hooks_.emplace_back(id, std::move(hook));
  return id;
}

void Bus::remove_channel_fault(std::uint64_t id) {
  std::erase_if(fault_hooks_, [id](const auto& p) { return p.first == id; });
}

std::uint64_t Bus::add_tx_fault(TxFaultHook hook) {
  const std::uint64_t id = next_hook_id_++;
  tx_hooks_.emplace_back(id, std::move(hook));
  return id;
}

void Bus::remove_tx_fault(std::uint64_t id) {
  std::erase_if(tx_hooks_, [id](const auto& p) { return p.first == id; });
}

}  // namespace decos::tta
