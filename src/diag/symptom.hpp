// Symptoms — the atoms of the diagnostic architecture.
//
// "A symptom is a condition on a set of interface state variables of a
// particular component that is monitored to detect deviations from the LIF
// specification" (Section V-A). Per-component diagnostic agents detect
// symptoms locally and disseminate them as messages on the dedicated
// virtual diagnostic network; the diagnostic DAS assembles them into the
// distributed state on which Out-of-Norm Assertions operate.
//
// A symptom names an observer (who saw it), a subject (which FRU it is
// about), a type, a round, and a magnitude. Symptoms are encoded into the
// 28-byte vnet wire record: kind = type, aux = packed subject/detail,
// value = magnitude, sent_round = round of observation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "fault/taxonomy.hpp"
#include "platform/types.hpp"
#include "tta/types.hpp"
#include "vnet/message.hpp"

namespace decos::diag {

enum class SymptomType : std::uint8_t {
  /// Transport-level verdicts about a *remote sender* component.
  kSlotCrcError = 1,
  kSlotTimingError = 2,
  kSlotOmission = 3,
  /// Local vnet layer: output queue overflow on a port (config fault cue).
  kQueueOverflow = 4,
  /// LIF value check: a local job emitted a value outside its port spec.
  kValueOutOfRange = 5,
  /// LIF timing check: a local job missed its specified send period.
  kMessageGap = 6,
  /// The bus guardian blocked an out-of-window transmission attempt of
  /// the subject (star-coupler evidence; a contained babbling idiot).
  kGuardianBlock = 7,
  /// Application-level model-based assertion (Section IV-B.1): the job's
  /// own plausibility model indicts its transducer (e.g. the plant is not
  /// following commands). This is the "job internal information" the
  /// paper says is needed to tell transducer from software faults.
  kTransducerSuspect = 8,
};

[[nodiscard]] const char* to_string(SymptomType t);

struct Symptom {
  SymptomType type = SymptomType::kSlotCrcError;
  /// Component whose agent detected the symptom.
  platform::ComponentId observer = 0;
  /// Component the symptom is about (for transport symptoms: the sender
  /// under judgement; for local symptoms: the observer itself).
  platform::ComponentId subject_component = 0;
  /// Job the symptom is about, when job-level (value/gap/overflow).
  std::optional<platform::JobId> subject_job;
  tta::RoundId round = 0;
  /// Type-specific magnitude: timing offset in us, value deviation from
  /// the spec bound, number of coalesced occurrences, ...
  double magnitude = 0.0;

  [[nodiscard]] std::string to_string() const;
};

/// Packs subject ids into the message aux word: bits 0..15 subject job
/// (0xFFFF = none), 16..23 subject component, 24..31 age of the
/// observation in rounds at send time (saturating at 255) — symptoms may
/// wait in the diagnostic queue, and the assessor must correlate them on
/// the round they were *observed*, not flushed.
[[nodiscard]] std::uint32_t pack_aux(const Symptom& s,
                                     std::uint8_t age_rounds = 0);

/// Encodes a symptom for transmission on the diagnostic vnet; `send_round`
/// is the round the flush happens in (determines the age field). The
/// sending agent's job/port identify the observer on the receiving side.
[[nodiscard]] vnet::Message encode(const Symptom& s,
                                   tta::RoundId send_round);

/// Decodes a diagnostic-vnet message back into a symptom. The observer
/// field is reconstructed by the caller from the sending agent's identity
/// (`observer_of_sender`). Returns nullopt for non-symptom kinds. Any
/// accepted symptom has a type in 1..8, a subject component below 256, a
/// subject job (if any) below 0xFFFF and a round no later than
/// `m.sent_round`.
[[nodiscard]] std::optional<Symptom> decode(const vnet::Message& m,
                                            platform::ComponentId observer);

/// Message kind of agent heartbeats on the symptom port. Heartbeats are
/// not symptoms: they are the diagnostic channel's own liveness evidence.
/// An assessor that stops hearing an agent (no symptoms *and* no
/// heartbeats) must degrade the FRU's evidence quality instead of letting
/// trust recover — silence of the monitor is not health of the monitored.
inline constexpr std::uint8_t kHeartbeatMsgKind = 9;

/// Agent liveness beacon, sent every heartbeat period on the symptom port.
struct Heartbeat {
  /// Total symptoms the agent has detected so far (monotonic).
  std::uint64_t symptoms_detected = 0;
  /// Symptoms the agent had to drop from its bounded backlog (monotonic):
  /// the agent's own confession of evidence loss.
  std::uint32_t symptoms_dropped = 0;
};

[[nodiscard]] vnet::Message encode_heartbeat(const Heartbeat& hb,
                                             tta::RoundId round);

/// Returns nullopt unless `m.kind == kHeartbeatMsgKind`. The detected
/// count is the value truncated toward zero; NaN or negative values read
/// as 0 and values past the 64-bit range saturate.
[[nodiscard]] std::optional<Heartbeat> decode_heartbeat(const vnet::Message& m);

/// Message kinds of verdict deltas on the dissemination vnet (hierarchy
/// mode). Deltas carry an assessor's *conclusion* about one FRU — trust
/// plus fault class — not raw evidence, so dissemination traffic scales
/// with the number of unhealthy FRUs instead of with the symptom rate.
inline constexpr std::uint8_t kComponentDeltaMsgKind = 10;
inline constexpr std::uint8_t kJobDeltaMsgKind = 11;

/// One disseminated verdict delta. `round` is the *emission* round at the
/// origin tester — the event timestamp receivers dedupe and merge on, so
/// re-flooded copies and out-of-order deliveries collapse to the latest
/// verdict per (origin, FRU).
struct VerdictDelta {
  bool job_level = false;
  /// ComponentId (component delta) or JobId (job delta).
  std::uint32_t fru = 0;
  /// Cube position of the tester that produced the verdict. Preserved
  /// across forwards: receivers must know whose local evidence backs it.
  std::uint32_t origin = 0;
  double trust = 1.0;
  fault::FaultClass cls = fault::FaultClass::kNone;
  /// True when the origin withdraws its suspicion (trust recovered or the
  /// FRU was repaired); receivers drop their cached entry.
  bool clear = false;
  tta::RoundId round = 0;
};

/// Encodes a delta: aux packs fru (bits 0..15), origin position (16..21),
/// fault class (22..24), the clear flag (25) and the emission age in
/// rounds at send time (26..31); value carries the trust level at full
/// precision. The multiplexer stamps sent_round with the enqueue round,
/// so — like the symptom age field — the emission round is reconstructed
/// as sent_round - age on the receiving side. `send_round` is the round
/// the delta is handed to the port (the original emission round at the
/// origin, the forwarding round on a re-flood).
[[nodiscard]] vnet::Message encode_delta(const VerdictDelta& d,
                                         tta::RoundId send_round);

/// Returns nullopt unless `m.kind` is one of the delta kinds, or when the
/// age field saturated (a copy too stale to merge monotonically — the
/// reconstructed emission round would be wrong in the dangerous
/// direction, so receivers discard it and rely on the periodic refresh),
/// or when the class field names no FaultClass. Any accepted delta has a
/// fru below 2^16, an origin below 64 and a round no later than
/// `m.sent_round`.
[[nodiscard]] std::optional<VerdictDelta> decode_delta(const vnet::Message& m);

}  // namespace decos::diag
