#include "diag/symptom.hpp"

#include <cstdio>
#include <limits>

namespace decos::diag {

const char* to_string(SymptomType t) {
  switch (t) {
    case SymptomType::kSlotCrcError: return "slot-crc-error";
    case SymptomType::kSlotTimingError: return "slot-timing-error";
    case SymptomType::kSlotOmission: return "slot-omission";
    case SymptomType::kQueueOverflow: return "queue-overflow";
    case SymptomType::kValueOutOfRange: return "value-out-of-range";
    case SymptomType::kMessageGap: return "message-gap";
    case SymptomType::kGuardianBlock: return "guardian-block";
    case SymptomType::kTransducerSuspect: return "transducer-suspect";
  }
  return "?";
}

std::string Symptom::to_string() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "[r%llu] %s obs=c%u subj=c%u%s%s mag=%.3f",
                static_cast<unsigned long long>(round), diag::to_string(type),
                observer, subject_component, subject_job ? " j" : "",
                subject_job ? std::to_string(*subject_job).c_str() : "",
                magnitude);
  return buf;
}

std::uint32_t pack_aux(const Symptom& s, std::uint8_t age_rounds) {
  const std::uint32_t job_bits =
      s.subject_job ? static_cast<std::uint32_t>(*s.subject_job) : 0xFFFFu;
  return (static_cast<std::uint32_t>(age_rounds) << 24) |
         ((static_cast<std::uint32_t>(s.subject_component) & 0xFFu) << 16) |
         (job_bits & 0xFFFFu);
}

vnet::Message encode(const Symptom& s, tta::RoundId send_round) {
  const tta::RoundId age = send_round > s.round ? send_round - s.round : 0;
  vnet::Message m;
  m.kind = static_cast<std::uint8_t>(s.type);
  m.aux = pack_aux(s, static_cast<std::uint8_t>(age > 255 ? 255 : age));
  m.value = s.magnitude;
  m.sent_round = s.round;
  return m;
}

vnet::Message encode_heartbeat(const Heartbeat& hb, tta::RoundId round) {
  vnet::Message m;
  m.kind = kHeartbeatMsgKind;
  m.value = static_cast<double>(hb.symptoms_detected);
  m.aux = hb.symptoms_dropped;
  m.sent_round = round;
  return m;
}

std::optional<Heartbeat> decode_heartbeat(const vnet::Message& m) {
  if (m.kind != kHeartbeatMsgKind) return std::nullopt;
  Heartbeat hb;
  // The count travels as a double, and a corrupted one must not make the
  // conversion undefined: NaN and negatives read as 0, values past the
  // 64-bit range saturate.
  constexpr double kTwoTo64 = 18446744073709551616.0;
  if (m.value >= kTwoTo64) {
    hb.symptoms_detected = std::numeric_limits<std::uint64_t>::max();
  } else if (m.value > 0.0) {
    hb.symptoms_detected = static_cast<std::uint64_t>(m.value);
  }
  hb.symptoms_dropped = m.aux;
  return hb;
}

std::optional<Symptom> decode(const vnet::Message& m,
                              platform::ComponentId observer) {
  if (m.kind < 1 || m.kind > 8) return std::nullopt;
  Symptom s;
  s.type = static_cast<SymptomType>(m.kind);
  s.observer = observer;
  s.subject_component =
      static_cast<platform::ComponentId>((m.aux >> 16) & 0xFFu);
  const std::uint32_t job_bits = m.aux & 0xFFFFu;
  if (job_bits != 0xFFFFu) {
    s.subject_job = static_cast<platform::JobId>(job_bits);
  }
  const std::uint32_t age = (m.aux >> 24) & 0xFFu;
  s.round = m.sent_round > age ? m.sent_round - age : 0;
  s.magnitude = m.value;
  return s;
}

vnet::Message encode_delta(const VerdictDelta& d, tta::RoundId send_round) {
  const tta::RoundId age = send_round > d.round ? send_round - d.round : 0;
  vnet::Message m;
  m.kind = d.job_level ? kJobDeltaMsgKind : kComponentDeltaMsgKind;
  m.aux = (d.fru & 0xFFFFu) | ((d.origin & 0x3Fu) << 16) |
          ((static_cast<std::uint32_t>(d.cls) & 0x7u) << 22) |
          (d.clear ? (1u << 25) : 0u) |
          (static_cast<std::uint32_t>(age > 63 ? 63 : age) << 26);
  m.value = d.trust;
  m.sent_round = send_round;
  return m;
}

std::optional<VerdictDelta> decode_delta(const vnet::Message& m) {
  if (m.kind != kComponentDeltaMsgKind && m.kind != kJobDeltaMsgKind) {
    return std::nullopt;
  }
  const std::uint32_t age = (m.aux >> 26) & 0x3Fu;
  if (age == 63) return std::nullopt;  // saturated: emission round unknown
  const std::uint32_t cls = (m.aux >> 22) & 0x7u;
  if (cls > static_cast<std::uint32_t>(fault::FaultClass::kNone)) {
    return std::nullopt;  // 3-bit field, only 7 classes: not a verdict
  }
  VerdictDelta d;
  d.job_level = m.kind == kJobDeltaMsgKind;
  d.fru = m.aux & 0xFFFFu;
  d.origin = (m.aux >> 16) & 0x3Fu;
  d.cls = static_cast<fault::FaultClass>(cls);
  d.clear = ((m.aux >> 25) & 0x1u) != 0;
  d.trust = m.value;
  d.round = m.sent_round > age ? m.sent_round - age : 0;
  return d;
}

}  // namespace decos::diag
