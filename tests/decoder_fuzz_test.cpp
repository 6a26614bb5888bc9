// Deterministic fuzzing of every byte decoder that faces untrusted input:
// the vnet wire format (`vnet::unpack_into`, with and without its port
// mask), the diagnostic-vnet codecs layered on it (`diag::decode`,
// `decode_heartbeat`, `decode_delta`) and the garage evidence log
// (`DiagnosticLog::parse`). A seeded in-tree mutator takes valid encodings
// and applies bit flips, truncations and extensions; every mutant is fed
// to the decoders, which must not crash (the ASan/UBSan build turns any
// out-of-bounds read or undefined conversion into a failure) and whose
// accepted results must satisfy the field ranges documented in
// vnet/message.hpp, diag/symptom.hpp and diag/log.hpp. Fixed seeds and
// iteration counts keep the run identical on every build.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "diag/log.hpp"
#include "diag/symptom.hpp"
#include "sim/rng.hpp"
#include "vnet/message.hpp"

namespace decos {
namespace {

constexpr int kIterations = 20000;

std::size_t pick(sim::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

// Applies one to three mutations: flip 1..8 random bits, truncate at a
// random length, or append 1..40 bytes drawn from `extension_alphabet`
// (any byte when empty).
template <typename Buffer>
void mutate(sim::Rng& rng, Buffer& buf, std::string_view extension_alphabet) {
  using Byte = typename Buffer::value_type;
  const int rounds = static_cast<int>(rng.uniform_int(1, 3));
  for (int r = 0; r < rounds; ++r) {
    switch (rng.uniform_int(0, 2)) {
      case 0: {
        if (buf.empty()) break;
        const int flips = static_cast<int>(rng.uniform_int(1, 8));
        for (int f = 0; f < flips; ++f) {
          Byte& byte = buf[pick(rng, buf.size())];
          const auto bit = static_cast<unsigned>(rng.uniform_int(0, 7));
          byte = static_cast<Byte>(static_cast<unsigned char>(byte) ^
                                   (1u << bit));
        }
        break;
      }
      case 1:
        buf.resize(pick(rng, buf.size() + 1));
        break;
      default: {
        const int extra = static_cast<int>(rng.uniform_int(1, 40));
        for (int e = 0; e < extra; ++e) {
          const auto byte =
              extension_alphabet.empty()
                  ? static_cast<unsigned char>(rng.uniform_int(0, 255))
                  : static_cast<unsigned char>(extension_alphabet[pick(
                        rng, extension_alphabet.size())]);
          buf.push_back(static_cast<Byte>(byte));
        }
        break;
      }
    }
  }
}

diag::Symptom random_symptom(sim::Rng& rng) {
  diag::Symptom s;
  s.type = static_cast<diag::SymptomType>(rng.uniform_int(1, 8));
  s.observer = static_cast<platform::ComponentId>(rng.uniform_int(0, 63));
  s.subject_component =
      static_cast<platform::ComponentId>(rng.uniform_int(0, 255));
  if (rng.bernoulli(0.5)) {
    s.subject_job = static_cast<platform::JobId>(rng.uniform_int(0, 0xFFFE));
  }
  s.round = static_cast<tta::RoundId>(rng.uniform_int(0, 1'000'000));
  s.magnitude = rng.uniform(-1e6, 1e6);
  return s;
}

// A frame payload as an agent or assessor would send it: a mix of
// symptoms, heartbeats and verdict deltas on the diagnostic vnet.
std::vector<vnet::Message> random_diag_messages(sim::Rng& rng) {
  std::vector<vnet::Message> msgs;
  const int n = static_cast<int>(rng.uniform_int(0, 6));
  for (int i = 0; i < n; ++i) {
    const auto send_round =
        static_cast<tta::RoundId>(rng.uniform_int(0, 1'000'000));
    vnet::Message m;
    switch (rng.uniform_int(0, 2)) {
      case 0: {
        diag::Symptom s = random_symptom(rng);
        s.round = send_round - std::min<tta::RoundId>(
                                   send_round, static_cast<tta::RoundId>(
                                                   rng.uniform_int(0, 300)));
        m = diag::encode(s, send_round);
        m.sent_round = send_round;
        break;
      }
      case 1: {
        diag::Heartbeat hb;
        hb.symptoms_detected =
            static_cast<std::uint64_t>(rng.uniform_int(0, 1'000'000));
        hb.symptoms_dropped =
            static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
        m = diag::encode_heartbeat(hb, send_round);
        break;
      }
      default: {
        diag::VerdictDelta d;
        d.job_level = rng.bernoulli(0.5);
        d.fru = static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFF));
        d.origin = static_cast<std::uint32_t>(rng.uniform_int(0, 63));
        d.trust = rng.uniform();
        d.cls = static_cast<fault::FaultClass>(rng.uniform_int(
            0, static_cast<std::int64_t>(fault::FaultClass::kNone)));
        d.clear = rng.bernoulli(0.2);
        d.round = send_round - std::min<tta::RoundId>(
                                   send_round, static_cast<tta::RoundId>(
                                                   rng.uniform_int(0, 70)));
        m = diag::encode_delta(d, send_round);
        break;
      }
    }
    m.vnet = platform::kDiagnosticVnet;
    m.port = static_cast<platform::PortId>(rng.uniform_int(0, 15));
    m.sender = static_cast<platform::JobId>(rng.uniform_int(0, 255));
    m.seq = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
    msgs.push_back(m);
  }
  return msgs;
}

// Field ranges each diagnostic decoder documents for what it accepts.
void check_diag_decoders(const vnet::Message& m) {
  constexpr platform::ComponentId kObserver = 7;
  if (const auto s = diag::decode(m, kObserver)) {
    EXPECT_GE(m.kind, 1);
    EXPECT_LE(m.kind, 8);
    EXPECT_EQ(static_cast<unsigned>(s->type), m.kind);
    EXPECT_EQ(s->observer, kObserver);
    EXPECT_LT(s->subject_component, 256u);
    if (s->subject_job) EXPECT_LT(*s->subject_job, 0xFFFFu);
    EXPECT_LE(s->round, m.sent_round);
    EXPECT_EQ(std::memcmp(&s->magnitude, &m.value, sizeof m.value), 0);
  } else {
    EXPECT_TRUE(m.kind < 1 || m.kind > 8);
  }

  if (const auto hb = diag::decode_heartbeat(m)) {
    EXPECT_EQ(m.kind, diag::kHeartbeatMsgKind);
    EXPECT_EQ(hb->symptoms_dropped, m.aux);
    if (!(m.value > 0.0)) {
      EXPECT_EQ(hb->symptoms_detected, 0u);
    } else if (m.value >= std::ldexp(1.0, 64)) {
      EXPECT_EQ(hb->symptoms_detected,
                std::numeric_limits<std::uint64_t>::max());
    } else {
      EXPECT_EQ(static_cast<double>(hb->symptoms_detected),
                std::floor(m.value));
    }
  } else {
    EXPECT_NE(m.kind, diag::kHeartbeatMsgKind);
  }

  if (const auto d = diag::decode_delta(m)) {
    EXPECT_TRUE(m.kind == diag::kComponentDeltaMsgKind ||
                m.kind == diag::kJobDeltaMsgKind);
    EXPECT_EQ(d->job_level, m.kind == diag::kJobDeltaMsgKind);
    EXPECT_LE(d->fru, 0xFFFFu);
    EXPECT_LT(d->origin, 64u);
    EXPECT_LE(static_cast<unsigned>(d->cls),
              static_cast<unsigned>(fault::FaultClass::kNone));
    EXPECT_LE(d->round, m.sent_round);
    EXPECT_GE(d->round + 63, m.sent_round);  // age field is 6 bits
    EXPECT_EQ(std::memcmp(&d->trust, &m.value, sizeof m.value), 0);
  }
}

TEST(DecoderFuzz, VnetUnpackAndDiagCodecsStayInRange) {
  sim::Rng rng(0xF022'0001);
  std::vector<vnet::Message> out;
  std::vector<std::uint8_t> repacked;
  std::size_t accepted = 0;
  std::size_t decoded = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::vector<std::uint8_t> bytes =
        vnet::pack(random_diag_messages(rng), /*round=*/0);
    mutate(rng, bytes, "");
    if (!vnet::unpack_into(bytes, out)) {
      EXPECT_TRUE(out.empty());
      continue;
    }
    ++accepted;
    // Accepted payloads are exactly count-prefix-sized and re-encode to
    // the same bytes, except the reserved byte 7 of each record.
    ASSERT_GE(bytes.size(), 2u);
    EXPECT_EQ(bytes.size(), 2 + out.size() * vnet::kWireRecordSize);
    EXPECT_EQ(static_cast<std::size_t>(bytes[0] | (bytes[1] << 8)),
              out.size());
    vnet::pack_into(out, 0, repacked);
    for (std::size_t r = 0; r < out.size(); ++r) {
      bytes[2 + r * vnet::kWireRecordSize + 7] = 0;
    }
    EXPECT_EQ(repacked, bytes);
    for (const vnet::Message& m : out) {
      EXPECT_LE(m.sent_round, std::numeric_limits<std::uint32_t>::max());
      check_diag_decoders(m);
      ++decoded;
    }
  }
  // The mutator must not be so destructive that nothing gets through.
  EXPECT_GT(accepted, static_cast<std::size_t>(kIterations) / 10);
  EXPECT_GT(decoded, static_cast<std::size_t>(kIterations) / 4);
}

bool same_record(const vnet::Message& a, const vnet::Message& b) {
  return a.vnet == b.vnet && a.port == b.port && a.sender == b.sender &&
         a.kind == b.kind && a.seq == b.seq && a.aux == b.aux &&
         a.sent_round == b.sent_round &&
         std::memcmp(&a.value, &b.value, sizeof a.value) == 0;
}

// The port mask is a pure filter: on every fuzzed payload, decoding with a
// random mask gives the same verdict as the unmasked decode and exactly
// its records on selected ports, in wire order; an empty mask decodes
// everything. Masks are sometimes shorter than the port range in the
// payload (ports past the mask are unselected), and bit flips land in the
// port field too.
TEST(DecoderFuzz, MaskedUnpackIsUnmaskedFilteredByPort) {
  sim::Rng rng(0xF022'0004);
  std::vector<vnet::Message> all;
  std::vector<vnet::Message> masked;
  std::vector<std::uint8_t> mask;
  std::size_t accepted = 0;
  std::size_t skipped = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::vector<std::uint8_t> bytes =
        vnet::pack(random_diag_messages(rng), /*round=*/0);
    if (rng.bernoulli(0.5)) mutate(rng, bytes, "");
    mask.assign(pick(rng, 20), 0);
    for (std::uint8_t& bit : mask) bit = rng.bernoulli(0.4) ? 1 : 0;

    const bool ok = vnet::unpack_into(bytes, all);
    ASSERT_EQ(vnet::unpack_into(bytes, masked, mask), ok);
    if (!ok) {
      EXPECT_TRUE(masked.empty());
      continue;
    }
    ++accepted;
    std::vector<vnet::Message> expected;
    for (const vnet::Message& m : all) {
      if (mask.empty() || (m.port < mask.size() && mask[m.port] != 0)) {
        expected.push_back(m);
      }
    }
    skipped += all.size() - expected.size();
    ASSERT_EQ(masked.size(), expected.size());
    for (std::size_t r = 0; r < expected.size(); ++r) {
      EXPECT_TRUE(same_record(masked[r], expected[r])) << "record " << r;
    }

    ASSERT_TRUE(vnet::unpack_into(bytes, masked, {}));
    ASSERT_EQ(masked.size(), all.size());
    for (std::size_t r = 0; r < all.size(); ++r) {
      EXPECT_TRUE(same_record(masked[r], all[r])) << "record " << r;
    }
  }
  // Both sides of the filter must actually be exercised.
  EXPECT_GT(accepted, static_cast<std::size_t>(kIterations) / 4);
  EXPECT_GT(skipped, static_cast<std::size_t>(kIterations) / 4);
}

// Raw message fields, not just byte images of valid encodings: every kind
// and aux word, and doubles that include NaN, infinities and values far
// past the 64-bit range.
TEST(DecoderFuzz, DiagCodecsOnArbitraryFields) {
  sim::Rng rng(0xF022'0002);
  for (int i = 0; i < kIterations; ++i) {
    vnet::Message m;
    m.kind = static_cast<std::uint8_t>(rng.uniform_int(0, 15));
    m.aux = static_cast<std::uint32_t>(rng.next_u64());
    m.sent_round = static_cast<std::uint32_t>(rng.next_u64());
    const std::uint64_t bits = rng.next_u64();
    std::memcpy(&m.value, &bits, sizeof m.value);
    check_diag_decoders(m);
  }
}

std::vector<std::string_view> split(std::string_view text,
                                    std::string_view delims) {
  std::vector<std::string_view> parts;
  for (auto at = text.find_first_not_of(delims);
       at != std::string_view::npos; at = text.find_first_not_of(delims)) {
    text.remove_prefix(at);
    const std::size_t len = std::min(text.find_first_of(delims), text.size());
    parts.push_back(text.substr(0, len));
    text.remove_prefix(len);
  }
  return parts;
}

// An accepted integer token, as to_string would print the parsed value.
std::string canonical(std::string_view token) {
  const std::size_t digit = token.find_first_not_of('0');
  return std::string(digit == std::string_view::npos ? "0"
                                                     : token.substr(digit));
}

// DiagnosticLog::parse documents: every line has six fields, the type is
// 1..8, the job is -1 (none) or a JobId, and integer fields hold exactly
// the decimal value written — nothing wraps or truncates into range.
void check_log_line(const diag::Symptom& s, std::string_view line) {
  const auto f = split(line, " \t\r");
  ASSERT_EQ(f.size(), 6u) << line;
  const auto type = static_cast<unsigned>(s.type);
  EXPECT_GE(type, 1u);
  EXPECT_LE(type, 8u);
  EXPECT_EQ(std::to_string(s.round), canonical(f[0])) << line;
  EXPECT_EQ(std::to_string(type), canonical(f[1])) << line;
  EXPECT_EQ(std::to_string(s.observer), canonical(f[2])) << line;
  EXPECT_EQ(std::to_string(s.subject_component), canonical(f[3])) << line;
  if (f[4] == "-1") {
    EXPECT_FALSE(s.subject_job.has_value()) << line;
  } else {
    ASSERT_TRUE(s.subject_job.has_value()) << line;
    EXPECT_EQ(std::to_string(*s.subject_job), canonical(f[4])) << line;
  }
}

TEST(DecoderFuzz, DiagnosticLogParseStaysInRange) {
  sim::Rng rng(0xF022'0003);
  // Digits, signs, separators and a few letters: mutants that stay close
  // to the grammar reach the range checks instead of the tokeniser.
  constexpr std::string_view kAlphabet = "0123456789-+ .\teEnainf\n";
  std::size_t accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    diag::DiagnosticLog log;
    const int n = static_cast<int>(rng.uniform_int(1, 4));
    for (int k = 0; k < n; ++k) log.record(random_symptom(rng));
    std::string text = log.serialize();
    mutate(rng, text, kAlphabet);
    const auto parsed = diag::DiagnosticLog::parse(text);
    if (!parsed) continue;
    ++accepted;
    const auto lines = split(text, "\n");
    ASSERT_EQ(lines.size(), parsed->size()) << text;
    for (std::size_t k = 0; k < lines.size(); ++k) {
      check_log_line(parsed->symptoms()[k], lines[k]);
    }
    // Whatever parse accepts, serialize writes back in a form parse
    // accepts again with the same integer fields.
    const auto again = diag::DiagnosticLog::parse(parsed->serialize());
    ASSERT_TRUE(again.has_value()) << text;
    ASSERT_EQ(again->size(), parsed->size());
    for (std::size_t k = 0; k < parsed->size(); ++k) {
      const diag::Symptom& a = parsed->symptoms()[k];
      const diag::Symptom& b = again->symptoms()[k];
      EXPECT_EQ(a.round, b.round);
      EXPECT_EQ(a.type, b.type);
      EXPECT_EQ(a.observer, b.observer);
      EXPECT_EQ(a.subject_component, b.subject_component);
      EXPECT_EQ(a.subject_job, b.subject_job);
    }
  }
  EXPECT_GT(accepted, static_cast<std::size_t>(kIterations) / 20);
}

}  // namespace
}  // namespace decos
