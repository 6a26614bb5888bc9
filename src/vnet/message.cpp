#include "vnet/message.hpp"

namespace decos::vnet {
namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

std::uint16_t get_u16(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint16_t>(in[at] | (in[at + 1] << 8));
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(in[at + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

}  // namespace

void pack_into(const std::vector<Message>& msgs, tta::RoundId round,
               std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(2 + msgs.size() * kWireRecordSize);
  put_u16(out, static_cast<std::uint16_t>(msgs.size()));
  for (const Message& m : msgs) {
    put_u16(out, m.vnet);
    put_u16(out, m.port);
    put_u16(out, m.sender);
    out.push_back(m.kind);
    out.push_back(0);  // reserved / alignment
    put_u32(out, m.seq);
    std::uint64_t bits;
    std::memcpy(&bits, &m.value, sizeof bits);
    put_u32(out, static_cast<std::uint32_t>(bits & 0xFFFFFFFFu));
    put_u32(out, static_cast<std::uint32_t>(bits >> 32));
    put_u32(out, static_cast<std::uint32_t>(m.sent_round & 0xFFFFFFFFu));
    put_u32(out, m.aux);
  }
  (void)round;
}

bool unpack_into(std::span<const std::uint8_t> payload,
                 std::vector<Message>& out,
                 std::span<const std::uint8_t> port_mask) {
  out.clear();
  if (payload.size() < 2) return false;
  const std::uint16_t count = get_u16(payload, 0);
  if (payload.size() != 2 + static_cast<std::size_t>(count) * kWireRecordSize) {
    return false;
  }
  out.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    const std::size_t base = 2 + static_cast<std::size_t>(i) * kWireRecordSize;
    const std::uint16_t port = get_u16(payload, base + 2);
    if (!port_mask.empty() &&
        (port >= port_mask.size() || port_mask[port] == 0)) {
      continue;
    }
    Message m;
    m.vnet = get_u16(payload, base);
    m.port = port;
    m.sender = get_u16(payload, base + 4);
    m.kind = payload[base + 6];
    m.seq = get_u32(payload, base + 8);
    const std::uint64_t bits =
        static_cast<std::uint64_t>(get_u32(payload, base + 12)) |
        (static_cast<std::uint64_t>(get_u32(payload, base + 16)) << 32);
    std::memcpy(&m.value, &bits, sizeof m.value);
    m.sent_round = get_u32(payload, base + 20);
    m.aux = get_u32(payload, base + 24);
    out.push_back(m);
  }
  return true;
}

std::vector<std::uint8_t> pack(const std::vector<Message>& msgs,
                               tta::RoundId round) {
  std::vector<std::uint8_t> out;
  pack_into(msgs, round, out);
  return out;
}

std::optional<std::vector<Message>> unpack(std::span<const std::uint8_t> payload) {
  std::vector<Message> msgs;
  if (!unpack_into(payload, msgs)) return std::nullopt;
  return msgs;
}

}  // namespace decos::vnet
