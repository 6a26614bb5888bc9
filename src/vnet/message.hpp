// Virtual-network messages and their wire format.
//
// Jobs exchange fixed-size records through ports. The multiplexer packs
// records of all vnets hosted on a component into the node's TDMA frame
// payload, so a single physical slot carries every overlay network's
// traffic — the paper's "virtual networks as encapsulated overlays on the
// time-triggered physical network".
//
// The wire format is deliberately explicit (little-endian, 20 bytes per
// record): channel corruption flips real bytes, the CRC catches it exactly
// as a real controller would, and a surviving flip in a value field is a
// genuine value-domain error for the diagnostic layer to find.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "platform/types.hpp"
#include "tta/types.hpp"

namespace decos::vnet {

struct Message {
  platform::VnetId vnet = 0;
  platform::PortId port = 0;       // sending port
  platform::JobId sender = 0;
  std::uint8_t kind = 0;           // application-defined tag
  std::uint32_t seq = 0;           // per-port sequence number
  std::uint32_t aux = 0;           // application-defined auxiliary word
  double value = 0.0;              // application payload
  /// Round in which the message was handed to the port. Serialised as the
  /// low 32 bits — at 2 ms per round that wraps after ~99 days, far beyond
  /// any single ignition cycle.
  tta::RoundId sent_round = 0;
};

inline constexpr std::size_t kWireRecordSize = 28;

/// Serialises `msgs` as a flat record array (count-prefixed, 2 bytes) into
/// `out`. The buffer is cleared but its capacity is kept, so a caller that
/// reuses one buffer per round packs without heap traffic in steady state.
void pack_into(const std::vector<Message>& msgs, tta::RoundId round,
               std::vector<std::uint8_t>& out);

/// Parses a payload produced by pack() into `out` (cleared first, capacity
/// kept). Returns false on malformed input (wrong length for its count
/// prefix) — corrupted frames normally fail the CRC first, so this guards
/// only against truncation bugs; `out` is left empty in that case.
///
/// `port_mask` selects which records are decoded: a record on port `p` is
/// kept only if `p < port_mask.size()` and `port_mask[p] != 0`; the rest
/// are skipped without being decoded. An empty mask (the default) decodes
/// every record. The length check runs first and does not depend on the
/// mask, so the return value is the same for every mask, and the masked
/// result equals the unmasked one filtered by port, in wire order.
bool unpack_into(std::span<const std::uint8_t> payload,
                 std::vector<Message>& out,
                 std::span<const std::uint8_t> port_mask = {});

/// Value-returning convenience over pack_into (tests, cold paths).
[[nodiscard]] std::vector<std::uint8_t> pack(const std::vector<Message>& msgs,
                                             tta::RoundId round);

/// Value-returning convenience over unpack_into (tests, cold paths).
[[nodiscard]] std::optional<std::vector<Message>> unpack(
    std::span<const std::uint8_t> payload);

}  // namespace decos::vnet
