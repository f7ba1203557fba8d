// Wire codec: Frame <-> bytes.
//
// Every frame actually crosses the simulated control network as a byte
// buffer, so the codec is exercised on every message of every experiment.
// Decoding is total: malformed or truncated datagrams yield nullopt, never
// undefined behaviour.
#pragma once

#include <cstddef>
#include <optional>

#include "common/bytes.hpp"
#include "protocol/messages.hpp"

namespace stank::protocol {

// Exact wire size of the encoded frame, computed by a counting writer that
// walks the same encode path as encode_into — they cannot drift apart.
[[nodiscard]] std::size_t encoded_size(const Frame& frame);

// Encodes into a caller-owned buffer: clears it, reserves the exact frame
// size (one allocation, no growth reallocs), and writes. Transports keep a
// scratch buffer and move it into the net, so a send costs one allocation.
void encode_into(const Frame& frame, Bytes& out);

// encode_into for a kRequest frame, straight from its header fields and a
// body the caller keeps: a retransmission encodes without copying the body.
void encode_request_into(NodeId sender, MsgId msg_id, std::uint32_t epoch,
                         const RequestBody& body, Bytes& out);

[[nodiscard]] Bytes encode(const Frame& frame);

// Decodes over a caller-owned frame, so a transport reuses one frame for
// every datagram. Returns false on a malformed datagram; `frame` then holds
// unspecified values.
[[nodiscard]] bool decode_into(const Bytes& datagram, Frame& frame);
[[nodiscard]] std::optional<Frame> decode(const Bytes& datagram);

}  // namespace stank::protocol
