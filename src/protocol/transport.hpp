// Shared transport configuration and reply-event types.
#pragma once

#include <functional>

#include "common/assert.hpp"
#include "common/move_fn.hpp"
#include "protocol/messages.hpp"
#include "sim/time.hpp"

namespace stank::protocol {

// Total transmissions = 1 + kMaxRetries before a delivery failure is
// reported, on both sides. The paper: "if a server attempts to send a message
// that requires an ACK ... and the client does not respond, the server
// assumes the client to be failed."
inline constexpr int kMaxRetries = 3;

struct TransportConfig {
  // Retransmit period, measured on the sender's own clock.
  sim::LocalDuration retransmit_timeout{sim::local_millis(500)};
  // Reply-cache capacity per client session (at-most-once dedup window).
  std::size_t reply_cache_size{128};
};

enum class ReplyOutcome : std::uint8_t { kAck, kNack, kTimeout };

// Delivered to the requester when its request concludes.
struct ReplyEvent {
  ReplyOutcome outcome{ReplyOutcome::kTimeout};
  ReplyBody body;              // meaningful only for kAck
  // Local time at which the FIRST transmission of this request left the
  // client. This is the paper's t_C1: the lease obtained by the eventual ACK
  // is valid for [t_C1, t_C1 + tau). Using the first transmission is the
  // conservative choice that keeps t_C1 <= t_S2 for whichever copy the
  // server actually acknowledged.
  sim::LocalTime first_send{};
};

// The frame a transport decodes a received datagram over, reused from one
// datagram to the next. There is one per thread rather than one per
// transport: a Frame is 96 B on x86-64, and a swarm has a transport per
// client.
// Holding it asserts that no receive path on this thread already holds it,
// since a nested delivery would clobber the frame the outer one is still
// reading. Nothing nests: the net delivers only from its drain events, and
// a byzantine client injects its replays from its own timer.
class RxFrame {
 public:
  RxFrame() : slot_(slot()) {
    STANK_ASSERT_MSG(!slot_.busy, "handle_datagram re-entered");
    slot_.busy = true;
  }
  ~RxFrame() { slot_.busy = false; }
  RxFrame(const RxFrame&) = delete;
  RxFrame& operator=(const RxFrame&) = delete;

  [[nodiscard]] Frame& frame() { return slot_.frame; }

 private:
  struct Slot {
    Frame frame;
    bool busy{false};
  };
  static Slot& slot() {
    thread_local Slot s;
    return s;
  }
  Slot& slot_;
};

// Move-only, so captures are never copied. Reply continuations capture a
// this-pointer plus an op handle or a few ids (the caller's own callback
// lives in the op record, never in the handler), so 48 inline bytes hold
// every one; two of them sit inline in each client transport.
using ReplyHandler = MoveFn<void(const ReplyEvent&), 48>;

}  // namespace stank::protocol
