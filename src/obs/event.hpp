// Typed flight-recorder events.
//
// The one diagnostic channel. A string per event would cost a heap
// allocation on the hot path, so the recorder's unit is a fixed 32-byte POD:
// an event kind from a closed taxonomy, the node it happened on, and two u64
// payload words whose meaning the kind defines. No strings, no allocation, no
// formatting — writing one is a bounds check and a struct store into a
// per-node ring.
#pragma once

#include <cstdint>
#include <type_traits>

#include "common/strong_id.hpp"
#include "sim/time.hpp"

namespace stank::obs {

// The closed event taxonomy. Payload word conventions are noted per kind;
// unlisted words are zero. Append new kinds at the end of their section —
// the numeric value is part of the binary trace format.
enum class EventKind : std::uint16_t {
  kNone = 0,

  // -- client transport -- (node = client)
  kReqSend,             // a = msg id, b = request-body variant index
  kReqRetransmit,       // a = msg id, b = transmission count so far
  kAckRecv,             // a = msg id
  kNackRecv,            // a = msg id
  kReqTimeout,          // a = msg id, b = transmissions when abandoned
  kServerMsgRecv,       // a = msg id
  kServerMsgDup,        // a = msg id (suppressed duplicate, re-ACKed)

  // -- server transport -- (node = server; a = msg id, b = client node)
  kReqRecv,             // aux = request-body variant index
  kReqReplay,           // duplicate request answered from the reply cache
  kAckSend,
  kNackSend,
  kServerMsgSend,       // aux = server-body variant index
  kServerMsgRetransmit, // aux = transmission count so far
  kServerMsgAcked,
  kDeliveryFailure,     // retries exhausted; lease timeout starts

  // -- client lease agent -- (node = client)
  kLeasePhase,          // a = phase left, b = phase entered (LeasePhase values)
  kLeaseRenew,          // a = renewal local time ns
  kKeepaliveSend,
  kLeaseExpire,

  // -- server lease authority -- (node = server, a = client node)
  kStandingChange,      // b = new ClientStanding value
  kStealTimerArm,       // b = server-wait local duration ns
  kLockSteal,           // locks moved off the client (after any fence); b = locks stolen

  // -- lock manager -- (node = requesting/holding client)
  kLockGrant,           // a = file id, b = mode granted
  kLockQueue,           // a = file id, b = mode wanted
  kLockDemand,          // a = file id, b = max mode holder may retain
  kLockRelease,         // a = file id, b = mode retained after release
  kLockStolen,          // a = file id (this holder lost it to a steal)

  // -- sessions / fencing -- (node = the client affected)
  kRegister,            // a = epoch granted
  kFence,
  kUnfence,
  kCrash,
  kRestart,

  // -- network fabric -- (node = sender, a = destination node)
  kNetDrop,             // b = DropCause
  kNetDup,              // b = extra copies injected
  kNetReorder,          // b = spike delay ns

  // A string note (Recorder::annotate) lives in the side channel; this
  // marker only appears in merged export views.
  kAnnotation,

  // -- invariant watchdog -- (node = 0, the omniscient observer;
  //    a = probe index, b = bit_cast<u64> of the offending double value)
  kWatchdogTrip,   // a probe left its legal band (edge-triggered)
  kWatchdogClear,  // the probe returned to its band

  // -- client lock reassertion after a server restart -- (node = client)
  kLockReassert,   // a = file id, b = 1 granted / 0 refused or lost

  kCount_,
};

// Payload word b of kNetDrop.
enum class DropCause : std::uint8_t {
  kPartition = 0,
  kRandom = 1,
  kBurst = 2,
  kDetached = 3,
};

[[nodiscard]] constexpr const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kNone: return "none";
    case EventKind::kReqSend: return "req-send";
    case EventKind::kReqRetransmit: return "req-retransmit";
    case EventKind::kAckRecv: return "ack-recv";
    case EventKind::kNackRecv: return "nack-recv";
    case EventKind::kReqTimeout: return "req-timeout";
    case EventKind::kServerMsgRecv: return "server-msg-recv";
    case EventKind::kServerMsgDup: return "server-msg-dup";
    case EventKind::kReqRecv: return "req-recv";
    case EventKind::kReqReplay: return "req-replay";
    case EventKind::kAckSend: return "ack-send";
    case EventKind::kNackSend: return "nack-send";
    case EventKind::kServerMsgSend: return "server-msg-send";
    case EventKind::kServerMsgRetransmit: return "server-msg-retransmit";
    case EventKind::kServerMsgAcked: return "server-msg-acked";
    case EventKind::kDeliveryFailure: return "delivery-failure";
    case EventKind::kLeasePhase: return "lease-phase";
    case EventKind::kLeaseRenew: return "lease-renew";
    case EventKind::kKeepaliveSend: return "keepalive-send";
    case EventKind::kLeaseExpire: return "lease-expire";
    case EventKind::kStandingChange: return "standing-change";
    case EventKind::kStealTimerArm: return "steal-timer-arm";
    case EventKind::kLockSteal: return "lock-steal";
    case EventKind::kLockGrant: return "lock-grant";
    case EventKind::kLockQueue: return "lock-queue";
    case EventKind::kLockDemand: return "lock-demand";
    case EventKind::kLockRelease: return "lock-release";
    case EventKind::kLockStolen: return "lock-stolen";
    case EventKind::kRegister: return "register";
    case EventKind::kFence: return "fence";
    case EventKind::kUnfence: return "unfence";
    case EventKind::kCrash: return "crash";
    case EventKind::kRestart: return "restart";
    case EventKind::kNetDrop: return "net-drop";
    case EventKind::kNetDup: return "net-dup";
    case EventKind::kNetReorder: return "net-reorder";
    case EventKind::kAnnotation: return "annotation";
    case EventKind::kWatchdogTrip: return "watchdog-trip";
    case EventKind::kWatchdogClear: return "watchdog-clear";
    case EventKind::kLockReassert: return "lock-reassert";
    case EventKind::kCount_: break;
  }
  return "?";
}

// Lease-phase names, mirroring core::LeasePhase by value. Kept here (not by
// including core) so exporters and the trace_dump tool can name phases
// without pulling the protocol stack into the obs layer.
[[nodiscard]] constexpr const char* lease_phase_name(std::uint64_t phase) {
  switch (phase) {
    case 0: return "no-lease";
    case 1: return "active";
    case 2: return "renewal";
    case 3: return "suspect";
    case 4: return "flush";
    case 5: return "expired";
    default: return "?";
  }
}

// One recorded event. Global sim time: the recorder is an omniscient
// observer; per-node local clocks appear only inside payload words where a
// kind says so.
struct Event {
  sim::SimTime at{};
  NodeId node{};
  EventKind kind{EventKind::kNone};
  std::uint16_t aux{0};  // small secondary payload (e.g. peer node id)
  std::uint64_t a{0};
  std::uint64_t b{0};
};

static_assert(sizeof(Event) == 32, "Event is the binary trace format; keep it packed");
static_assert(std::is_trivially_copyable_v<Event>);

// Span taxonomy: named latency populations, each an exact Histogram of
// milliseconds. Closed like EventKind; the numeric value is part of the
// binary trace format.
enum class SpanKind : std::uint8_t {
  kRequestRtt = 0,   // client: first send -> ACK/NACK (local ms)
  kLockAcquire,      // client: lock() call -> grant/denial callback (local ms)
  kPhaseActive,      // lease phase-1 residency (global ms)
  kPhaseRenewal,     // lease phase-2 residency
  kPhaseSuspect,     // lease phase-3 residency
  kPhaseFlush,       // lease phase-4 residency
  kStealRecovery,    // server: locks stolen -> client re-registered (local ms)
  kOpLatency,        // workload: op issued -> completed (global ms)
  kCount_,
};

[[nodiscard]] constexpr const char* to_string(SpanKind k) {
  switch (k) {
    case SpanKind::kRequestRtt: return "request-rtt";
    case SpanKind::kLockAcquire: return "lock-acquire";
    case SpanKind::kPhaseActive: return "phase-active";
    case SpanKind::kPhaseRenewal: return "phase-renewal";
    case SpanKind::kPhaseSuspect: return "phase-suspect";
    case SpanKind::kPhaseFlush: return "phase-flush";
    case SpanKind::kStealRecovery: return "steal-recovery";
    case SpanKind::kOpLatency: return "op-latency";
    case SpanKind::kCount_: break;
  }
  return "?";
}

constexpr std::size_t kEventKindCount = static_cast<std::size_t>(EventKind::kCount_);
constexpr std::size_t kSpanKindCount = static_cast<std::size_t>(SpanKind::kCount_);

}  // namespace stank::obs
