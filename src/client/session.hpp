// The client's session with its server, as one explicit state machine
// (DESIGN.md §7): registration and its retries, the lease's quiesce and
// rescue, a server restart, lease expiry and crash. The client feeds it
// events and does what each returns; it keeps no lifecycle flag of its own.
// An event a state has no use for leaves it unchanged and returns false.
#pragma once

#include <cstdint>

#include "common/result.hpp"

namespace stank::client {

class Session {
 public:
  enum class State : std::uint8_t {
    kIdle,           // constructed; start() not called
    kRegistering,    // no lease; a RegisterReq is in flight
    kBackoff,        // no lease; the retry timer sends the next RegisterReq
    kServing,        // registered; calls run while the lease admits them
    kQuiesced,       // registered; lease phase 3 or later: no new calls
    kReregistering,  // the server lost our session: lease, locks and cache are
                     // kept while a RegisterReq is in flight
    kStale,          // the same, waiting for the retry timer
    kCrashed,        // fail-stop: nothing runs until restart()
  };

  // --- Queries -------------------------------------------------------------
  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool registered() const {
    return state_ == State::kServing || state_ == State::kQuiesced;
  }
  [[nodiscard]] bool accepting() const { return state_ == State::kServing; }
  [[nodiscard]] bool crashed() const { return state_ == State::kCrashed; }
  // Why a call may not start, before the lease has its say: kShutdown,
  // kLeaseExpired (not registered), kQuiesced, or kOk.
  [[nodiscard]] ErrorCode gate() const;

  // --- Events --------------------------------------------------------------
  // A bool event returns whether its transition happened; start, restart,
  // retry, stale and expire then ask the client to send a RegisterReq.
  bool start();    // kIdle -> kRegistering
  bool restart();  // kCrashed -> kRegistering
  // The retry timer fired: a waiting state sends again.
  bool retry();
  // The RegisterReq in flight was NACKed or timed out: wait for the timer.
  void register_failed();
  // The RegisterReq in flight was ACKed: registered, admitting nothing until
  // the lease, renewed next, says otherwise.
  void register_acked();
  // The lease's verdict on new calls: false when it enters phase 3, true when
  // a keep-alive rescues it from there, either after a registration.
  void admit(bool admitting);
  // A reply said the server holds no session for us (it restarted). True
  // when the session was live: the client abandons its requests, keeps its
  // lease and re-registers.
  bool stale();
  // The lease expired (or a NACK ended a strategy with no ride-down). True
  // when there is a lease to tear down: registered or re-registering. The
  // client abandons every request in flight, a RegisterReq included, fails
  // every waiter, drops its cache and registers afresh.
  bool expire();
  // False if already crashed.
  bool crash();

 private:
  State state_{State::kIdle};
};

}  // namespace stank::client
