// One client's session at the server, as one explicit state machine
// (DESIGN.md §7): the epoch of its registration and how far recovery from
// its failure has got. The server keeps one per client in one table, which
// crash() clears; the lease's own view of the client (suspect, failed) stays
// behind core::ServerLease. An event a state has no use for leaves it
// unchanged and returns false.
#pragma once

#include <cstdint>

namespace stank::server {

class Session {
 public:
  enum class State : std::uint8_t {
    kActive,   // served under epoch(); epoch 0: not registered this incarnation
    kFencing,  // recovery is fencing it at every disk; its locks go when all ack
    kBarred,   // its locks were stolen: NACKed until it registers again
  };

  // --- Queries -------------------------------------------------------------
  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }
  // Registered and not stolen from.
  [[nodiscard]] bool valid() const { return epoch_ != 0 && state_ != State::kBarred; }
  // Recovery from a failure is under way or done: a further delivery failure
  // changes nothing.
  [[nodiscard]] bool recovering() const { return state_ != State::kActive; }

  // --- Events --------------------------------------------------------------
  // A RegisterReq the lease admitted. Refused while fencing: the steal still
  // pending would sweep the new session's locks (the server checks that
  // before it asks the lease). Otherwise the client is active under a fresh
  // epoch.
  bool reregister() {
    if (state_ == State::kFencing) return false;
    state_ = State::kActive;
    ++epoch_;
    return true;
  }
  // Recovery fences the client; false if it is already under way or done.
  bool fence() {
    if (state_ != State::kActive) return false;
    state_ = State::kFencing;
    return true;
  }
  // Its locks are stolen; false if they already were.
  bool steal() {
    if (state_ == State::kBarred) return false;
    state_ = State::kBarred;
    return true;
  }

  friend bool operator==(const Session&, const Session&) = default;

 private:
  std::uint32_t epoch_{0};
  State state_{State::kActive};
};

}  // namespace stank::server
