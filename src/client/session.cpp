#include "client/session.hpp"

namespace stank::client {

ErrorCode Session::gate() const {
  switch (state_) {
    case State::kCrashed: return ErrorCode::kShutdown;
    case State::kServing: return ErrorCode::kOk;
    case State::kQuiesced: return ErrorCode::kQuiesced;
    default: return ErrorCode::kLeaseExpired;
  }
}

bool Session::start() {
  if (state_ != State::kIdle) return false;
  state_ = State::kRegistering;
  return true;
}

bool Session::restart() {
  if (state_ != State::kCrashed) return false;
  state_ = State::kRegistering;
  return true;
}

bool Session::retry() {
  if (state_ == State::kBackoff) {
    state_ = State::kRegistering;
  } else if (state_ == State::kStale) {
    state_ = State::kReregistering;
  } else {
    return false;
  }
  return true;
}

void Session::register_failed() {
  if (state_ == State::kRegistering) state_ = State::kBackoff;
  if (state_ == State::kReregistering) state_ = State::kStale;
}

void Session::register_acked() {
  if (state_ == State::kRegistering || state_ == State::kReregistering) {
    state_ = State::kQuiesced;
  }
}

void Session::admit(bool admitting) {
  if (registered()) state_ = admitting ? State::kServing : State::kQuiesced;
}

bool Session::stale() {
  if (!registered()) return false;
  state_ = State::kReregistering;
  return true;
}

bool Session::expire() {
  if (!registered() && state_ != State::kReregistering && state_ != State::kStale) return false;
  state_ = State::kRegistering;
  return true;
}

bool Session::crash() {
  if (state_ == State::kCrashed) return false;
  state_ = State::kCrashed;
  return true;
}

}  // namespace stank::client
