#include "client/file_lock.hpp"

namespace stank::client {

FileLock::State FileLock::state() const {
  if (revoking_) return State::kRevoking;
  if (reasserting_) return State::kReasserting;
  const bool asking = want_ != LockMode::kNone;
  if (mode_ == LockMode::kNone) return asking ? State::kAcquiring : State::kNone;
  return asking ? State::kUpgrading : State::kHeld;
}

bool FileLock::admits(LockMode want) const {
  return want <= mode_ && !reasserting_ && !(revoking_ && want == LockMode::kExclusive);
}

Status FileLock::may_dirty(std::uint64_t seq, bool flushing, bool in_flight) const {
  if (flushing) return ErrorCode::kLeaseExpired;
  if (seq != seq_ || mode_ != LockMode::kExclusive || reasserting_ || (revoking_ && !in_flight)) {
    return ErrorCode::kLockConflict;
  }
  return Status::ok();
}

bool FileLock::request(LockMode want) {
  if (want <= mode_ || want <= want_) return false;
  want_ = want;
  return true;
}

FileLock::Io FileLock::grant(LockMode mode, std::uint32_t gen, std::uint64_t cookie) {
  if (gen <= gen_) return 0;  // stale or duplicate
  gen_ = gen;
  cookie_ = cookie;
  mode_ = mode;
  ++seq_;
  if (want_ <= mode) want_ = LockMode::kNone;
  reasserting_ = false;  // a grant of the new incarnation supersedes it
  Io io = kAcquired | kSettle | kPump;
  if (deferred_ && deferred_gen_ < gen_) deferred_ = false;
  if (deferred_ && deferred_gen_ == gen_) io |= kRedemand;
  return io;
}

FileLock::Io FileLock::demand(LockMode max_mode, std::uint32_t gen) {
  if (gen < gen_) return 0;  // against a superseded grant
  if (gen > gen_) {
    if (!deferred_ || deferred_gen_ < gen) {
      deferred_ = true;
      deferred_gen_ = gen;
      deferred_mode_ = max_mode;
    }
    return 0;
  }
  if (revoking_) {  // a deeper demand for the same grant folds into it
    if (max_mode <= target_) target_ = max_mode;
    return 0;
  }
  if (mode_ <= max_mode) return kDemandDone;  // already compliant (a duplicate)
  revoking_ = true;
  target_ = max_mode;
  return kRevoke;
}

FileLock::Io FileLock::redemand() {
  deferred_ = false;
  return demand(deferred_mode_, deferred_gen_);
}

FileLock::Io FileLock::demand_done() {
  if (!revoking_) return 0;
  revoking_ = false;
  return (mode_ > target_ ? downgrade(target_) : 0) | kDemandDone | kPump;
}

FileLock::Io FileLock::downgrade(LockMode to) {
  mode_ = to;
  ++seq_;
  return to == LockMode::kNone ? kInvalidate | kReleased : 0;
}

FileLock::Io FileLock::unusable() {
  mode_ = LockMode::kNone;
  ++seq_;
  return kInvalidate;
}

FileLock::Io FileLock::object_expired() {
  want_ = LockMode::kNone;
  return unusable();
}

void FileLock::new_incarnation() {
  FileLock fresh;
  fresh.mode_ = mode_;
  fresh.seq_ = seq_;
  *this = fresh;
}

bool FileLock::reassert() {
  new_incarnation();
  reasserting_ = mode_ != LockMode::kNone;
  return reasserting_;
}

FileLock::Io FileLock::reassert_granted(std::uint32_t gen, std::uint64_t cookie) {
  gen_ = gen;
  cookie_ = cookie;
  reasserting_ = false;
  return kSettle | kPump;
}

FileLock::Io FileLock::reassert_refused() {
  reasserting_ = false;
  return unusable() | kPump;  // the waiters held meanwhile ask afresh
}

void FileLock::lease_expired() {
  FileLock fresh;
  fresh.gen_ = gen_;
  fresh.cookie_ = cookie_;
  fresh.seq_ = seq_ + 1;
  *this = fresh;
}

}  // namespace stank::client
