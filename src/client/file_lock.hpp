// One file's data-lock status in the client, as one explicit state machine
// (DESIGN.md §7). The client feeds it protocol events and performs the I/O
// each transition returns; it never writes a lock field itself. A stale or
// illegal event (a grant or demand for an older generation, a demand-done
// with no revocation under way) leaves the record unchanged.
#pragma once

#include <cstdint>

#include "common/result.hpp"
#include "protocol/messages.hpp"

namespace stank::client {

class FileLock {
 public:
  using LockMode = protocol::LockMode;  // ordered by strength: kNone < kShared < kExclusive

  enum class State : std::uint8_t {
    kNone,         // nothing held, nothing asked for
    kAcquiring,    // nothing held; a LockReq is in flight
    kHeld,         // mode() held under grant gen()
    kUpgrading,    // mode() held; a LockReq for a stronger mode is in flight
    kRevoking,     // serving a demand: drain, flush, then cede to its target
    kReasserting,  // mode() held across a server restart; ReassertLockReq in flight
  };

  // The I/O a transition asks of the client, as bits, performed in this order.
  using Io = std::uint8_t;
  static constexpr Io kInvalidate = 1 << 0;  // drop the file's cached pages, dirty ones too
  static constexpr Io kReleased = 1 << 1;    // tell the lease the lock is gone
  static constexpr Io kAcquired = 1 << 2;    // tell the lease a grant arrived
  static constexpr Io kDemandDone = 1 << 3;  // send DemandDoneReq{mode(), gen(), cookie()}
  static constexpr Io kSettle = 1 << 4;      // resume the waiters mode() now covers
  static constexpr Io kRedemand = 1 << 5;    // the deferred demand is current: redemand()
  static constexpr Io kRevoke = 1 << 6;      // drain and flush the file, then demand_done()
  static constexpr Io kPump = 1 << 7;        // request what the waiters still need

  // --- Queries -------------------------------------------------------------
  [[nodiscard]] State state() const;
  [[nodiscard]] LockMode mode() const { return mode_; }
  [[nodiscard]] bool revoking() const { return revoking_; }
  [[nodiscard]] bool reasserting() const { return reasserting_; }
  // Generation of the grant mode() came from, and its per-grant secret,
  // echoed in UnlockReq / DemandDoneReq (see protocol/messages.hpp).
  [[nodiscard]] std::uint32_t gen() const { return gen_; }
  [[nodiscard]] std::uint64_t cookie() const { return cookie_; }
  // Bumped on every change of mode(). Generations identify steals, not
  // transfers, so an async op captures this instead to detect that the lock
  // it was issued under survived an intervening round.
  [[nodiscard]] std::uint64_t seq() const { return seq_; }
  // An op needing `want` may proceed now. An exclusive one must not overtake
  // a revocation: a page dirtied between its flush and the downgrade would
  // survive under an insufficient lock. None may run on a lock the restarted
  // server has not confirmed yet.
  [[nodiscard]] bool admits(LockMode want) const;
  // The one admission check for anything that dirties the cache. Nothing may
  // once the lease's phase 4 has begun (`flushing`, kLeaseExpired): that
  // flush is the last one. Otherwise only under the exclusive lock of
  // transition `seq`, confirmed by the server (kLockConflict); a revocation
  // drains a read-modify-write fill already `in_flight` but admits no new
  // write.
  [[nodiscard]] Status may_dirty(std::uint64_t seq, bool flushing, bool in_flight) const;
  // A page fetched under grant `gen` may enter the cache clean.
  [[nodiscard]] bool may_cache_clean(std::uint32_t gen) const {
    return gen == gen_ && mode_ != LockMode::kNone;
  }

  // --- Events --------------------------------------------------------------
  // The waiters need `want`: true if a LockReq must go out, false if mode()
  // or one already in flight covers it.
  bool request(LockMode want);
  // The LockReq in flight was answered (granted or refused) or timed out.
  void request_done() { want_ = LockMode::kNone; }
  // A grant, from a LockReply or a pushed LockGrant.
  Io grant(LockMode mode, std::uint32_t gen, std::uint64_t cookie);
  // A demand to cede to at most `max_mode`. One for a generation not yet
  // granted (reordered delivery) waits for that grant.
  Io demand(LockMode max_mode, std::uint32_t gen);
  Io redemand();
  // The revocation flush is done (or was not needed): cede.
  Io demand_done();
  // release(): cede to `to` (any flush is done); the client sends UnlockReq.
  // Applied as given, as release() always has: not checked against mode().
  Io downgrade(LockMode to);
  // The lease no longer covers the lock: found at use (unusable), or pushed
  // by a per-object lease, which also drops the request in flight.
  Io unusable();
  Io object_expired();
  // The server lost our session: grants, cookies and every exchange in
  // flight belong to its old life. reassert() also returns whether a
  // ReassertLockReq for mode() must go out; until it is answered, mode() and
  // the file's dirty pages are kept but admit nothing.
  void new_incarnation();
  bool reassert();
  // Sets the generation even if a fresh grant overtook the reply, as the
  // client always has, and resumes the waiters held meanwhile.
  Io reassert_granted(std::uint32_t gen, std::uint64_t cookie);
  // A refusal ends a reassertion. A lost reply leaves it standing until the
  // lease from before the restart has flushed the file's dirty pages in its
  // phase 4; the client treats one lost after that as a refusal.
  Io reassert_refused();
  // The client lease expired: every lock is gone (the cache with it).
  void lease_expired();

  friend bool operator==(const FileLock&, const FileLock&) = default;

 private:
  LockMode mode_{LockMode::kNone};
  LockMode want_{LockMode::kNone};  // strongest mode asked for and not yet answered
  LockMode target_{LockMode::kNone};  // revoking: the most the demand lets us keep
  LockMode deferred_mode_{LockMode::kNone};
  bool revoking_{false};
  bool reasserting_{false};
  bool deferred_{false};  // a demand for deferred_gen_ waits for its grant
  std::uint32_t gen_{0};
  std::uint32_t deferred_gen_{0};
  std::uint64_t cookie_{0};
  std::uint64_t seq_{0};
};

}  // namespace stank::client
