// FileLock in isolation: every (state, event) pair, the admission queries in
// every state, the deferred demand, and the queries' edge cases.
#include "client/file_lock.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <utility>

namespace stank::client {
namespace {

using protocol::LockMode;
using State = FileLock::State;
using Io = FileLock::Io;

constexpr LockMode kN = LockMode::kNone;
constexpr LockMode kS = LockMode::kShared;
constexpr LockMode kX = LockMode::kExclusive;
constexpr Io kGranted = FileLock::kAcquired | FileLock::kSettle | FileLock::kPump;
constexpr Io kDropped = FileLock::kInvalidate | FileLock::kReleased;
constexpr Io kInv = FileLock::kInvalidate;
constexpr Io kResume = FileLock::kSettle | FileLock::kPump;
constexpr Io kRefused = FileLock::kInvalidate | FileLock::kPump;

// One record in each state, reached through events from a fresh one. Every
// holder was granted at generation 1 (a reasserting one has generation 0).
std::map<std::string, FileLock> starts() {
  std::map<std::string, FileLock> s;
  s["none"] = FileLock{};
  s["acquiring"].request(kX);
  s["held_s"].grant(kS, 1, 11);
  s["held_x"].grant(kX, 1, 11);
  s["upgrading"].grant(kS, 1, 11);
  s["upgrading"].request(kX);
  s["revoking"].grant(kX, 1, 11);
  s["revoking"].demand(kN, 1);
  s["reasserting"].grant(kX, 1, 11);
  s["reasserting"].reassert();
  return s;
}

// Each event returns its Io, or its bool as 0/1; events that return nothing
// return 0. Generations are relative to the record's own.
using Event = std::function<int(FileLock&)>;
std::map<std::string, Event> events() {
  std::map<std::string, Event> e;
  e["grant_fresh"] = [](FileLock& l) { return l.grant(kX, l.gen() + 1, 22); };
  e["grant_stale"] = [](FileLock& l) { return l.grant(kX, l.gen(), 22); };
  e["demand_current"] = [](FileLock& l) { return l.demand(kN, l.gen()); };
  e["demand_old"] = [](FileLock& l) { return l.demand(kN, l.gen() - 1); };
  e["demand_future"] = [](FileLock& l) { return l.demand(kN, l.gen() + 1); };
  e["demand_done"] = [](FileLock& l) { return l.demand_done(); };
  e["downgrade_none"] = [](FileLock& l) { return l.downgrade(kN); };
  e["unusable"] = [](FileLock& l) { return l.unusable(); };
  e["object_expired"] = [](FileLock& l) { return l.object_expired(); };
  e["reassert"] = [](FileLock& l) { return static_cast<int>(l.reassert()); };
  e["reassert_granted"] = [](FileLock& l) { return l.reassert_granted(7, 77); };
  e["reassert_refused"] = [](FileLock& l) { return l.reassert_refused(); };
  e["lease_expired"] = [](FileLock& l) { return l.lease_expired(), 0; };
  e["new_incarnation"] = [](FileLock& l) { return l.new_incarnation(), 0; };
  e["request_x"] = [](FileLock& l) { return static_cast<int>(l.request(kX)); };
  e["request_done"] = [](FileLock& l) { return l.request_done(), 0; };
  // The admission queries, as events that change nothing.
  e["admits_s"] = [](FileLock& l) { return static_cast<int>(l.admits(kS)); };
  e["admits_x"] = [](FileLock& l) { return static_cast<int>(l.admits(kX)); };
  e["may_dirty"] = [](FileLock& l) {
    return static_cast<int>(l.may_dirty(l.seq(), false, false).is_ok());
  };
  return e;
}

struct Expect {
  State state;
  LockMode mode;
  int io;
  bool unchanged;  // a no-op: the record compares equal to the start
};

// The full table, admission queries included. demand_old needs a generation
// below the record's, so the three records at generation 0 have no such row.
const std::map<std::pair<std::string, std::string>, Expect>& table() {
  static const std::map<std::pair<std::string, std::string>, Expect> t = {
      {{"none", "grant_fresh"}, {State::kHeld, kX, kGranted, false}},
      {{"none", "grant_stale"}, {State::kNone, kN, 0, true}},
      {{"none", "demand_current"}, {State::kNone, kN, FileLock::kDemandDone, true}},
      {{"none", "demand_future"}, {State::kNone, kN, 0, false}},
      {{"none", "demand_done"}, {State::kNone, kN, 0, true}},
      {{"none", "downgrade_none"}, {State::kNone, kN, kDropped, false}},
      {{"none", "unusable"}, {State::kNone, kN, kInv, false}},
      {{"none", "object_expired"}, {State::kNone, kN, kInv, false}},
      {{"none", "reassert"}, {State::kNone, kN, 0, true}},
      {{"none", "reassert_granted"}, {State::kNone, kN, kResume, false}},
      {{"none", "reassert_refused"}, {State::kNone, kN, kRefused, false}},
      {{"none", "lease_expired"}, {State::kNone, kN, 0, false}},
      {{"none", "new_incarnation"}, {State::kNone, kN, 0, true}},
      {{"none", "request_x"}, {State::kAcquiring, kN, 1, false}},
      {{"none", "request_done"}, {State::kNone, kN, 0, true}},
      {{"none", "admits_s"}, {State::kNone, kN, 0, true}},
      {{"none", "admits_x"}, {State::kNone, kN, 0, true}},
      {{"none", "may_dirty"}, {State::kNone, kN, 0, true}},

      {{"acquiring", "grant_fresh"}, {State::kHeld, kX, kGranted, false}},
      {{"acquiring", "grant_stale"}, {State::kAcquiring, kN, 0, true}},
      {{"acquiring", "demand_current"}, {State::kAcquiring, kN, FileLock::kDemandDone, true}},
      {{"acquiring", "demand_future"}, {State::kAcquiring, kN, 0, false}},
      {{"acquiring", "demand_done"}, {State::kAcquiring, kN, 0, true}},
      {{"acquiring", "downgrade_none"}, {State::kAcquiring, kN, kDropped, false}},
      {{"acquiring", "unusable"}, {State::kAcquiring, kN, kInv, false}},
      {{"acquiring", "object_expired"}, {State::kNone, kN, kInv, false}},
      {{"acquiring", "reassert"}, {State::kNone, kN, 0, false}},
      {{"acquiring", "reassert_granted"}, {State::kAcquiring, kN, kResume, false}},
      {{"acquiring", "reassert_refused"}, {State::kAcquiring, kN, kRefused, false}},
      {{"acquiring", "lease_expired"}, {State::kNone, kN, 0, false}},
      {{"acquiring", "new_incarnation"}, {State::kNone, kN, 0, false}},
      {{"acquiring", "request_x"}, {State::kAcquiring, kN, 0, true}},
      {{"acquiring", "request_done"}, {State::kNone, kN, 0, false}},
      {{"acquiring", "admits_s"}, {State::kAcquiring, kN, 0, true}},
      {{"acquiring", "admits_x"}, {State::kAcquiring, kN, 0, true}},
      {{"acquiring", "may_dirty"}, {State::kAcquiring, kN, 0, true}},

      {{"held_s", "grant_fresh"}, {State::kHeld, kX, kGranted, false}},
      {{"held_s", "grant_stale"}, {State::kHeld, kS, 0, true}},
      {{"held_s", "demand_current"}, {State::kRevoking, kS, FileLock::kRevoke, false}},
      {{"held_s", "demand_old"}, {State::kHeld, kS, 0, true}},
      {{"held_s", "demand_future"}, {State::kHeld, kS, 0, false}},
      {{"held_s", "demand_done"}, {State::kHeld, kS, 0, true}},
      {{"held_s", "downgrade_none"}, {State::kNone, kN, kDropped, false}},
      {{"held_s", "unusable"}, {State::kNone, kN, kInv, false}},
      {{"held_s", "object_expired"}, {State::kNone, kN, kInv, false}},
      {{"held_s", "reassert"}, {State::kReasserting, kS, 1, false}},
      {{"held_s", "reassert_granted"}, {State::kHeld, kS, kResume, false}},
      {{"held_s", "reassert_refused"}, {State::kNone, kN, kRefused, false}},
      {{"held_s", "lease_expired"}, {State::kNone, kN, 0, false}},
      {{"held_s", "new_incarnation"}, {State::kHeld, kS, 0, false}},
      {{"held_s", "request_x"}, {State::kUpgrading, kS, 1, false}},
      {{"held_s", "request_done"}, {State::kHeld, kS, 0, true}},
      {{"held_s", "admits_s"}, {State::kHeld, kS, 1, true}},
      {{"held_s", "admits_x"}, {State::kHeld, kS, 0, true}},
      {{"held_s", "may_dirty"}, {State::kHeld, kS, 0, true}},

      {{"held_x", "grant_fresh"}, {State::kHeld, kX, kGranted, false}},
      {{"held_x", "grant_stale"}, {State::kHeld, kX, 0, true}},
      {{"held_x", "demand_current"}, {State::kRevoking, kX, FileLock::kRevoke, false}},
      {{"held_x", "demand_old"}, {State::kHeld, kX, 0, true}},
      {{"held_x", "demand_future"}, {State::kHeld, kX, 0, false}},
      {{"held_x", "demand_done"}, {State::kHeld, kX, 0, true}},
      {{"held_x", "downgrade_none"}, {State::kNone, kN, kDropped, false}},
      {{"held_x", "unusable"}, {State::kNone, kN, kInv, false}},
      {{"held_x", "object_expired"}, {State::kNone, kN, kInv, false}},
      {{"held_x", "reassert"}, {State::kReasserting, kX, 1, false}},
      {{"held_x", "reassert_granted"}, {State::kHeld, kX, kResume, false}},
      {{"held_x", "reassert_refused"}, {State::kNone, kN, kRefused, false}},
      {{"held_x", "lease_expired"}, {State::kNone, kN, 0, false}},
      {{"held_x", "new_incarnation"}, {State::kHeld, kX, 0, false}},
      {{"held_x", "request_x"}, {State::kHeld, kX, 0, true}},
      {{"held_x", "request_done"}, {State::kHeld, kX, 0, true}},
      {{"held_x", "admits_s"}, {State::kHeld, kX, 1, true}},
      {{"held_x", "admits_x"}, {State::kHeld, kX, 1, true}},
      {{"held_x", "may_dirty"}, {State::kHeld, kX, 1, true}},

      {{"upgrading", "grant_fresh"}, {State::kHeld, kX, kGranted, false}},
      {{"upgrading", "grant_stale"}, {State::kUpgrading, kS, 0, true}},
      {{"upgrading", "demand_current"}, {State::kRevoking, kS, FileLock::kRevoke, false}},
      {{"upgrading", "demand_old"}, {State::kUpgrading, kS, 0, true}},
      {{"upgrading", "demand_future"}, {State::kUpgrading, kS, 0, false}},
      {{"upgrading", "demand_done"}, {State::kUpgrading, kS, 0, true}},
      {{"upgrading", "downgrade_none"}, {State::kAcquiring, kN, kDropped, false}},
      {{"upgrading", "unusable"}, {State::kAcquiring, kN, kInv, false}},
      {{"upgrading", "object_expired"}, {State::kNone, kN, kInv, false}},
      {{"upgrading", "reassert"}, {State::kReasserting, kS, 1, false}},
      {{"upgrading", "reassert_granted"}, {State::kUpgrading, kS, kResume, false}},
      {{"upgrading", "reassert_refused"}, {State::kAcquiring, kN, kRefused, false}},
      {{"upgrading", "lease_expired"}, {State::kNone, kN, 0, false}},
      {{"upgrading", "new_incarnation"}, {State::kHeld, kS, 0, false}},
      {{"upgrading", "request_x"}, {State::kUpgrading, kS, 0, true}},
      {{"upgrading", "request_done"}, {State::kHeld, kS, 0, false}},
      {{"upgrading", "admits_s"}, {State::kUpgrading, kS, 1, true}},
      {{"upgrading", "admits_x"}, {State::kUpgrading, kS, 0, true}},
      {{"upgrading", "may_dirty"}, {State::kUpgrading, kS, 0, true}},

      // A revocation outlives a fresh grant, a downgrade and a lost lock; it
      // ends only in demand_done() or a reset.
      {{"revoking", "grant_fresh"}, {State::kRevoking, kX, kGranted, false}},
      {{"revoking", "grant_stale"}, {State::kRevoking, kX, 0, true}},
      {{"revoking", "demand_current"}, {State::kRevoking, kX, 0, true}},
      {{"revoking", "demand_old"}, {State::kRevoking, kX, 0, true}},
      {{"revoking", "demand_future"}, {State::kRevoking, kX, 0, false}},
      {{"revoking", "demand_done"},
       {State::kNone, kN, kDropped | FileLock::kDemandDone | FileLock::kPump, false}},
      {{"revoking", "downgrade_none"}, {State::kRevoking, kN, kDropped, false}},
      {{"revoking", "unusable"}, {State::kRevoking, kN, kInv, false}},
      {{"revoking", "object_expired"}, {State::kRevoking, kN, kInv, false}},
      {{"revoking", "reassert"}, {State::kReasserting, kX, 1, false}},
      {{"revoking", "reassert_granted"}, {State::kRevoking, kX, kResume, false}},
      {{"revoking", "reassert_refused"}, {State::kRevoking, kN, kRefused, false}},
      {{"revoking", "lease_expired"}, {State::kNone, kN, 0, false}},
      {{"revoking", "new_incarnation"}, {State::kHeld, kX, 0, false}},
      {{"revoking", "request_x"}, {State::kRevoking, kX, 0, true}},
      {{"revoking", "request_done"}, {State::kRevoking, kX, 0, true}},
      {{"revoking", "admits_s"}, {State::kRevoking, kX, 1, true}},
      {{"revoking", "admits_x"}, {State::kRevoking, kX, 0, true}},
      {{"revoking", "may_dirty"}, {State::kRevoking, kX, 0, true}},

      // A reassertion keeps mode() (and the dirty pages) but admits nothing
      // until the server grants it; the grant resumes the held waiters. A
      // lost reply is no event: only an explicit refusal drops the lock.
      {{"reasserting", "grant_fresh"}, {State::kHeld, kX, kGranted, false}},
      {{"reasserting", "grant_stale"}, {State::kReasserting, kX, 0, true}},
      {{"reasserting", "demand_current"}, {State::kRevoking, kX, FileLock::kRevoke, false}},
      {{"reasserting", "demand_future"}, {State::kReasserting, kX, 0, false}},
      {{"reasserting", "demand_done"}, {State::kReasserting, kX, 0, true}},
      {{"reasserting", "downgrade_none"}, {State::kReasserting, kN, kDropped, false}},
      {{"reasserting", "unusable"}, {State::kReasserting, kN, kInv, false}},
      {{"reasserting", "object_expired"}, {State::kReasserting, kN, kInv, false}},
      {{"reasserting", "reassert"}, {State::kReasserting, kX, 1, true}},
      {{"reasserting", "reassert_granted"}, {State::kHeld, kX, kResume, false}},
      {{"reasserting", "reassert_refused"}, {State::kNone, kN, kRefused, false}},
      {{"reasserting", "lease_expired"}, {State::kNone, kN, 0, false}},
      {{"reasserting", "new_incarnation"}, {State::kHeld, kX, 0, false}},
      {{"reasserting", "request_x"}, {State::kReasserting, kX, 0, true}},
      {{"reasserting", "request_done"}, {State::kReasserting, kX, 0, true}},
      {{"reasserting", "admits_s"}, {State::kReasserting, kX, 0, true}},
      {{"reasserting", "admits_x"}, {State::kReasserting, kX, 0, true}},
      {{"reasserting", "may_dirty"}, {State::kReasserting, kX, 0, true}},
  };
  return t;
}

TEST(FileLock, StartStates) {
  const auto s = starts();
  EXPECT_EQ(s.at("none").state(), State::kNone);
  EXPECT_EQ(s.at("acquiring").state(), State::kAcquiring);
  EXPECT_EQ(s.at("held_s").state(), State::kHeld);
  EXPECT_EQ(s.at("held_x").state(), State::kHeld);
  EXPECT_EQ(s.at("upgrading").state(), State::kUpgrading);
  EXPECT_EQ(s.at("revoking").state(), State::kRevoking);
  EXPECT_EQ(s.at("reasserting").state(), State::kReasserting);
}

TEST(FileLock, EveryStateEventPair) {
  std::size_t walked = 0;
  for (const auto& [start_name, start] : starts()) {
    for (const auto& [event_name, event] : events()) {
      const auto row = table().find({start_name, event_name});
      if (row == table().end()) {
        EXPECT_TRUE(event_name == "demand_old" && start.gen() == 0)
            << "no row for (" << start_name << ", " << event_name << ")";
        continue;
      }
      const Expect& want = row->second;
      FileLock lock = start;
      const int io = event(lock);
      const std::string where = start_name + " x " + event_name;
      EXPECT_EQ(lock.state(), want.state) << where;
      EXPECT_EQ(lock.mode(), want.mode) << where;
      EXPECT_EQ(io, want.io) << where;
      EXPECT_EQ(lock == start, want.unchanged) << where;
      ++walked;
    }
  }
  EXPECT_EQ(walked, table().size());
}

// Every transition that changes mode() bumps seq(); the others leave it.
TEST(FileLock, SeqMovesWithTheMode) {
  FileLock lock;
  lock.grant(kX, 1, 11);
  EXPECT_EQ(lock.seq(), 1u);
  lock.demand(kS, 1);
  EXPECT_EQ(lock.seq(), 1u);
  lock.demand_done();
  EXPECT_EQ(lock.mode(), kS);
  EXPECT_EQ(lock.seq(), 2u);
  lock.new_incarnation();
  EXPECT_EQ(lock.seq(), 2u);
  lock.lease_expired();
  EXPECT_EQ(lock.seq(), 3u);
}

// A demand that overtakes its grant waits for it, then runs; one for a
// generation the grant skipped past is dropped.
TEST(FileLock, DeferredDemandRunsWhenItsGrantArrives) {
  FileLock lock;
  lock.grant(kX, 1, 11);
  EXPECT_EQ(lock.demand(kS, 2), 0);
  EXPECT_EQ(lock.state(), State::kHeld);
  const Io io = lock.grant(kX, 2, 22);
  EXPECT_EQ(io, kGranted | FileLock::kRedemand);
  EXPECT_EQ(lock.redemand(), FileLock::kRevoke);
  EXPECT_EQ(lock.state(), State::kRevoking);
  EXPECT_EQ(lock.demand_done(), FileLock::kDemandDone | FileLock::kPump);
  EXPECT_EQ(lock.mode(), kS);

  FileLock skipped;
  skipped.grant(kX, 1, 11);
  skipped.demand(kN, 2);
  EXPECT_EQ(skipped.grant(kX, 3, 33), kGranted);
  EXPECT_EQ(skipped.state(), State::kHeld);
}

// A deeper demand for the same grant folds into the revocation under way.
TEST(FileLock, DeeperDemandFoldsIntoTheRevocation) {
  FileLock lock;
  lock.grant(kX, 1, 11);
  EXPECT_EQ(lock.demand(kS, 1), FileLock::kRevoke);
  EXPECT_EQ(lock.demand(kN, 1), 0);
  EXPECT_EQ(lock.demand_done(), kDropped | FileLock::kDemandDone | FileLock::kPump);
  EXPECT_EQ(lock.mode(), kN);
}

TEST(FileLock, MayDirty) {
  FileLock lock;
  lock.grant(kX, 1, 11);
  const std::uint64_t seq = lock.seq();
  EXPECT_TRUE(lock.may_dirty(seq, false, false).is_ok());
  EXPECT_EQ(lock.may_dirty(seq, true, false).error(), ErrorCode::kLeaseExpired);
  EXPECT_EQ(lock.may_dirty(seq, true, true).error(), ErrorCode::kLeaseExpired);
  EXPECT_EQ(lock.may_dirty(seq - 1, false, false).error(), ErrorCode::kLockConflict);
  lock.demand(kN, 1);  // a revocation drains fills but admits no new write
  EXPECT_EQ(lock.may_dirty(seq, false, false).error(), ErrorCode::kLockConflict);
  EXPECT_TRUE(lock.may_dirty(seq, false, true).is_ok());
  lock.demand_done();
  EXPECT_EQ(lock.may_dirty(seq, false, true).error(), ErrorCode::kLockConflict);

  FileLock shared;
  shared.grant(kS, 1, 11);
  EXPECT_EQ(shared.may_dirty(shared.seq(), false, false).error(), ErrorCode::kLockConflict);
}

TEST(FileLock, MayCacheClean) {
  FileLock lock;
  EXPECT_FALSE(lock.may_cache_clean(0));
  lock.grant(kS, 1, 11);
  EXPECT_TRUE(lock.may_cache_clean(1));
  EXPECT_FALSE(lock.may_cache_clean(0));
  lock.grant(kS, 2, 22);
  EXPECT_FALSE(lock.may_cache_clean(1));
  lock.downgrade(kN);
  EXPECT_FALSE(lock.may_cache_clean(2));
}

}  // namespace
}  // namespace stank::client
