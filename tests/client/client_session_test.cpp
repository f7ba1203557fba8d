// client::Session: every (state, event) pair against one table, and the
// queries each state answers.
#include "client/session.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>
#include <vector>

namespace stank::client {
namespace {

using State = Session::State;

constexpr State I = State::kIdle;
constexpr State R = State::kRegistering;
constexpr State B = State::kBackoff;
constexpr State S = State::kServing;
constexpr State Q = State::kQuiesced;
constexpr State RR = State::kReregistering;
constexpr State ST = State::kStale;
constexpr State C = State::kCrashed;

// Each state, reached from a fresh session by the events the client feeds it.
Session reach(State s) {
  Session x;
  if (s == C) {
    x.crash();
    return x;
  }
  if (s == I) return x;
  x.start();
  if (s == B) x.register_failed();
  if (s == R || s == B) return x;
  x.register_acked();
  if (s == Q) return x;
  x.admit(true);
  if (s == S) return x;
  x.stale();
  if (s == ST) x.register_failed();
  return x;
}

struct Event {
  std::string name;
  std::function<bool(Session&)> fire;  // void events report false
};

std::vector<Event> events() {
  return {
      {"start", [](Session& s) { return s.start(); }},
      {"restart", [](Session& s) { return s.restart(); }},
      {"retry", [](Session& s) { return s.retry(); }},
      {"register_failed", [](Session& s) { s.register_failed(); return false; }},
      {"register_acked", [](Session& s) { s.register_acked(); return false; }},
      {"admit", [](Session& s) { s.admit(true); return false; }},
      {"quiesce", [](Session& s) { s.admit(false); return false; }},
      {"stale", [](Session& s) { return s.stale(); }},
      {"expire", [](Session& s) { return s.expire(); }},
      {"crash", [](Session& s) { return s.crash(); }},
  };
}

struct Cell {
  State to;
  bool acts;
};

constexpr std::array<State, 8> kStates = {I, R, B, S, Q, RR, ST, C};

// One row per start state (kStates order), one cell per event (events()
// order): the state after the event and whether it returned true (Y).
constexpr bool Y = true;
constexpr bool N = false;
// clang-format off
constexpr Cell kTable[8][10] = {
    //        start   restart retry   failed  acked   admit   quiesce stale   expire  crash
    /* I  */ {{R, Y}, {I, N}, {I, N}, {I, N}, {I, N}, {I, N}, {I, N}, {I, N}, {I, N}, {C, Y}},
    /* R  */ {{R, N}, {R, N}, {R, N}, {B, N}, {Q, N}, {R, N}, {R, N}, {R, N}, {R, N}, {C, Y}},
    /* B  */ {{B, N}, {B, N}, {R, Y}, {B, N}, {B, N}, {B, N}, {B, N}, {B, N}, {B, N}, {C, Y}},
    /* S  */ {{S, N}, {S, N}, {S, N}, {S, N}, {S, N}, {S, N}, {Q, N}, {RR, Y}, {R, Y}, {C, Y}},
    /* Q  */ {{Q, N}, {Q, N}, {Q, N}, {Q, N}, {Q, N}, {S, N}, {Q, N}, {RR, Y}, {R, Y}, {C, Y}},
    /* RR */ {{RR, N}, {RR, N}, {RR, N}, {ST, N}, {Q, N}, {RR, N}, {RR, N}, {RR, N}, {R, Y}, {C, Y}},
    /* ST */ {{ST, N}, {ST, N}, {RR, Y}, {ST, N}, {ST, N}, {ST, N}, {ST, N}, {ST, N}, {R, Y}, {C, Y}},
    /* C  */ {{C, N}, {R, Y}, {C, N}, {C, N}, {C, N}, {C, N}, {C, N}, {C, N}, {C, N}, {C, N}},
};
// clang-format on

TEST(ClientSession, EveryStateEventPair) {
  const std::vector<Event> evs = events();
  ASSERT_EQ(evs.size(), 10u);
  std::size_t walked = 0;
  for (std::size_t si = 0; si < kStates.size(); ++si) {
    ASSERT_EQ(reach(kStates[si]).state(), kStates[si]) << "state " << si;
    for (std::size_t ei = 0; ei < evs.size(); ++ei) {
      Session s = reach(kStates[si]);
      const bool acts = evs[ei].fire(s);
      const Cell& want = kTable[si][ei];
      const std::string where = "state " + std::to_string(si) + " x " + evs[ei].name;
      EXPECT_EQ(s.state(), want.to) << where;
      EXPECT_EQ(acts, want.acts) << where;
      ++walked;
    }
  }
  EXPECT_EQ(walked, 80u);
}

// Only a registered session takes calls, and a quiesced one names why not.
TEST(ClientSession, QueriesFollowTheState) {
  struct Row {
    State s;
    bool registered;
    bool accepting;
    bool crashed;
    ErrorCode gate;
  };
  const Row rows[] = {
      {I, false, false, false, ErrorCode::kLeaseExpired},
      {R, false, false, false, ErrorCode::kLeaseExpired},
      {B, false, false, false, ErrorCode::kLeaseExpired},
      {S, true, true, false, ErrorCode::kOk},
      {Q, true, false, false, ErrorCode::kQuiesced},
      {RR, false, false, false, ErrorCode::kLeaseExpired},
      {ST, false, false, false, ErrorCode::kLeaseExpired},
      {C, false, false, true, ErrorCode::kShutdown},
  };
  for (const Row& row : rows) {
    const Session s = reach(row.s);
    const std::string where = "state " + std::to_string(static_cast<int>(row.s));
    EXPECT_EQ(s.registered(), row.registered) << where;
    EXPECT_EQ(s.accepting(), row.accepting) << where;
    EXPECT_EQ(s.crashed(), row.crashed) << where;
    EXPECT_EQ(s.gate(), row.gate) << where;
  }
}

}  // namespace
}  // namespace stank::client
