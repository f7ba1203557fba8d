// server::Session: every (state, event) pair against one table, and the
// queries each state answers.
#include "server/session.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

namespace stank::server {
namespace {

using State = Session::State;

// Each state of a registered client, reached by the events the server feeds
// it.
Session reach(State s) {
  Session x;
  x.reregister();
  if (s == State::kFencing) x.fence();
  if (s == State::kBarred) x.steal();
  return x;
}

struct Row {
  State from;
  const char* event;
  State to;
  bool acts;
  std::uint32_t epoch;
};

TEST(ServerSession, EveryStateEventPair) {
  const std::vector<std::pair<std::string, std::function<bool(Session&)>>> events = {
      {"reregister", [](Session& s) { return s.reregister(); }},
      {"fence", [](Session& s) { return s.fence(); }},
      {"steal", [](Session& s) { return s.steal(); }},
  };
  // A fence admits no new session; a steal ends a fence or an active session.
  const std::vector<Row> table = {
      {State::kActive, "reregister", State::kActive, true, 2},
      {State::kActive, "fence", State::kFencing, true, 1},
      {State::kActive, "steal", State::kBarred, true, 1},
      {State::kFencing, "reregister", State::kFencing, false, 1},
      {State::kFencing, "fence", State::kFencing, false, 1},
      {State::kFencing, "steal", State::kBarred, true, 1},
      {State::kBarred, "reregister", State::kActive, true, 2},
      {State::kBarred, "fence", State::kBarred, false, 1},
      {State::kBarred, "steal", State::kBarred, false, 1},
  };
  std::size_t walked = 0;
  for (const Row& row : table) {
    for (const auto& [name, fire] : events) {
      if (name != row.event) continue;
      Session s = reach(row.from);
      const Session before = s;
      const bool acts = fire(s);
      const std::string where = std::to_string(static_cast<int>(row.from)) + " x " + name;
      EXPECT_EQ(s.state(), row.to) << where;
      EXPECT_EQ(acts, row.acts) << where;
      EXPECT_EQ(s.epoch(), row.epoch) << where;
      EXPECT_EQ(s == before, !row.acts) << where;
      ++walked;
    }
  }
  EXPECT_EQ(walked, 3u * events.size());
}

// Valid means registered and not stolen from; only an active session is
// open to a new recovery.
TEST(ServerSession, QueriesFollowTheState) {
  const Session fresh;
  EXPECT_EQ(fresh.state(), State::kActive);
  EXPECT_EQ(fresh.epoch(), 0u);
  EXPECT_FALSE(fresh.valid());
  EXPECT_FALSE(fresh.recovering());

  EXPECT_TRUE(reach(State::kActive).valid());
  EXPECT_FALSE(reach(State::kActive).recovering());
  EXPECT_TRUE(reach(State::kFencing).valid());
  EXPECT_TRUE(reach(State::kFencing).recovering());
  EXPECT_FALSE(reach(State::kBarred).valid());
  EXPECT_TRUE(reach(State::kBarred).recovering());
}

}  // namespace
}  // namespace stank::server
