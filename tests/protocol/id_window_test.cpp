#include "protocol/id_window.hpp"

#include <gtest/gtest.h>

namespace stank::protocol {
namespace {

struct Entry {
  MsgId id;
  int payload{0};
};

TEST(IdWindow, OneAdmittedIdHoldsOneEntry) {
  IdWindow<Entry> w;
  EXPECT_EQ(w.admit(MsgId{1}, 8), 0u);
  EXPECT_EQ(w.capacity(), 1u);
  ASSERT_NE(w.find(MsgId{1}), nullptr);
  EXPECT_EQ(w.find(MsgId{1})->id, MsgId{1});
  EXPECT_EQ(w.find(MsgId{2}), nullptr);
}

TEST(IdWindow, SecondIdMakesRoomForTheWholeLimit) {
  IdWindow<Entry> w;
  w.admit(MsgId{1}, 8);
  w.find(MsgId{1})->payload = 11;
  w.admit(MsgId{2}, 8);
  EXPECT_EQ(w.capacity(), 8u);
  const Entry* first = w.find(MsgId{1});
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->payload, 11);  // moved, not rebuilt
  for (std::uint64_t id = 3; id <= 8; ++id) {
    EXPECT_EQ(w.admit(MsgId{id}, 8), 0u);
    EXPECT_EQ(w.find(MsgId{3}), first + 2);  // no further allocation moves the ring
  }
  EXPECT_EQ(w.capacity(), 8u);
  EXPECT_EQ(w.entries().size(), 8u);
}

TEST(IdWindow, EvictsTheOldestInArrivalOrderAndReturnsItsId) {
  IdWindow<Entry> w;
  // Arrival order, not id order: 5 arrives before 3.
  for (std::uint64_t id : {2, 5, 3}) EXPECT_EQ(w.admit(MsgId{id}, 3), 0u);
  EXPECT_EQ(w.admit(MsgId{9}, 3), 2u);
  EXPECT_EQ(w.admit(MsgId{7}, 3), 5u);
  EXPECT_EQ(w.admit(MsgId{8}, 3), 3u);
  EXPECT_EQ(w.admit(MsgId{1}, 3), 9u);
  EXPECT_EQ(w.capacity(), 3u);
  for (std::uint64_t id : {2, 3, 5, 9}) EXPECT_EQ(w.find(MsgId{id}), nullptr) << id;
  for (std::uint64_t id : {7, 8, 1}) EXPECT_NE(w.find(MsgId{id}), nullptr) << id;
}

TEST(IdWindow, RecycledSlotStartsAfresh) {
  IdWindow<Entry> w;
  w.admit(MsgId{1}, 2);
  w.find(MsgId{1})->payload = 7;
  w.admit(MsgId{2}, 2);
  EXPECT_EQ(w.admit(MsgId{3}, 2), 1u);
  ASSERT_NE(w.find(MsgId{3}), nullptr);
  EXPECT_EQ(w.find(MsgId{3})->payload, 0);
}

TEST(IdWindow, ZeroLimitHoldsNothing) {
  IdWindow<Entry> w;
  EXPECT_EQ(w.admit(MsgId{4}, 0), 4u);
  EXPECT_EQ(w.find(MsgId{4}), nullptr);
  EXPECT_EQ(w.capacity(), 0u);
}

TEST(IdWindow, ClearForgetsIdsButKeepsTheRing) {
  IdWindow<Entry> w;
  for (std::uint64_t id = 1; id <= 4; ++id) w.admit(MsgId{id}, 4);
  w.clear();
  EXPECT_EQ(w.find(MsgId{2}), nullptr);
  EXPECT_EQ(w.capacity(), 4u);
  EXPECT_EQ(w.admit(MsgId{1}, 4), 0u);
  EXPECT_NE(w.find(MsgId{1}), nullptr);
}

}  // namespace
}  // namespace stank::protocol
