#include "baselines/heartbeat.hpp"

#include <gtest/gtest.h>

#include "owners.hpp"

namespace stank::baselines {
namespace {

const NodeId kC{100};

TEST(HeartbeatTable, RenewAndValidity) {
  metrics::Counters counters;
  TableClock c;
  HeartbeatTable t(c.clock, {}, counters, c);  // default tau: 10 s
  EXPECT_FALSE(t.valid(kC, sim::LocalTime{0}));
  t.renew(kC, sim::LocalTime{0});
  EXPECT_TRUE(t.valid(kC, sim::LocalTime{9'999'999'999}));
  EXPECT_FALSE(t.valid(kC, sim::LocalTime{10'000'000'000}));
  EXPECT_EQ(counters.lease_ops, 1u);
}

TEST(HeartbeatTable, EveryHeartbeatIsServerWork) {
  metrics::Counters counters;
  TableClock c;
  HeartbeatTable t(c.clock, {}, counters, c);  // default tau: 10 s
  for (int i = 0; i < 100; ++i) {
    t.renew(kC, sim::LocalTime{i});
  }
  EXPECT_EQ(counters.lease_ops, 100u);  // contrast: Storage Tank stays at 0
}

TEST(HeartbeatTable, StateScalesWithClients) {
  metrics::Counters counters;
  TableClock c;
  HeartbeatTable t(c.clock, {}, counters, c);  // default tau: 10 s
  EXPECT_EQ(t.state_bytes(), 0u);
  t.renew(NodeId{100}, sim::LocalTime{0});
  const auto one = t.state_bytes();
  t.renew(NodeId{101}, sim::LocalTime{0});
  EXPECT_EQ(t.state_bytes(), 2 * one);
  t.drop(NodeId{100});
  EXPECT_EQ(t.state_bytes(), one);
}

TEST(HeartbeatTable, StealTimeFromRecordedExpiry) {
  metrics::Counters counters;
  TableClock c;
  HeartbeatTable t(c.clock, {}, counters, c);  // default tau: 10 s
  t.renew(kC, sim::LocalTime{0});
  EXPECT_EQ(t.steal_time(kC, sim::LocalTime{4'000'000'000}, 0.0).ns, 10'000'000'000);
  EXPECT_EQ(t.steal_time(NodeId{9}, sim::LocalTime{123}, 0.0).ns, 123);
}

TEST(HeartbeatScheduler, BeatsUnconditionally) {
  sim::Engine engine;
  sim::NodeClock clock(engine, sim::LocalClock(1.0));
  RecordingOwner owner;
  HeartbeatClientScheduler sched(clock, sim::local_seconds(9), 1.0 / 3.0, owner);
  sched.start();
  // ACK each beat immediately.
  auto pump = std::make_shared<std::function<void()>>();
  *pump = [&, wpump = std::weak_ptr(pump)]() {
    sched.keepalive_acked(clock.now());
    engine.schedule_after(sim::millis(100), [p = wpump.lock()]() { if (p) (*p)(); });
  };
  (*pump)();
  engine.run_until(sim::SimTime{} + sim::seconds(30));
  // One beat every 3s: about 10 over 30s. That is the Frangipani cost: the
  // messages flow even though the client performed zero file operations.
  EXPECT_EQ(owner.expiries, 0) << "no expiry expected while ACKed";
  EXPECT_GE(owner.keepalives, 9);
  EXPECT_LE(owner.keepalives, 12);
}

TEST(HeartbeatScheduler, ExpiresWithoutAcks) {
  sim::Engine engine;
  sim::NodeClock clock(engine, sim::LocalClock(1.0));
  RecordingOwner owner;  // heartbeats go into a black hole
  HeartbeatClientScheduler sched(clock, sim::local_seconds(9), 1.0 / 3.0, owner);
  sched.start();
  engine.run_until(sim::SimTime{} + sim::seconds(8));
  EXPECT_EQ(owner.expiries, 0);
  engine.run_until(sim::SimTime{} + sim::seconds(10));
  EXPECT_EQ(owner.expiries, 1);
  EXPECT_FALSE(sched.running());
}

TEST(HeartbeatScheduler, StopCancelsBeats) {
  sim::Engine engine;
  sim::NodeClock clock(engine, sim::LocalClock(1.0));
  RecordingOwner owner;
  HeartbeatClientScheduler sched(clock, sim::local_seconds(9), 1.0 / 3.0, owner);
  sched.start();
  sched.stop();
  engine.run_until(sim::SimTime{} + sim::seconds(30));
  EXPECT_EQ(owner.keepalives, 1);  // only the immediate first beat
}

}  // namespace
}  // namespace stank::baselines
