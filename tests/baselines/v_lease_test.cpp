#include "baselines/v_lease.hpp"

#include <gtest/gtest.h>

#include "owners.hpp"

namespace stank::baselines {
namespace {

const NodeId kC{100};
const FileId kF{1}, kG{2};

TEST(VLeaseTable, RenewAndValidity) {
  metrics::Counters counters;
  TableClock c;
  VLeaseTable t(c.clock, {}, counters, c);  // default tau: 10 s
  t.renew(kC, kF, sim::LocalTime{0});
  EXPECT_TRUE(t.valid(kC, kF, sim::LocalTime{9'999'999'999}));
  EXPECT_FALSE(t.valid(kC, kF, sim::LocalTime{10'000'000'000}));
  EXPECT_FALSE(t.valid(kC, kG, sim::LocalTime{0}));  // unknown object
  EXPECT_EQ(counters.lease_ops, 1u);
}

TEST(VLeaseTable, StateScalesWithObjects) {
  metrics::Counters counters;
  TableClock c;
  VLeaseTable t(c.clock, {}, counters, c);  // default tau: 10 s
  EXPECT_EQ(t.state_bytes(), 0u);
  t.renew(kC, kF, sim::LocalTime{0});
  const auto one = t.state_bytes();
  t.renew(kC, kG, sim::LocalTime{0});
  t.renew(NodeId{101}, kF, sim::LocalTime{0});
  EXPECT_EQ(t.state_bytes(), 3 * one);
  EXPECT_EQ(t.entries(), 3u);
}

TEST(VLeaseTable, DropAndDropClient) {
  metrics::Counters counters;
  TableClock c;
  VLeaseTable t(c.clock, {}, counters, c);  // default tau: 10 s
  t.renew(kC, kF, sim::LocalTime{0});
  t.renew(kC, kG, sim::LocalTime{0});
  t.renew(NodeId{101}, kF, sim::LocalTime{0});
  t.drop(kC, kF);
  EXPECT_EQ(t.entries(), 2u);
  t.drop_client(kC);
  EXPECT_EQ(t.entries(), 1u);
  EXPECT_TRUE(t.valid(NodeId{101}, kF, sim::LocalTime{1}));
}

TEST(VLeaseTable, StealTimeScalesRemainingByEps) {
  metrics::Counters counters;
  TableClock c;
  VLeaseTable t(c.clock, {}, counters, c);  // default tau: 10 s
  t.renew(kC, kF, sim::LocalTime{0});
  // At t=0 the full lease remains: wait 10 * 1.01.
  EXPECT_EQ(t.steal_time(kC, kF, sim::LocalTime{0}, 0.01).ns, 10'100'000'000);
  // Unknown object: steal immediately.
  EXPECT_EQ(t.steal_time(kC, kG, sim::LocalTime{55}, 0.01).ns, 55);
}

TEST(VLeaseScheduler, RenewsEachObjectIndependently) {
  sim::Engine engine;
  sim::NodeClock clock(engine, sim::LocalClock(1.0));
  RecordingOwner owner;
  VLeaseClientScheduler sched(clock, sim::local_seconds(10), 0.5, owner);
  sched.object_acquired(kF);
  sched.object_acquired(kG);
  // Acknowledge every renewal promptly.
  auto pump = std::make_shared<std::function<void()>>();
  *pump = [&, wpump = std::weak_ptr(pump)]() {
    for (FileId f : owner.renewals) {
      sched.object_renewed(f, clock.now());
    }
    owner.renewals.clear();
    engine.schedule_after(sim::millis(100), [p = wpump.lock()]() { if (p) (*p)(); });
  };
  (*pump)();
  engine.run_until(sim::SimTime{} + sim::seconds(30));
  EXPECT_TRUE(owner.expired.empty()) << "should not expire while renewing";
  EXPECT_EQ(sched.tracked_objects(), 2u);
  // Roughly one renewal per object per 5s (0.5 * tau): ~6 each over 30s.
  EXPECT_GE(sched.renewals_sent(), 8u);
}

TEST(VLeaseScheduler, ExpiresObjectWhenRenewalsUnanswered) {
  sim::Engine engine;
  sim::NodeClock clock(engine, sim::LocalClock(1.0));
  RecordingOwner owner;  // renewals go into a black hole
  VLeaseClientScheduler sched(clock, sim::local_seconds(10), 0.5, owner);
  sched.object_acquired(kF);
  engine.run_until(sim::SimTime{} + sim::seconds(11));
  ASSERT_EQ(owner.expired.size(), 1u);
  EXPECT_EQ(owner.expired[0], kF);
  EXPECT_EQ(sched.tracked_objects(), 0u);
}

TEST(VLeaseScheduler, ReleaseStopsRenewals) {
  sim::Engine engine;
  sim::NodeClock clock(engine, sim::LocalClock(1.0));
  RecordingOwner owner;
  VLeaseClientScheduler sched(clock, sim::local_seconds(10), 0.5, owner);
  sched.object_acquired(kF);
  sched.object_released(kF);
  engine.run_until(sim::SimTime{} + sim::seconds(30));
  EXPECT_TRUE(owner.renewals.empty());
}

}  // namespace
}  // namespace stank::baselines
