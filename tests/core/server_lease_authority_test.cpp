#include "core/server_lease_authority.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace stank::core {
namespace {

LeaseConfig cfg(std::int64_t tau_s = 10, double eps = 0.01) {
  LeaseConfig c;
  c.tau = sim::local_seconds(tau_s);
  c.epsilon = eps;
  return c;
}

struct Fixture final : ServerLease::Owner {
  sim::Engine engine;
  sim::NodeClock clock;
  metrics::Counters counters;
  std::vector<NodeId> stolen;
  ServerLeaseAuthority authority;

  explicit Fixture(LeaseConfig c = cfg(), double rate = 1.0)
      : clock(engine, sim::LocalClock(rate)), authority(clock, c, counters, *this) {}

  void lease_steal(NodeId n) override { stolen.push_back(n); }
  [[nodiscard]] std::vector<FileId> lease_held_files(NodeId /*client*/) const override {
    return {};
  }

  void run_to(double t_s) { engine.run_until(sim::SimTime{} + sim::seconds_d(t_s)); }
};

TEST(LeaseAuthority, PassiveByDefault) {
  Fixture f;
  // No state, no ops, everyone may be ACKed: the paper's core claim.
  EXPECT_TRUE(f.authority.may_ack(NodeId{100}));
  EXPECT_EQ(f.authority.standing(NodeId{100}), ClientStanding::kGood);
  EXPECT_EQ(f.authority.state_bytes(), 0u);
  EXPECT_EQ(f.counters.lease_ops, 0u);
  f.run_to(1000.0);
  EXPECT_EQ(f.counters.lease_ops, 0u);
}

TEST(LeaseAuthority, DeliveryFailureStartsTimer) {
  Fixture f;
  f.authority.on_delivery_failure(NodeId{100});
  EXPECT_TRUE(f.authority.is_suspect(NodeId{100}));
  EXPECT_FALSE(f.authority.may_ack(NodeId{100}));
  EXPECT_GT(f.authority.state_bytes(), 0u);
  EXPECT_EQ(f.authority.suspect_count(), 1u);
  // Other clients unaffected.
  EXPECT_TRUE(f.authority.may_ack(NodeId{101}));
}

TEST(LeaseAuthority, StealsExactlyAfterTauTimesOnePlusEps) {
  Fixture f(cfg(10, 0.01));
  f.engine.schedule_at(sim::SimTime{} + sim::seconds_d(5.0),
                       [&]() { f.authority.on_delivery_failure(NodeId{100}); });
  f.run_to(5.0 + 10.0 * 1.01 - 0.01);
  EXPECT_TRUE(f.stolen.empty());
  f.run_to(5.0 + 10.0 * 1.01 + 0.01);
  ASSERT_EQ(f.stolen.size(), 1u);
  EXPECT_EQ(f.stolen[0], NodeId{100});
  EXPECT_TRUE(f.authority.is_failed(NodeId{100}));
  EXPECT_FALSE(f.authority.may_ack(NodeId{100}));  // still barred until re-register
}

TEST(LeaseAuthority, TimerMeasuredOnOwnClock) {
  // Server clock runs at half speed: local tau(1+eps) takes twice as long in
  // true time.
  Fixture f(cfg(10, 0.0), 0.5);
  f.authority.on_delivery_failure(NodeId{100});
  f.run_to(19.9);
  EXPECT_TRUE(f.stolen.empty());
  f.run_to(20.1);
  EXPECT_EQ(f.stolen.size(), 1u);
}

TEST(LeaseAuthority, DuplicateFailuresIdempotent) {
  Fixture f;
  f.authority.on_delivery_failure(NodeId{100});
  f.authority.on_delivery_failure(NodeId{100});
  f.authority.on_delivery_failure(NodeId{100});
  f.run_to(100.0);
  EXPECT_EQ(f.stolen.size(), 1u);
}

TEST(LeaseAuthority, IndependentClientsIndependentTimers) {
  Fixture f(cfg(10, 0.0));
  f.authority.on_delivery_failure(NodeId{100});
  f.engine.schedule_at(sim::SimTime{} + sim::seconds_d(3.0),
                       [&]() { f.authority.on_delivery_failure(NodeId{101}); });
  f.run_to(10.5);
  ASSERT_EQ(f.stolen.size(), 1u);
  EXPECT_EQ(f.stolen[0], NodeId{100});
  f.run_to(13.5);
  ASSERT_EQ(f.stolen.size(), 2u);
  EXPECT_EQ(f.stolen[1], NodeId{101});
}

TEST(LeaseAuthority, ConservativeReregisterRefusedWhileSuspect) {
  Fixture f;
  f.authority.on_delivery_failure(NodeId{100});
  EXPECT_FALSE(f.authority.try_reregister(NodeId{100}));
  EXPECT_TRUE(f.authority.is_suspect(NodeId{100}));
  f.run_to(100.0);  // timer fires
  EXPECT_TRUE(f.authority.try_reregister(NodeId{100}));
  EXPECT_EQ(f.authority.standing(NodeId{100}), ClientStanding::kGood);
  EXPECT_EQ(f.authority.state_bytes(), 0u);  // back to zero state
}

TEST(LeaseAuthority, ReregisterOfGoodClientIsNoop) {
  Fixture f;
  EXPECT_TRUE(f.authority.try_reregister(NodeId{100}));
  EXPECT_EQ(f.counters.lease_ops, 0u);
}

TEST(LeaseAuthority, LeaseOpsCountedOnlyOnFailures) {
  Fixture f;
  f.authority.on_delivery_failure(NodeId{100});
  f.run_to(100.0);
  EXPECT_TRUE(f.authority.try_reregister(NodeId{100}));
  // mark-suspect + timer-fire + reregister = 3 ops, all failure-driven.
  EXPECT_EQ(f.counters.lease_ops, 3u);
}

TEST(LeaseAuthority, StateBytesScaleWithSuspects) {
  Fixture f;
  EXPECT_EQ(f.authority.state_bytes(), 0u);
  f.authority.on_delivery_failure(NodeId{100});
  const auto one = f.authority.state_bytes();
  f.authority.on_delivery_failure(NodeId{101});
  EXPECT_EQ(f.authority.state_bytes(), 2 * one);
}

TEST(LeaseAuthority, CountsByStanding) {
  Fixture f(cfg(1, 0.0));
  f.authority.on_delivery_failure(NodeId{100});
  f.authority.on_delivery_failure(NodeId{101});
  EXPECT_EQ(f.authority.suspect_count(), 2u);
  EXPECT_EQ(f.authority.failed_count(), 0u);
  f.run_to(2.0);
  EXPECT_EQ(f.authority.suspect_count(), 0u);
  EXPECT_EQ(f.authority.failed_count(), 2u);
}

TEST(LeaseAuthority, StandingChangesRecordedInOrder) {
  Fixture f(cfg(1, 0.0));
  obs::Recorder rec;
  f.authority.set_recorder(&rec, NodeId{1});
  f.authority.on_delivery_failure(NodeId{100});
  f.run_to(2.0);
  ASSERT_TRUE(f.authority.try_reregister(NodeId{100}));
  ASSERT_EQ(rec.dropped_events(), 0u);
  std::vector<ClientStanding> seq;
  rec.visit_node(NodeId{1}, [&](const obs::Event& e) {
    if (e.kind != obs::EventKind::kStandingChange) return;
    EXPECT_EQ(e.a, 100u);
    seq.push_back(static_cast<ClientStanding>(e.b));
  });
  EXPECT_EQ(seq, (std::vector<ClientStanding>{ClientStanding::kSuspect, ClientStanding::kFailed,
                                              ClientStanding::kGood}));
}

}  // namespace
}  // namespace stank::core
