#include "core/client_lease_agent.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace stank::core {
namespace {

// Default config: tau = 10s, phases at 5s / 7.5s / 8.5s; keep-alives every
// LeaseConfig::kKeepaliveRetry.
LeaseConfig cfg(std::int64_t tau_s = 10) {
  LeaseConfig c;
  c.tau = sim::local_seconds(tau_s);
  c.epsilon = 1e-4;
  return c;
}

struct Fixture final : ClientLease::Owner {
  sim::Engine engine;
  sim::NodeClock clock;
  int keepalives{0};
  int quiesces{0};
  int flushes{0};
  int expirations{0};
  std::vector<std::pair<LeasePhase, LeasePhase>> transitions;
  ClientLeaseAgent agent;

  explicit Fixture(LeaseConfig c = cfg(), double rate = 1.0)
      : clock(engine, sim::LocalClock(rate)), agent(clock, c, *this) {}

  // Keep-alives are counted instead of sent.
  void lease_keepalive() override { ++keepalives; }
  void lease_renew_object(FileId /*file*/) override {}
  void lease_quiesce() override { ++quiesces; }
  void lease_flush() override { ++flushes; }
  void handle_lease_expired() override { ++expirations; }
  void lease_object_expired(FileId /*file*/) override {}
  void lease_phase_changed(LeasePhase from, LeasePhase to) override {
    transitions.emplace_back(from, to);
  }

  void run_to(double t_s) { engine.run_until(sim::SimTime{} + sim::seconds_d(t_s)); }
};

TEST(LeaseAgent, StartsWithoutLease) {
  Fixture f;
  EXPECT_EQ(f.agent.phase(), LeasePhase::kNoLease);
  EXPECT_FALSE(f.agent.fs_ops_allowed());
  EXPECT_FALSE(f.agent.lease_valid());
}

TEST(LeaseAgent, WalksAllFourPhasesWithoutRenewal) {
  Fixture f;
  f.agent.restart(sim::LocalTime{0});
  EXPECT_EQ(f.agent.phase(), LeasePhase::kActive);
  EXPECT_TRUE(f.agent.fs_ops_allowed());

  f.run_to(4.99);
  EXPECT_EQ(f.agent.phase(), LeasePhase::kActive);
  f.run_to(5.01);
  EXPECT_EQ(f.agent.phase(), LeasePhase::kRenewal);
  EXPECT_TRUE(f.agent.fs_ops_allowed());  // still serving in phase 2
  f.run_to(7.51);
  EXPECT_EQ(f.agent.phase(), LeasePhase::kSuspect);
  EXPECT_FALSE(f.agent.fs_ops_allowed());  // quiesced
  EXPECT_EQ(f.quiesces, 1);
  f.run_to(8.51);
  EXPECT_EQ(f.agent.phase(), LeasePhase::kFlush);
  EXPECT_EQ(f.flushes, 1);
  EXPECT_TRUE(f.agent.lease_valid());  // valid until the very end
  f.run_to(10.01);
  EXPECT_EQ(f.agent.phase(), LeasePhase::kExpired);
  EXPECT_EQ(f.expirations, 1);
  EXPECT_FALSE(f.agent.lease_valid());
}

TEST(LeaseAgent, KeepAlivesRepeatDuringPhase2) {
  static_assert(LeaseConfig::kKeepaliveRetry.ns == 500'000'000);
  Fixture f;
  f.agent.restart(sim::LocalTime{0});
  f.run_to(7.4);  // phase 2 spans [5.0, 7.5): ticks at 5.0, 5.5, ... 7.0
  EXPECT_EQ(f.keepalives, 5);
  EXPECT_EQ(f.agent.keepalives_sent(), 5u);
}

TEST(LeaseAgent, RenewalResetsToPhase1) {
  Fixture f;
  f.agent.restart(sim::LocalTime{0});
  f.run_to(6.0);  // in phase 2
  EXPECT_EQ(f.agent.phase(), LeasePhase::kRenewal);
  f.agent.renew(f.clock.now());  // fresh lease starting now
  EXPECT_EQ(f.agent.phase(), LeasePhase::kActive);
  EXPECT_EQ(f.agent.renewals(), 1u);
  // New phase-2 boundary is 6.0 + 5.0.
  f.run_to(10.9);
  EXPECT_EQ(f.agent.phase(), LeasePhase::kActive);
  f.run_to(11.1);
  EXPECT_EQ(f.agent.phase(), LeasePhase::kRenewal);
}

TEST(LeaseAgent, ActiveClientNeverLeavesPhase1) {
  Fixture f;
  f.agent.restart(sim::LocalTime{0});
  // Renew every second — like a busy client's regular traffic.
  for (int i = 1; i <= 30; ++i) {
    f.engine.schedule_at(sim::SimTime{} + sim::seconds_d(i), [&]() { f.agent.renew(f.clock.now()); });
  }
  f.run_to(30.5);
  EXPECT_EQ(f.agent.phase(), LeasePhase::kActive);
  EXPECT_EQ(f.keepalives, 0);  // opportunistic renewal: zero extra messages
  EXPECT_EQ(f.expirations, 0);
}

TEST(LeaseAgent, StaleRenewalIgnored) {
  Fixture f;
  f.agent.restart(sim::LocalTime{0});
  f.run_to(2.0);
  f.agent.renew(f.clock.now());  // lease now starts at 2.0
  f.agent.renew(sim::LocalTime{1'000'000'000});  // older t_C1: no extension
  EXPECT_EQ(f.agent.renewals(), 1u);
  EXPECT_EQ(f.agent.lease_start().ns, 2'000'000'000);
}

TEST(LeaseAgent, RenewalCarriesSendTimeNotReceiptTime) {
  Fixture f;
  f.agent.restart(sim::LocalTime{0});
  f.run_to(4.0);
  // ACK received at 4.0 for a message first sent at 3.0: lease is
  // [3.0, 13.0), NOT [4.0, 14.0).
  f.agent.renew(sim::LocalTime{3'000'000'000});
  EXPECT_EQ(f.agent.lease_expiry().ns, 13'000'000'000);
}

TEST(LeaseAgent, LateAckLandsDirectlyInLaterPhase) {
  Fixture f;
  f.agent.restart(sim::LocalTime{0});
  f.run_to(3.0);
  // An ACK for a message sent at 0.5 extends the lease only to 10.5; at
  // t=9.0 that lease is already inside phase 4 (>= 0.5 + 8.5).
  f.agent.renew(sim::LocalTime{500'000'000});
  f.run_to(9.1);
  EXPECT_EQ(f.agent.phase(), LeasePhase::kFlush);
}

TEST(LeaseAgent, NackJumpsToPhase3) {
  Fixture f;
  f.agent.restart(sim::LocalTime{0});
  f.run_to(1.0);
  EXPECT_EQ(f.agent.phase(), LeasePhase::kActive);
  f.agent.on_nack();
  EXPECT_EQ(f.agent.phase(), LeasePhase::kSuspect);
  EXPECT_EQ(f.quiesces, 1);
  EXPECT_EQ(f.agent.nacks_seen(), 1u);
  // Rides the remaining phases of the current lease normally.
  f.run_to(8.6);
  EXPECT_EQ(f.agent.phase(), LeasePhase::kFlush);
  f.run_to(10.1);
  EXPECT_EQ(f.agent.phase(), LeasePhase::kExpired);
}

TEST(LeaseAgent, NackDisablesRenewal) {
  Fixture f;
  f.agent.restart(sim::LocalTime{0});
  f.run_to(1.0);
  f.agent.on_nack();
  f.agent.renew(f.clock.now());  // must be ignored: cache is known-invalid
  EXPECT_EQ(f.agent.renewals(), 0u);
  EXPECT_EQ(f.agent.phase(), LeasePhase::kSuspect);
}

// Suspect entered on local timeout alone (no NACK) is NOT latched: a late
// ACK proves the server heard us at t_c1 and rescues the lease. Only a NACK
// pins the ride-down (see NackDisablesRenewal).
TEST(LeaseAgent, TimeoutSuspectRescuedByRenewal) {
  Fixture f;
  f.agent.restart(sim::LocalTime{0});
  f.run_to(7.6);  // phase 3 by timeout (no NACK)
  EXPECT_EQ(f.agent.phase(), LeasePhase::kSuspect);
  f.agent.renew(f.clock.now());
  EXPECT_EQ(f.agent.renewals(), 1u);
  EXPECT_EQ(f.agent.phase(), LeasePhase::kActive);
  EXPECT_TRUE(f.agent.fs_ops_allowed());
}

TEST(LeaseAgent, TimeoutFlushRescuedByRenewal) {
  Fixture f;
  f.agent.restart(sim::LocalTime{0});
  f.run_to(8.6);  // phase 4 by timeout (no NACK)
  EXPECT_EQ(f.agent.phase(), LeasePhase::kFlush);
  f.agent.renew(f.clock.now());
  EXPECT_EQ(f.agent.renewals(), 1u);
  EXPECT_EQ(f.agent.phase(), LeasePhase::kActive);
}

// The rescue has teeth only if the client keeps probing: keep-alives must
// continue through an un-latched ride-down and stop the moment a NACK lands.
TEST(LeaseAgent, KeepalivesContinueThroughUnlatchedRideDown) {
  Fixture f;
  f.agent.restart(sim::LocalTime{0});
  f.run_to(7.6);
  EXPECT_EQ(f.agent.phase(), LeasePhase::kSuspect);
  const int at_suspect = f.keepalives;
  f.run_to(8.0);
  EXPECT_GT(f.keepalives, at_suspect);  // still probing
  f.agent.on_nack();
  const int at_nack = f.keepalives;
  f.run_to(8.4);
  EXPECT_EQ(f.keepalives, at_nack);  // latched: probing stopped
  f.agent.renew(f.clock.now());
  EXPECT_EQ(f.agent.renewals(), 0u);  // and renewal refused
}

TEST(LeaseAgent, RestartAfterExpiryStartsFreshLease) {
  Fixture f;
  f.agent.restart(sim::LocalTime{0});
  f.run_to(10.1);
  EXPECT_EQ(f.agent.phase(), LeasePhase::kExpired);
  f.agent.restart(f.clock.now());
  EXPECT_EQ(f.agent.phase(), LeasePhase::kActive);
  EXPECT_TRUE(f.agent.fs_ops_allowed());
  // And the new lease walks phases again.
  f.run_to(15.2);
  EXPECT_EQ(f.agent.phase(), LeasePhase::kRenewal);
}

TEST(LeaseAgent, RestartClearsNackLatch) {
  Fixture f;
  f.agent.restart(sim::LocalTime{0});
  f.agent.on_nack();
  f.run_to(10.1);
  f.agent.restart(f.clock.now());
  f.agent.renew(f.clock.now() + sim::LocalDuration{1});
  EXPECT_EQ(f.agent.renewals(), 1u);
}

TEST(LeaseAgent, DeactivateStopsEverything) {
  Fixture f;
  f.agent.restart(sim::LocalTime{0});
  f.agent.deactivate();
  EXPECT_EQ(f.agent.phase(), LeasePhase::kNoLease);
  f.run_to(30.0);
  EXPECT_EQ(f.expirations, 0);
  EXPECT_EQ(f.keepalives, 0);
}

TEST(LeaseAgent, PhaseTransitionsObserved) {
  Fixture f;
  f.agent.restart(sim::LocalTime{0});
  f.run_to(10.1);
  std::vector<std::pair<LeasePhase, LeasePhase>> expected = {
      {LeasePhase::kNoLease, LeasePhase::kActive},
      {LeasePhase::kActive, LeasePhase::kRenewal},
      {LeasePhase::kRenewal, LeasePhase::kSuspect},
      {LeasePhase::kSuspect, LeasePhase::kFlush},
      {LeasePhase::kFlush, LeasePhase::kExpired},
  };
  EXPECT_EQ(f.transitions, expected);
}

TEST(LeaseAgent, SkewedClockMeasuresPhasesOnItsOwnTime) {
  // A clock running 2x fast reaches its local 10s lease end at global 5s.
  Fixture f(cfg(), 2.0);
  f.agent.restart(f.clock.now());
  f.run_to(4.9);
  EXPECT_NE(f.agent.phase(), LeasePhase::kExpired);
  f.run_to(5.1);
  EXPECT_EQ(f.agent.phase(), LeasePhase::kExpired);
}

TEST(LeaseAgent, RenewalAtExactBoundary) {
  Fixture f;
  f.agent.restart(sim::LocalTime{0});
  // Renew with t_C1 exactly at the phase-2 boundary instant.
  f.run_to(5.0);
  f.agent.renew(sim::LocalTime{5'000'000'000});
  EXPECT_EQ(f.agent.renewals(), 1u);
  EXPECT_EQ(f.agent.phase(), LeasePhase::kActive);
  EXPECT_EQ(f.agent.lease_expiry().ns, 15'000'000'000);
}

TEST(LeaseAgent, NackDuringFlushChangesNothing) {
  Fixture f;
  f.agent.restart(sim::LocalTime{0});
  f.run_to(9.0);  // phase 4
  ASSERT_EQ(f.agent.phase(), LeasePhase::kFlush);
  f.agent.on_nack();
  EXPECT_EQ(f.agent.phase(), LeasePhase::kFlush);
  EXPECT_EQ(f.quiesces, 1);  // not re-quiesced
  f.run_to(10.1);
  EXPECT_EQ(f.agent.phase(), LeasePhase::kExpired);
}

TEST(LeaseAgent, NackBeforeAnyLeaseIsCountedOnly) {
  Fixture f;
  f.agent.on_nack();
  EXPECT_EQ(f.agent.phase(), LeasePhase::kNoLease);
  EXPECT_EQ(f.agent.nacks_seen(), 1u);
  EXPECT_EQ(f.quiesces, 0);
}

TEST(LeaseAgent, RestartMidLeaseReplacesIt) {
  Fixture f;
  f.agent.restart(sim::LocalTime{0});
  f.run_to(3.0);
  f.agent.restart(f.clock.now());  // e.g. a fresh registration epoch
  EXPECT_EQ(f.agent.phase(), LeasePhase::kActive);
  f.run_to(7.9);  // old lease would be in phase 3 by now; new one is not
  EXPECT_EQ(f.agent.phase(), LeasePhase::kActive);
  f.run_to(8.1);
  EXPECT_EQ(f.agent.phase(), LeasePhase::kRenewal);
}

TEST(LeaseAgent, ZeroEpsilonConfigValid) {
  LeaseConfig c = cfg();
  c.epsilon = 0.0;
  Fixture f(c);
  f.agent.restart(sim::LocalTime{0});
  f.run_to(10.1);
  EXPECT_EQ(f.agent.phase(), LeasePhase::kExpired);
}

TEST(LeaseAgent, ExpiryCountsAccumulate) {
  Fixture f;
  f.agent.restart(sim::LocalTime{0});
  f.run_to(10.1);
  f.agent.restart(f.clock.now());
  f.run_to(21.0);
  EXPECT_EQ(f.agent.expiries(), 2u);
}

}  // namespace
}  // namespace stank::core
