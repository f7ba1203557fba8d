// DESIGN.md §13: adversarial clients attack the protocol participants; the
// trusted base (the server plus the disks' fence lists) must keep HONEST
// clients safe no matter what the attacker does. Each test here drives a
// full scenario with one misbehaving client and gates on the split verdict's
// honest bucket — the byzantine client's self-inflicted damage is allowed.
//
// Scenarios are fully deterministic, but whether a particular seed's traffic
// actually creates the attack window (contention on the attacked file at the
// right moment) varies, so tests sweep a few seeds and assert over the set.
#include <gtest/gtest.h>

#include "client/byzantine.hpp"
#include "workload/scenario.hpp"

namespace stank {
namespace {

using client::ByzantineSpec;
using server::RecoveryMode;
using workload::FailureKind;
using workload::Scenario;
using workload::ScenarioConfig;

ScenarioConfig contended_cfg(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.workload.num_clients = 3;
  cfg.workload.num_files = 2;
  cfg.workload.file_blocks = 4;
  cfg.workload.read_fraction = 0.3;  // write-heavy: makes clobbers observable
  cfg.workload.mean_interarrival_s = 0.04;
  cfg.workload.run_seconds = 12.0;
  cfg.workload.seed = seed;
  cfg.lease.tau = sim::local_seconds_d(2.0);
  cfg.demand_timeout = sim::local_seconds_d(1.0);
  cfg.recovery = RecoveryMode::kLeaseAndFence;
  return cfg;
}

// The write-after-expiry attacker withholds its phase-4 flush, snapshots the
// dirty cache at expiry, and pumps the stale snapshot at the SAN under its
// superseded registration. A control partition makes its lease provably
// expire mid-run.
ScenarioConfig rogue_flusher_cfg(std::uint64_t seed, RecoveryMode mode) {
  ScenarioConfig cfg = contended_cfg(seed);
  cfg.recovery = mode;
  ByzantineSpec spec;
  spec.write_after_expiry = true;
  spec.defy_quiesce = true;
  cfg.byzantine[0] = spec;
  cfg.failures.add(0.3 * cfg.workload.run_seconds, FailureKind::kCtrlIsolate, 0);
  cfg.failures.add(0.9 * cfg.workload.run_seconds, FailureKind::kCtrlHeal, 0);
  return cfg;
}

TEST(Byzantine, WriteAfterExpiryStoppedByFence) {
  std::uint64_t absorbed = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Scenario sc(rogue_flusher_cfg(seed, RecoveryMode::kLeaseAndFence));
    auto r = sc.run();
    EXPECT_TRUE(r.honest_violations.empty()) << "seed " << seed;
    const auto it = r.fence_rejects_by_initiator.find(sc.client_node(0));
    if (it != r.fence_rejects_by_initiator.end()) absorbed += it->second;
  }
  // The defense must actually have been exercised: the disks rejected rogue
  // commands, they did not merely never arrive.
  EXPECT_GT(absorbed, 0u);
}

// Negative control for the test above: with fencing off (kLeaseOnly) nothing
// stops the stale snapshot landing over the new holder's data, and the
// checker must catch it as an HONEST-victim violation. This proves the fence
// list is the load-bearing defense — and that the positive test has teeth.
TEST(Byzantine, WriteAfterExpiryCorruptsWithoutFence) {
  std::size_t violated = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Scenario sc(rogue_flusher_cfg(seed, RecoveryMode::kLeaseOnly));
    auto r = sc.run();
    if (!r.honest_violations.empty()) ++violated;
  }
  EXPECT_GT(violated, 0u);
}

// An ack-without-release attacker transport-ACKs every demand and then sits
// on the lock forever. The server's demand timeout must escalate to
// fence+steal so honest waiters make progress, with no honest-victim damage.
TEST(Byzantine, AckWithoutReleaseContainedByDemandTimeout) {
  std::uint64_t steals = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ScenarioConfig cfg = contended_cfg(seed);
    ByzantineSpec spec;
    spec.ack_without_release = true;
    cfg.byzantine[0] = spec;
    Scenario sc(cfg);
    auto r = sc.run();
    EXPECT_TRUE(r.honest_violations.empty()) << "seed " << seed;
    steals += r.server.lock_steals;
  }
  // The stall was real and the timeout path fired.
  EXPECT_GT(steals, 0u);
}

// Satellite audit: the server consumes NO client-reported timestamps — lease
// renewal is driven purely by ACK arrival on the server's own clock, and the
// renewal message itself (KeepAliveReq) physically cannot carry a clock
// reading. A client lying about its send times only corrupts its OWN lease
// math (it turns itself into a slow computer); honest clients stay safe.
static_assert(std::is_empty_v<protocol::KeepAliveReq>,
              "the renewal message must not grow fields the server could be "
              "tempted to trust; lease timing is server-clock-only");

TEST(Byzantine, LieSendTimeHarmsOnlyTheLiar) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ScenarioConfig cfg = contended_cfg(seed);
    // Reckless direction: the liar believes its lease lives ~tau longer
    // than it does, so it keeps serving/writing after provable expiry.
    cfg.byzantine[1] = ByzantineSpec::from_mask(
        ByzantineSpec::kLieSendTime | ByzantineSpec::kDefyQuiesce, /*skew_s=*/2.0);
    Scenario sc(cfg);
    auto r = sc.run();
    EXPECT_TRUE(r.honest_violations.empty()) << "seed " << seed;
  }
}

// The replay-old-session attacker records server datagrams and re-injects
// them later, preferring ones from a dead session. A control partition ends
// its session mid-run, so it holds dead-session grants and demands to replay;
// the transport's incarnation, epoch and dedup gates must absorb them all.
TEST(Byzantine, ReplayOldSessionAbsorbedByTransportGates) {
  std::uint64_t replayed = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ScenarioConfig cfg = contended_cfg(seed);
    cfg.byzantine[0] = ByzantineSpec::from_mask(ByzantineSpec::kReplayOldSession);
    cfg.failures.add(0.3 * cfg.workload.run_seconds, FailureKind::kCtrlIsolate, 0);
    cfg.failures.add(0.6 * cfg.workload.run_seconds, FailureKind::kCtrlHeal, 0);
    Scenario sc(cfg);
    auto r = sc.run();
    EXPECT_TRUE(r.honest_violations.empty()) << "seed " << seed;
    // The partition killed the session, so dead-session material existed.
    EXPECT_GT(sc.client(0).lease_agent()->expiries(), 0u) << "seed " << seed;
    replayed += dynamic_cast<client::ByzantineClient&>(sc.client(0)).datagrams_replayed();
  }
  // The attack ran: captured datagrams were fed back through the receive path.
  EXPECT_GT(replayed, 0u);
}

// The forge-lock-claims attacker sends UnlockReq/DemandDoneReq for locks and
// generations it was never granted, with guessed cookies. The server must
// ignore every one (grant cookies), so no honest holder loses a live lock.
TEST(Byzantine, ForgedLockClaimsRejectedByGrantCookies) {
  std::uint64_t forged = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ScenarioConfig cfg = contended_cfg(seed);
    cfg.byzantine[0] = ByzantineSpec::from_mask(ByzantineSpec::kForgeLockClaims);
    Scenario sc(cfg);
    auto r = sc.run();
    EXPECT_TRUE(r.honest_violations.empty()) << "seed " << seed;
    forged += dynamic_cast<client::ByzantineClient&>(sc.client(0)).claims_forged();
  }
  // The attack ran: forged claims reached the wire.
  EXPECT_GT(forged, 0u);
}

// With no byzantine clients configured, the split verdict degenerates to the
// plain one: everything lands in the honest bucket.
TEST(Byzantine, NoAttackersMeansBucketsCollapse) {
  ScenarioConfig cfg = contended_cfg(7);
  Scenario sc(cfg);
  auto r = sc.run();
  EXPECT_TRUE(r.byzantine_violations.empty());
  EXPECT_EQ(r.honest_violations.size(), r.violation_list.size());
}

}  // namespace
}  // namespace stank
