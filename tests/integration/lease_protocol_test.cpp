// End-to-end assertions of the lease protocol's guarantees across the full
// stack — the scenarios of the paper's sections 2 and 3 as executable facts.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "verify/stamp.hpp"
#include "workload/scenario.hpp"

namespace stank {
namespace {

using workload::Scenario;
using workload::ScenarioConfig;

ScenarioConfig base_cfg() {
  ScenarioConfig cfg;
  cfg.workload.num_clients = 2;
  cfg.workload.num_files = 1;
  cfg.workload.file_blocks = 8;
  cfg.workload.run_seconds = 60.0;
  cfg.lease.tau = sim::local_seconds(10);
  cfg.lease.epsilon = 1e-3;
  cfg.enable_trace = true;
  return cfg;
}

// The Figure 2 story: partitioned exclusive holder with dirty data; waiter
// eventually gets the lock; data survives.
struct PartitionStory {
  Scenario sc;
  double steal_at{-1};
  double client_expired_at{-1};
  double flush_completed_at{-1};
  double grant_at{-1};
  bool waiter_granted{false};

  explicit PartitionStory(ScenarioConfig cfg = base_cfg()) : sc(std::move(cfg)) {
    sc.setup();
    sc.run_until_s(1.0);
    auto& c0 = sc.client(0);
    const FileId file = sc.file_id(0);
    const std::uint32_t bs = sc.config().block_size;

    c0.lock(sc.fd(0, 0), protocol::LockMode::kExclusive, [&](Status) {
      verify::Stamp st{file, 0, 1, c0.id()};
      c0.write(sc.fd(0, 0), 0, verify::make_stamped_block(bs, st), [](Status) {});
    });
    sc.run_until_s(2.0);
    sc.control_net().reachability().sever_pair(c0.id(), sc.server_node());

    sc.engine().schedule_at(sim::SimTime{} + sim::seconds_d(3.0), [&]() {
      sc.client(1).lock(sc.fd(1, 0), protocol::LockMode::kExclusive, [&](Status s) {
        waiter_granted = s.is_ok();
        grant_at = sc.engine().now().seconds();
      });
    });
    sc.run_until_s(40.0);

    sc.recorder().visit_node(sc.server_node(), [&](const obs::Event& e) {
      if (e.kind == obs::EventKind::kLockSteal) steal_at = e.at.seconds();
    });
    sc.recorder().visit_node(c0.id(), [&](const obs::Event& e) {
      if (e.kind == obs::EventKind::kLeaseExpire) client_expired_at = e.at.seconds();
    });
  }
};

TEST(LeaseProtocol, Theorem31_StealStrictlyAfterClientExpiry) {
  PartitionStory s;
  ASSERT_EQ(s.sc.recorder().dropped_events(), 0u);
  ASSERT_GT(s.steal_at, 0.0);
  ASSERT_GT(s.client_expired_at, 0.0);
  // The theorem, measured in the omniscient frame.
  EXPECT_GT(s.steal_at, s.client_expired_at);
}

TEST(LeaseProtocol, DirtyDataFlushedBeforeSteal) {
  PartitionStory s;
  ASSERT_EQ(s.sc.recorder().dropped_events(), 0u);
  // The victim's dirty block reached the disk (phase 4), and did so before
  // the steal.
  const auto writes = s.sc.history().disk_writes();
  ASSERT_FALSE(writes.empty());
  EXPECT_EQ(writes[0].initiator, s.sc.client_node(0));
  EXPECT_EQ(writes[0].stamp.version, 1u);
  EXPECT_LT(writes[0].at.seconds(), s.steal_at);
  EXPECT_EQ(s.sc.client(0).cache().dirty_count(), 0u);
}

TEST(LeaseProtocol, WaiterGetsLockAfterSteal) {
  PartitionStory s;
  EXPECT_TRUE(s.waiter_granted);
  EXPECT_GT(s.grant_at, s.steal_at - 0.001);
  // And the data it reads is the victim's flushed version.
  std::uint64_t observed = 0;
  s.sc.client(1).read(s.sc.fd(1, 0), 0, s.sc.config().block_size, [&](Result<Bytes> r) {
    if (r.ok()) {
      auto st = verify::decode_stamp(r.value());
      observed = st ? st->version : 0;
    }
  });
  s.sc.run_until_s(41.0);
  EXPECT_EQ(observed, 1u);
}

TEST(LeaseProtocol, VictimIsFencedAtSteal) {
  PartitionStory s;
  EXPECT_TRUE(s.sc.san().disk(DiskId{1}).is_fenced(s.sc.client_node(0)));
  // Its late I/O (slow-computer case) bounces off the disk.
  auto res = s.sc.san().disk(DiskId{1}).execute(storage::IoRequest{
      s.sc.client_node(0), DiskId{1}, storage::IoOp::kWrite, 0, 1,
      Bytes(s.sc.config().block_size, 0xEE)});
  EXPECT_EQ(res.status.error(), ErrorCode::kFenced);
}

TEST(LeaseProtocol, HealedVictimReregistersUnderFreshEpochAndIsUnfenced) {
  PartitionStory s;
  s.sc.control_net().reachability().heal();
  s.sc.run_until_s(45.0);
  EXPECT_TRUE(s.sc.client(0).registered());
  EXPECT_EQ(s.sc.server().session_epoch(s.sc.client_node(0)), 2u);
  EXPECT_FALSE(s.sc.san().disk(DiskId{1}).is_fenced(s.sc.client_node(0)));
  // And it can work again.
  bool ok = false;
  s.sc.client(0).getattr(s.sc.fd(0, 0), [&](Result<protocol::FileAttr> r) { ok = r.ok(); });
  s.sc.run_until_s(46.0);
  EXPECT_TRUE(ok);
}

TEST(LeaseProtocol, NoAckEverReachesSuspectClient) {
  PartitionStory s;
  // Heal the network while the server still bars the victim (post-steal,
  // pre-re-register is hard to catch; instead verify via counters that all
  // the victim's requests during its suspect window got NACKs, never ACKs).
  // The cleanest observable: the victim's lease agent saw NACKs only after
  // the server turned; its lease was never renewed past the partition.
  const auto& agent = *s.sc.client(0).lease_agent();
  EXPECT_LE(agent.lease_expiry().seconds(), s.steal_at);
}

TEST(LeaseProtocol, AsymmetricPartitionAlsoHandled) {
  // Only the client->server direction fails: the client still hears the
  // server's demands but its ACKs/compliance never arrive. The server must
  // still converge via the lease timeout.
  auto cfg = base_cfg();
  Scenario sc(cfg);
  sc.setup();
  sc.run_until_s(1.0);
  auto& c0 = sc.client(0);
  c0.lock(sc.fd(0, 0), protocol::LockMode::kExclusive, [](Status) {});
  sc.run_until_s(2.0);
  sc.control_net().reachability().sever(c0.id(), sc.server_node());

  bool granted = false;
  sc.engine().schedule_at(sim::SimTime{} + sim::seconds_d(3.0), [&]() {
    sc.client(1).lock(sc.fd(1, 0), protocol::LockMode::kExclusive,
                      [&](Status s) { granted = s.is_ok(); });
  });
  sc.run_until_s(40.0);
  EXPECT_TRUE(granted);
  auto violations = verify::ConsistencyChecker(sc.history()).check_all();
  EXPECT_TRUE(violations.empty());
}

TEST(LeaseProtocol, TransientPartitionNackFlow) {
  auto cfg = base_cfg();
  Scenario sc(cfg);
  sc.setup();
  sc.run_until_s(1.0);
  auto& c0 = sc.client(0);
  c0.lock(sc.fd(0, 0), protocol::LockMode::kExclusive, [](Status) {});
  sc.run_until_s(2.0);

  sc.control_net().reachability().sever_pair(c0.id(), sc.server_node());
  sc.engine().schedule_at(sim::SimTime{} + sim::seconds_d(3.0), [&]() {
    sc.client(1).lock(sc.fd(1, 0), protocol::LockMode::kExclusive, [](Status) {});
  });
  // Heal after the demand retries exhausted but long before the lease runs
  // out: the server is now timing the victim out while the victim thinks
  // everything is fine.
  sc.engine().schedule_at(sim::SimTime{} + sim::seconds_d(6.0),
                          [&]() { sc.control_net().reachability().heal(); });
  sc.run_until_s(7.0);
  EXPECT_TRUE(sc.server().authority().is_suspect(c0.id()));

  // The victim's next message is NACKed and it enters phase 3 directly.
  sc.run_until_s(9.0);
  EXPECT_GT(c0.lease_agent()->nacks_seen(), 0u);
  EXPECT_GE(static_cast<int>(c0.lease_phase()),
            static_cast<int>(core::LeasePhase::kSuspect));

  // Full recovery: lease expires, server steals, victim re-registers.
  sc.run_until_s(30.0);
  EXPECT_TRUE(c0.registered());
  EXPECT_EQ(sc.server().session_epoch(c0.id()), 2u);
  auto violations = verify::ConsistencyChecker(sc.history()).check_all();
  EXPECT_TRUE(violations.empty());
}

// The server trusts no client's claim that its lease has expired: a suspect
// client's RegisterReq is NACKed until the server's own tau(1+eps) timer
// fires and the steal has run, however early the client asks.
TEST(LeaseProtocol, ReregisterNackedUntilServerWaitEnds) {
  auto cfg = base_cfg();
  cfg.lease.tau = sim::local_seconds(8);
  Scenario sc(cfg);
  sc.setup();
  sc.run_until_s(1.0);
  auto& c0 = sc.client(0);
  c0.lock(sc.fd(0, 0), protocol::LockMode::kExclusive, [](Status) {});
  sc.run_until_s(2.0);

  // Transient partition long enough for the server to mark c0 suspect.
  sc.control_net().reachability().sever_pair(c0.id(), sc.server_node());
  sc.engine().schedule_at(sim::SimTime{} + sim::seconds_d(3.0), [&]() {
    sc.client(1).lock(sc.fd(1, 0), protocol::LockMode::kExclusive, [](Status) {});
  });
  sc.engine().schedule_at(sim::SimTime{} + sim::seconds_d(6.0),
                          [&]() { sc.control_net().reachability().heal(); });
  // c0 gets NACKed, rides its phases to expiry (~10 s) and re-registers
  // while the server's timer still runs.
  sc.run_until_s(30.0);
  EXPECT_EQ(verify::ConsistencyChecker(sc.history()).check_all().size(), 0u);
  ASSERT_EQ(sc.recorder().dropped_events(), 0u);

  double armed_at = -1;
  double stolen_at = -1;
  sc.recorder().visit_node(sc.server_node(), [&](const obs::Event& e) {
    if (e.kind == obs::EventKind::kStealTimerArm && e.a == c0.id().value()) {
      armed_at = e.at.seconds();
    }
    if (e.kind == obs::EventKind::kStandingChange && e.a == c0.id().value() &&
        e.b == static_cast<std::uint64_t>(core::ClientStanding::kFailed)) {
      stolen_at = e.at.seconds();
    }
  });
  const std::uint64_t register_kind = protocol::RequestBody{protocol::RegisterReq{}}.index();
  std::vector<std::uint64_t> register_msgs;
  std::size_t nacked_before_steal = 0;
  double registered_at = -1;
  sc.recorder().visit_node(c0.id(), [&](const obs::Event& e) {
    if (e.kind == obs::EventKind::kReqSend && e.b == register_kind) register_msgs.push_back(e.a);
    if (e.kind == obs::EventKind::kNackRecv && e.at.seconds() < stolen_at &&
        std::find(register_msgs.begin(), register_msgs.end(), e.a) != register_msgs.end()) {
      ++nacked_before_steal;
    }
    if (e.kind == obs::EventKind::kRegister && e.a == 2) registered_at = e.at.seconds();
  });
  ASSERT_GT(armed_at, 0.0);
  ASSERT_GT(stolen_at, 0.0);
  ASSERT_GT(registered_at, 0.0);
  // The server waited out tau(1+eps) on its own clock, at least tau in true
  // time since its rate is within sqrt(1+eps) of 1...
  EXPECT_GE(stolen_at - armed_at, 8.0);
  // ...NACKing the registrations c0 sent before then, and admitted it only
  // after the steal.
  EXPECT_GT(nacked_before_steal, 0u);
  EXPECT_GE(registered_at, stolen_at);
}

TEST(LeaseProtocol, ServerStaysPassiveThroughItAll) {
  // Before any failure, with two busy clients, the server performs zero
  // lease work.
  auto cfg = base_cfg();
  Scenario sc(cfg);
  sc.setup();
  sc.run_until_s(1.0);
  for (int i = 0; i < 50; ++i) {
    sc.engine().schedule_at(sc.engine().now() + sim::millis(50 * (i + 1)), [&sc, i]() {
      sc.client(i % 2).getattr(sc.fd(i % 2, 0), [](Result<protocol::FileAttr>) {});
    });
  }
  sc.run_until_s(10.0);
  EXPECT_EQ(sc.server().counters().lease_ops, 0u);
  EXPECT_EQ(sc.server().lease_state_bytes(), 0u);
}

// kLockSteal is recorded where the locks actually move (Server::do_steal):
// after the fence round, and under every recovery mode that steals.
struct StealEvents {
  std::vector<sim::SimTime> steals;
  std::vector<std::uint64_t> locks_stolen;
  std::vector<sim::SimTime> fences;
};

StealEvents steal_events(PartitionStory& s) {
  StealEvents out;
  s.sc.recorder().visit_node(s.sc.server_node(), [&](const obs::Event& e) {
    if (e.kind == obs::EventKind::kLockSteal) {
      out.steals.push_back(e.at);
      out.locks_stolen.push_back(e.b);
    }
  });
  s.sc.recorder().visit_node(s.sc.client_node(0), [&](const obs::Event& e) {
    if (e.kind == obs::EventKind::kFence) out.fences.push_back(e.at);
  });
  return out;
}

TEST(LeaseProtocol, StealRecordedAfterTheFenceRound) {
  PartitionStory s;
  ASSERT_EQ(s.sc.recorder().dropped_events(), 0u);
  const StealEvents ev = steal_events(s);
  ASSERT_EQ(ev.steals.size(), 1u);
  ASSERT_EQ(ev.fences.size(), 1u);
  // The fence round is a SAN round trip, so the steal lands strictly later.
  EXPECT_GT(ev.steals[0], ev.fences[0]);
  EXPECT_EQ(ev.locks_stolen[0], 1u);
}

TEST(LeaseProtocol, StrawmanStealsRecordedOncePerSteal) {
  for (server::RecoveryMode mode :
       {server::RecoveryMode::kFenceOnly, server::RecoveryMode::kNaiveSteal}) {
    ScenarioConfig cfg = base_cfg();
    cfg.recovery = mode;
    PartitionStory s(cfg);
    ASSERT_EQ(s.sc.recorder().dropped_events(), 0u);
    const StealEvents ev = steal_events(s);
    ASSERT_EQ(ev.steals.size(), 1u) << server::to_string(mode);
    EXPECT_EQ(ev.locks_stolen[0], 1u) << server::to_string(mode);
    EXPECT_EQ(s.sc.server().counters().lock_steals, 1u) << server::to_string(mode);
  }
}

}  // namespace
}  // namespace stank
