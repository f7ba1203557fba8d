#include "workload/scenario.hpp"

using stank::workload::Pattern;

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "rt/parallel.hpp"

namespace stank::workload {
namespace {

ScenarioConfig small_cfg() {
  ScenarioConfig cfg;
  cfg.workload.num_clients = 3;
  cfg.workload.num_files = 4;
  cfg.workload.file_blocks = 4;
  cfg.workload.run_seconds = 10.0;
  cfg.workload.mean_interarrival_s = 0.05;
  cfg.workload.settle_seconds = 8.0;
  cfg.lease.tau = sim::local_seconds(4);
  return cfg;
}

TEST(Scenario, FailureFreeRunIsCleanAndPassive) {
  Scenario sc(small_cfg());
  auto r = sc.run();
  EXPECT_GT(r.reads_ok + r.writes_ok, 100u);
  EXPECT_EQ(r.ops_failed, 0u);
  EXPECT_EQ(r.violations.total(), 0u);
  // The paper's claims in one assertion block:
  EXPECT_EQ(r.server.lease_ops, 0u);
  EXPECT_EQ(r.max_lease_state_bytes, 0u);
  EXPECT_EQ(r.server.lock_steals, 0u);
  EXPECT_EQ(r.server.server_data_bytes, 0u);  // no data through the server
}

TEST(Scenario, SweepAggregatesIdenticalAcrossThreadCounts) {
  // The bench sweeps fan independent simulations across cores with results
  // landing in index-addressed vectors; the aggregates must be bit-identical
  // whether the sweep ran on 1 thread or many.
  using Agg = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t>;
  auto sweep = [](unsigned threads) {
    const std::vector<std::uint32_t> client_counts = {2, 3, 4};
    return rt::parallel_map<Agg>(
        client_counts.size(),
        [&](std::size_t i) {
          ScenarioConfig cfg;
          cfg.workload.num_clients = client_counts[i];
          cfg.workload.num_files = 4;
          cfg.workload.file_blocks = 2;
          cfg.workload.run_seconds = 5.0;
          cfg.workload.mean_interarrival_s = 0.05;
          cfg.lease.tau = sim::local_seconds(4);
          auto r = Scenario(cfg).run();
          return Agg{r.reads_ok, r.writes_ok, r.net.sent, r.server.transactions};
        },
        threads);
  };
  const auto serial = sweep(1);
  const auto parallel4 = sweep(4);
  const auto parallel16 = sweep(16);
  EXPECT_EQ(serial, parallel4);
  EXPECT_EQ(serial, parallel16);
}

TEST(Scenario, DeterministicAcrossRuns) {
  auto r1 = Scenario(small_cfg()).run();
  auto r2 = Scenario(small_cfg()).run();
  EXPECT_EQ(r1.reads_ok, r2.reads_ok);
  EXPECT_EQ(r1.writes_ok, r2.writes_ok);
  EXPECT_EQ(r1.net.sent, r2.net.sent);
  EXPECT_EQ(r1.engine_events, r2.engine_events);
}

TEST(Scenario, SeedsChangeTheSchedule) {
  auto cfg2 = small_cfg();
  cfg2.workload.seed = 99;
  auto r1 = Scenario(small_cfg()).run();
  auto r2 = Scenario(cfg2).run();
  EXPECT_NE(r1.net.sent, r2.net.sent);
}

TEST(Scenario, SurvivesCtrlPartitionWithLeaseProtocol) {
  auto cfg = small_cfg();
  cfg.workload.run_seconds = 20.0;
  cfg.failures = FailurePlan::ctrl_partition(0, 5.0, 15.0);
  Scenario sc(cfg);
  auto r = sc.run();
  EXPECT_EQ(r.violations.total(), 0u);
  EXPECT_GE(r.server.lock_steals, 0u);
  // The partitioned client's ops failed or were rejected for a while.
  EXPECT_GT(r.ops_failed, 0u);
}

TEST(Scenario, NaiveStealCorruptsUnderPartition) {
  auto cfg = small_cfg();
  cfg.workload.run_seconds = 20.0;
  cfg.workload.read_fraction = 0.3;  // write-heavy to provoke conflicts
  cfg.recovery = server::RecoveryMode::kNaiveSteal;
  cfg.failures = FailurePlan::ctrl_partition(0, 5.0, 15.0);
  Scenario sc(cfg);
  auto r = sc.run();
  // The strawman breaks at least one guarantee.
  EXPECT_GT(r.violations.total(), 0u);
}

TEST(Scenario, CrashAndRestartRecovers) {
  auto cfg = small_cfg();
  cfg.workload.run_seconds = 20.0;
  cfg.failures.add(5.0, FailureKind::kCrash, 1).add(10.0, FailureKind::kRestart, 1);
  Scenario sc(cfg);
  auto r = sc.run();
  EXPECT_EQ(r.violations.total(), 0u);
  // The crashed client resumed work after restart.
  EXPECT_TRUE(sc.client(1).registered());
}

TEST(Scenario, FailureNotesOnlyWhenTraced) {
  auto cfg = small_cfg();
  cfg.failures.add(2.0, FailureKind::kCrash, 1).add(4.0, FailureKind::kRestart, 1);
  {
    Scenario sc(cfg);
    sc.run();
    EXPECT_TRUE(sc.recorder().annotations().empty());
  }
  cfg.enable_trace = true;
  Scenario sc(cfg);
  sc.run();
  const auto& notes = sc.recorder().annotations();
  std::vector<std::string> failures;
  for (const obs::Annotation& n : notes) {
    if (n.category == "failure") failures.push_back(n.detail);
  }
  EXPECT_EQ(failures, (std::vector<std::string>{to_string(FailureKind::kCrash),
                                                to_string(FailureKind::kRestart)}));
}

TEST(Scenario, PiecewiseDriving) {
  Scenario sc(small_cfg());
  sc.setup();
  sc.run_until_s(1.0);
  for (std::size_t i = 0; i < sc.num_clients(); ++i) {
    EXPECT_TRUE(sc.client(i).registered());
  }
  // Drive a manual op through the scenario accessors.
  bool read_done = false;
  sc.client(0).read(sc.fd(0, 0), 0, sc.config().block_size, [&](Result<Bytes> r) {
    read_done = r.ok();
  });
  sc.run_until_s(1.5);
  EXPECT_TRUE(read_done);
  auto res = sc.finish();
  EXPECT_EQ(res.violations.total(), 0u);
}

TEST(Scenario, VersionsMonotonePerBlock) {
  Scenario sc(small_cfg());
  sc.setup();
  const FileId f = sc.file_id(0);
  EXPECT_EQ(sc.next_version(f, 0), 1u);
  EXPECT_EQ(sc.next_version(f, 0), 2u);
  EXPECT_EQ(sc.next_version(f, 1), 1u);
}

TEST(Scenario, FrangipaniStrategyRunsClean) {
  auto cfg = small_cfg();
  cfg.strategy = core::LeaseStrategy::kFrangipani;
  auto r = Scenario(cfg).run();
  EXPECT_EQ(r.violations.total(), 0u);
  // Heartbeats flowed and the server kept per-client lease state.
  EXPECT_GT(r.clients.lease_only_msgs, 0u);
  EXPECT_GT(r.server.lease_ops, 0u);
  EXPECT_GT(r.max_lease_state_bytes, 0u);
}

TEST(Scenario, VLeaseStrategyRunsClean) {
  auto cfg = small_cfg();
  cfg.strategy = core::LeaseStrategy::kVLeases;
  auto r = Scenario(cfg).run();
  EXPECT_EQ(r.violations.total(), 0u);
  EXPECT_GT(r.clients.lease_only_msgs, 0u);
  EXPECT_GT(r.max_lease_state_bytes, 0u);
}

TEST(Scenario, ServerShippedDataPathMovesBytesThroughServer) {
  auto cfg = small_cfg();
  cfg.data_path = client::DataPath::kServerShipped;
  auto r = Scenario(cfg).run();
  EXPECT_EQ(r.violations.total(), 0u);
  EXPECT_GT(r.server.server_data_bytes, 0u);
}

TEST(Scenario, PrivatePatternGeneratesNoDemands) {
  auto cfg = small_cfg();
  cfg.workload.pattern = Pattern::kPrivate;
  cfg.workload.num_clients = 3;
  cfg.workload.num_files = 6;
  auto r = Scenario(cfg).run();
  EXPECT_EQ(r.violations.total(), 0u);
  EXPECT_EQ(r.server.lock_demands, 0u);  // no sharing, no revocation
  EXPECT_GT(r.reads_ok + r.writes_ok, 50u);
}

TEST(Scenario, ProducerConsumerPatternRunsClean) {
  auto cfg = small_cfg();
  cfg.workload.pattern = Pattern::kProducerConsumer;
  auto r = Scenario(cfg).run();
  EXPECT_EQ(r.violations.total(), 0u);
  EXPECT_GT(r.server.lock_demands, 0u);  // constant writer/reader handoffs
  EXPECT_GT(r.reads_ok, 0u);
  EXPECT_GT(r.writes_ok, 0u);
}

TEST(Scenario, SequentialPatternCoversWholePool) {
  auto cfg = small_cfg();
  cfg.workload.pattern = Pattern::kSequential;
  cfg.workload.read_fraction = 0.0;  // pure write scan
  Scenario sc(cfg);
  auto r = sc.run();
  EXPECT_EQ(r.violations.total(), 0u);
  // Every block of every file was eventually written by someone.
  std::size_t blocks_touched = sc.history().all_blocks().size();
  EXPECT_EQ(blocks_touched,
            static_cast<std::size_t>(cfg.workload.num_files) * cfg.workload.file_blocks);
}

TEST(Scenario, SlowSanFailureApplies) {
  auto cfg = small_cfg();
  cfg.failures.add(2.0, FailureKind::kSlowSan, 0, /*param_s=*/0.05);
  Scenario sc(cfg);
  auto r = sc.run();
  EXPECT_EQ(r.violations.total(), 0u);  // slowness alone must not break safety
}

}  // namespace
}  // namespace stank::workload
