// Property sweep for Theorem 3.1: across epsilon values, adversarial clock
// placements and network latencies, the server NEVER steals locks before the
// partitioned client's own lease has expired — and the full run stays
// sequentially consistent.
#include <gtest/gtest.h>

#include <tuple>

#include "verify/stamp.hpp"
#include "workload/scenario.hpp"

namespace stank {
namespace {

using workload::Scenario;
using workload::ScenarioConfig;

// (epsilon, clock_skew_mode, one-way latency microseconds)
using Param = std::tuple<double, int, int>;

class TheoremSweep : public ::testing::TestWithParam<Param> {};

TEST_P(TheoremSweep, StealNeverPrecedesClientExpiry) {
  const auto [eps, skew_mode, latency_us] = GetParam();

  ScenarioConfig cfg;
  cfg.workload.num_clients = 2;
  cfg.workload.num_files = 1;
  cfg.workload.file_blocks = 4;
  cfg.workload.run_seconds = 60.0;
  cfg.lease.tau = sim::local_seconds(5);
  cfg.lease.epsilon = eps;
  cfg.clock_skew_mode = skew_mode;
  cfg.control_net.latency = sim::micros(latency_us);
  cfg.control_net.jitter = sim::micros(latency_us / 2);
  cfg.enable_trace = true;

  Scenario sc(cfg);
  sc.setup();
  sc.run_until_s(1.0);
  auto& c0 = sc.client(0);
  const FileId file = sc.file_id(0);

  c0.lock(sc.fd(0, 0), protocol::LockMode::kExclusive, [&](Status) {
    verify::Stamp st{file, 0, 1, c0.id()};
    c0.write(sc.fd(0, 0), 0, verify::make_stamped_block(cfg.block_size, st), [](Status) {});
  });
  sc.run_until_s(2.0);
  sc.control_net().reachability().sever_pair(c0.id(), sc.server_node());
  sc.engine().schedule_at(sim::SimTime{} + sim::seconds_d(2.5), [&]() {
    sc.client(1).lock(sc.fd(1, 0), protocol::LockMode::kExclusive, [](Status) {});
  });
  sc.run_until_s(30.0);

  double steal_at = -1, expired_at = -1, flush_at = -1;
  ASSERT_EQ(sc.recorder().dropped_events(), 0u);
  sc.recorder().visit_node(sc.server_node(), [&](const obs::Event& e) {
    if (e.kind == obs::EventKind::kLockSteal) steal_at = e.at.seconds();
  });
  sc.recorder().visit_node(c0.id(), [&](const obs::Event& e) {
    if (e.kind == obs::EventKind::kLeaseExpire) expired_at = e.at.seconds();
  });
  for (const auto& w : sc.history().disk_writes()) {
    if (w.initiator == c0.id()) {
      flush_at = w.at.seconds();
    }
  }

  ASSERT_GT(steal_at, 0.0) << "no steal happened";
  ASSERT_GT(expired_at, 0.0) << "client lease never expired";
  // Theorem 3.1 in the omniscient frame:
  EXPECT_GT(steal_at, expired_at);
  // The dirty data made it out before the steal.
  ASSERT_GT(flush_at, 0.0);
  EXPECT_LT(flush_at, steal_at);
  // And the overall history stayed clean.
  EXPECT_TRUE(verify::ConsistencyChecker(sc.history()).check_all().empty());
}

std::string theorem_param_name(const ::testing::TestParamInfo<Param>& info) {
  const double eps = std::get<0>(info.param);
  const int skew = std::get<1>(info.param);
  const int lat = std::get<2>(info.param);
  std::string name = "eps" + std::to_string(static_cast<int>(eps * 1e6)) + "ppm";
  name += skew == 0 ? "_rand" : (skew > 0 ? "_availworst" : "_safetyedge");
  name += "_lat" + std::to_string(lat) + "us";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    EpsilonSkewLatencyGrid, TheoremSweep,
    ::testing::Combine(
        // epsilon: from tight modern clocks to sloppy 5e-2 parts.
        ::testing::Values(1e-6, 1e-4, 1e-3, 1e-2, 5e-2),
        // clock placement: random, availability-worst, safety-boundary.
        ::testing::Values(0, +1, -1),
        // one-way control-network latency.
        ::testing::Values(50, 500, 5000)),
    theorem_param_name);

}  // namespace
}  // namespace stank
