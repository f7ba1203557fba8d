// Experiment T3 — availability: how long locked data stays unavailable after
// its holder becomes unreachable, versus tau and epsilon; against the
// no-lease alternative (unavailable indefinitely, section 2) and the
// early-reregister ablation.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/server_lease_authority.hpp"
#include "core/lease_math.hpp"
#include "rt/parallel.hpp"
#include "workload/scenario.hpp"

using namespace stank;

namespace {

struct Availability {
  double detect_s{-1};   // partition -> suspect (retry schedule)
  double wait_s{-1};     // suspect -> steal (the lease timer)
  double total_s{-1};    // conflicting-request -> grant
  bool granted{false};
};

Availability run(double tau_s, double eps, int skew_mode,
                 server::RecoveryMode recovery = server::RecoveryMode::kLeaseAndFence) {
  workload::ScenarioConfig cfg;
  cfg.workload.num_clients = 2;
  cfg.workload.num_files = 1;
  cfg.workload.file_blocks = 4;
  cfg.workload.run_seconds = 300.0;
  cfg.lease.tau = sim::local_seconds_d(tau_s);
  cfg.lease.epsilon = eps;
  cfg.clock_skew_mode = skew_mode;
  cfg.recovery = recovery;
  cfg.enable_trace = true;

  workload::Scenario sc(cfg);
  sc.setup();
  sc.run_until_s(1.0);
  sc.client(0).lock(sc.fd(0, 0), protocol::LockMode::kExclusive, [](Status) {});
  sc.run_until_s(2.0);
  sc.control_net().reachability().sever_pair(sc.client_node(0), sc.server_node());

  Availability out;
  const double req_at = 3.0;
  sc.engine().schedule_at(sim::SimTime{} + sim::seconds_d(req_at), [&]() {
    sc.client(1).lock(sc.fd(1, 0), protocol::LockMode::kExclusive, [&](Status s) {
      out.granted = s.is_ok();
      out.total_s = sc.engine().now().seconds() - req_at;
    });
  });
  sc.run_until_s(std::min(3.0 * tau_s + 30.0, 295.0));

  double suspect_at = -1, steal_at = -1;
  bench::require_unwrapped(sc.recorder(), "t3_availability");
  sc.recorder().visit_node(sc.server_node(), [&](const obs::Event& e) {
    if (e.kind == obs::EventKind::kStandingChange &&
        e.b == static_cast<std::uint64_t>(core::ClientStanding::kSuspect) && suspect_at < 0) {
      suspect_at = e.at.seconds();
    }
    if (e.kind == obs::EventKind::kLockSteal) steal_at = e.at.seconds();
  });
  if (suspect_at > 0) out.detect_s = suspect_at - req_at;
  if (steal_at > 0 && suspect_at > 0) out.wait_s = steal_at - suspect_at;
  return out;
}

}  // namespace

int main() {
  bench::Reporter reporter("t3_availability");
  std::printf("T3: availability — time to redistribute an unreachable client's lock\n\n");

  {
    Table tbl({"tau (s)", "eps", "detect (s)", "lease wait (s)", "bound tau(1+eps)^2",
               "total wait (s)"});
    tbl.title("Lease+fence, random clocks in band; waiter requests 1s into the partition");
    const std::vector<double> taus = {1.0, 5.0, 10.0, 30.0};
    const std::vector<double> epss = {1e-4, 1e-2};
    // Independent simulations: sweep in parallel, print in index order.
    std::vector<Availability> cells(taus.size() * epss.size());
    rt::parallel_for(cells.size(), [&](std::size_t idx) {
      cells[idx] = run(taus[idx / epss.size()], epss[idx % epss.size()], 0);
    });
    for (std::size_t idx = 0; idx < cells.size(); ++idx) {
      const double tau = taus[idx / epss.size()];
      const double eps = epss[idx % epss.size()];
      const auto& a = cells[idx];
      tbl.row()
          .cell(tau, 0)
          .cell(eps, 4)
          .cell(a.detect_s, 2)
          .cell(a.wait_s, 2)
          .cell(core::worst_case_steal_delay(sim::local_seconds_d(tau), eps).seconds(), 2)
          .cell(a.total_s, 2);
    }
    tbl.print(std::cout);
    std::printf("\n");
  }

  {
    Table tbl({"clock placement", "lease wait (s)", "total wait (s)"});
    tbl.title("tau=10s, eps=5e-2: clock skew extremes move the wait within the bound");
    const std::vector<int> skews = {0, +1, -1};
    std::vector<Availability> cells(skews.size());
    rt::parallel_for(cells.size(),
                     [&](std::size_t idx) { cells[idx] = run(10.0, 5e-2, skews[idx]); });
    for (std::size_t idx = 0; idx < cells.size(); ++idx) {
      const int skew = skews[idx];
      const auto& a = cells[idx];
      tbl.row()
          .cell(skew == 0 ? "random" : (skew > 0 ? "server slow / clients fast"
                                                 : "server fast / clients slow"))
          .cell(a.wait_s, 2)
          .cell(a.total_s, 2);
    }
    tbl.print(std::cout);
    std::printf("\n");
  }

  {
    Table tbl({"recovery policy", "granted?", "total wait (s)"});
    tbl.title("tau=10s, eps=1e-4: the alternatives");
    struct Row {
      const char* name;
      server::RecoveryMode mode;
    };
    const std::vector<Row> rows = {
        Row{"lease+fence (paper)", server::RecoveryMode::kLeaseAndFence},
        Row{"fence-only (unsafe!)", server::RecoveryMode::kFenceOnly},
        Row{"no recovery", server::RecoveryMode::kNoRecovery}};
    std::vector<Availability> cells(rows.size());
    rt::parallel_for(cells.size(),
                     [&](std::size_t idx) { cells[idx] = run(10.0, 1e-4, 0, rows[idx].mode); });
    for (std::size_t idx = 0; idx < cells.size(); ++idx) {
      const auto& a = cells[idx];
      tbl.row()
          .cell(rows[idx].name)
          .cell(a.granted ? "yes" : "NEVER")
          .cell(a.granted ? a.total_s : -1.0, 2);
    }
    tbl.print(std::cout);
  }

  std::printf(
      "\nExpected shape: total wait ~= detection (fixed retry schedule) + tau(1+eps)\n"
      "on the server's clock — linear in tau, bounded by tau(1+eps)^2 in true time.\n"
      "Without leases the choice is stark: unsafe immediate stealing, or data that\n"
      "stays locked forever (\"render major portions of a file system unavailable\n"
      "indefinitely\", section 2).\n");
  return 0;
}
