// Experiment F2 — Figure 2 made quantitative.
//
// The paper's motivating scenario: client C1 holds a write lock with dirty
// cached data when the control network partitions; client C2 requests the
// same lock. The bench replays the full protocol timeline and prints it as
// an event table, then sweeps the lease period tau to show how the
// unavailability window (C2's wait) scales — the protocol's availability
// price for safety.
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/client_lease_agent.hpp"
#include "core/server_lease_authority.hpp"
#include "verify/stamp.hpp"
#include "workload/scenario.hpp"

using namespace stank;

namespace {

struct Timeline {
  double partition{-1}, suspect{-1}, phase2{-1}, phase3{-1}, phase4{-1};
  double flush{-1}, expired{-1}, steal{-1}, fence{-1}, grant{-1};
  bool data_survived{false};
};

Timeline run(double tau_s, double eps) {
  workload::ScenarioConfig cfg;
  cfg.workload.num_clients = 2;
  cfg.workload.num_files = 1;
  cfg.workload.file_blocks = 4;
  cfg.workload.run_seconds = 120.0;
  cfg.lease.tau = sim::local_seconds_d(tau_s);
  cfg.lease.epsilon = eps;
  cfg.enable_trace = true;

  workload::Scenario sc(cfg);
  sc.setup();
  sc.run_until_s(1.0);
  auto& c0 = sc.client(0);
  const FileId file = sc.file_id(0);

  c0.lock(sc.fd(0, 0), protocol::LockMode::kExclusive, [&](Status) {
    verify::Stamp st{file, 0, 1, c0.id()};
    c0.write(sc.fd(0, 0), 0, verify::make_stamped_block(cfg.block_size, st), [](Status) {});
  });
  sc.run_until_s(2.0);

  Timeline t;
  t.partition = 2.0;
  sc.control_net().reachability().sever_pair(c0.id(), sc.server_node());

  sc.engine().schedule_at(sim::SimTime{} + sim::seconds_d(3.0), [&]() {
    sc.client(1).lock(sc.fd(1, 0), protocol::LockMode::kExclusive, [&](Status s) {
      if (s.is_ok()) t.grant = sc.engine().now().seconds();
    });
  });
  sc.run_until_s(3.0 * tau_s + 20.0);

  bench::require_unwrapped(sc.recorder(), "fig2_partition");
  sc.recorder().visit_merged([&](const obs::Event& e) {
    const double at = e.at.seconds();
    switch (e.kind) {
      case obs::EventKind::kStandingChange:
        if (e.b == static_cast<std::uint64_t>(core::ClientStanding::kSuspect) && t.suspect < 0) {
          t.suspect = at;
        }
        break;
      case obs::EventKind::kLeasePhase:
        if (e.b == static_cast<std::uint64_t>(core::LeasePhase::kSuspect) && t.phase3 < 0) {
          t.phase3 = at;
        }
        if (e.b == static_cast<std::uint64_t>(core::LeasePhase::kFlush) && t.phase4 < 0) {
          t.phase4 = at;
        }
        break;
      case obs::EventKind::kLeaseExpire:
        if (e.node == c0.id()) t.expired = at;
        break;
      case obs::EventKind::kLockSteal: t.steal = at; break;
      case obs::EventKind::kFence: t.fence = at; break;
      default: break;
    }
  });
  for (const auto& w : sc.history().disk_writes()) {
    if (w.initiator == c0.id()) t.flush = w.at.seconds();
  }

  // What does C2 read?
  std::uint64_t observed = 0;
  sc.client(1).read(sc.fd(1, 0), 0, cfg.block_size, [&](Result<Bytes> r) {
    if (r.ok()) {
      auto st = verify::decode_stamp(r.value());
      observed = st ? st->version : 0;
    }
  });
  sc.run_until_s(3.0 * tau_s + 21.0);
  t.data_survived = observed == 1;
  return t;
}

}  // namespace

int main() {
  bench::Reporter reporter("fig2_partition");
  std::printf("F2: the two-network partition scenario (paper Figure 2 / sections 2-3)\n\n");

  // Detailed timeline at the paper's running configuration.
  {
    Timeline t = run(10.0, 1e-4);
    Table tbl({"event", "t (s)", "note"});
    tbl.title("Protocol timeline, tau=10s, eps=1e-4 (partition at t=2, C2 request at t=3)");
    tbl.row().cell("control partition").cell(t.partition, 3).cell("C1 <-/-> server; SAN healthy");
    tbl.row().cell("C1 declared suspect").cell(t.suspect, 3).cell("demand retries exhausted; timer tau(1+eps) armed; ACKs stop");
    tbl.row().cell("C1 phase 3 (quiesce)").cell(t.phase3, 3).cell("stops serving local processes");
    tbl.row().cell("C1 phase 4 (flush)").cell(t.phase4, 3).cell("dirty data -> shared disk");
    tbl.row().cell("C1 dirty block on disk").cell(t.flush, 3).cell("write-back hardened over SAN");
    tbl.row().cell("C1 lease expired").cell(t.expired, 3).cell("cache invalid, locks ceded");
    tbl.row().cell("server fences C1").cell(t.fence, 3).cell("belt and braces for slow I/O");
    tbl.row().cell("server steals locks").cell(t.steal, 3).cell("strictly after C1 expiry (Thm 3.1)");
    tbl.row().cell("C2 granted X").cell(t.grant, 3).cell(t.data_survived
                                                             ? "reads C1's flushed data: SAFE"
                                                             : "DATA LOST (bug!)");
    tbl.print(std::cout);
    std::printf("\nTheorem 3.1 check: steal(%.3f) > client expiry(%.3f): %s\n\n", t.steal,
                t.expired, t.steal > t.expired ? "HOLDS" : "VIOLATED");
  }

  // Sweep tau: the availability price.
  {
    Table tbl({"tau (s)", "suspect at", "steal at", "C2 wait (s)", "flush<steal", "data ok"});
    tbl.title("Unavailability window vs lease period (C2 requests at t=3)");
    for (double tau : {2.0, 5.0, 10.0, 30.0}) {
      Timeline t = run(tau, 1e-4);
      tbl.row()
          .cell(tau, 1)
          .cell(t.suspect, 2)
          .cell(t.steal, 2)
          .cell(t.grant - 3.0, 2)
          .cell(t.flush > 0 && t.flush < t.steal ? "yes" : "NO")
          .cell(t.data_survived ? "yes" : "NO");
    }
    tbl.print(std::cout);
    std::printf("\nPaper claim: locked data becomes available ~tau(1+eps) after the failure is\n"
                "detected, instead of remaining unavailable indefinitely. The wait scales\n"
                "linearly with tau; dirty data always reaches the disk before the steal.\n");
  }
  return 0;
}
