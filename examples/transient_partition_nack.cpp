// Section 3.3: NACKs for inconsistent clients (Figure 5).
//
// A short-lived control-network glitch makes client 0 miss a lock demand.
// By the time the network heals, the server has already begun timing out
// client 0's lease — so it must not ACK (that would renew the lease) and
// must not execute requests (the client's cache is suspect). Instead it
// NACKs. The client interprets the NACK as "I missed a message": it skips
// straight to lease phase 3, quiesces, flushes, lets the lease lapse, and
// re-registers under a fresh epoch.
//
// Build & run:  ./build/examples/transient_partition_nack
#include <cstdio>

#include "obs/export.hpp"
#include "verify/stamp.hpp"
#include "workload/scenario.hpp"

using namespace stank;

int main() {
  workload::ScenarioConfig cfg;
  cfg.workload.num_clients = 2;
  cfg.workload.num_files = 1;
  cfg.workload.run_seconds = 60.0;
  cfg.lease.tau = sim::local_seconds(10);
  cfg.enable_trace = true;

  workload::Scenario sc(cfg);
  sc.setup();
  sc.run_until_s(1.0);

  auto& c0 = sc.client(0);
  auto& c1 = sc.client(1);

  // c0 takes the lock.
  c0.lock(sc.fd(0, 0), protocol::LockMode::kExclusive, [](Status) {});
  sc.run_until_s(2.0);

  // Transient glitch: c0 unreachable for 4 seconds — long enough for the
  // server's demand (sent when c1 asks for the lock) to exhaust retries.
  sc.control_net().reachability().sever_pair(c0.id(), sc.server_node());
  std::printf("t=2s    transient partition begins (4s)\n");
  sc.engine().schedule_at(sim::SimTime{} + sim::seconds_d(3.0), [&]() {
    c1.lock(sc.fd(1, 0), protocol::LockMode::kExclusive, [](Status) {});
  });
  sc.engine().schedule_at(sim::SimTime{} + sim::seconds_d(6.0), [&]() {
    sc.control_net().reachability().heal();
    std::printf("t=6s    partition healed — c0 does not know it missed the demand\n");
  });

  sc.run_until_s(8.0);
  std::printf("t=8s    c0 NACKs observed: %llu -> lease phase now: %s\n",
              static_cast<unsigned long long>(c0.lease_agent()->nacks_seen()),
              to_string(c0.lease_phase()));

  sc.run_until_s(30.0);
  std::printf("t=30s   c0 recovered: registered=%s phase=%s (fresh epoch)\n",
              c0.registered() ? "yes" : "no", to_string(c0.lease_phase()));
  std::printf("        server NACKs sent: %llu\n",
              static_cast<unsigned long long>(sc.server().counters().nacks_sent));

  std::printf("\n-- trace --\n");
  sc.recorder().visit_merged([](const obs::Event& e) {
    using K = obs::EventKind;
    for (K k : {K::kNackRecv, K::kLeasePhase, K::kStandingChange, K::kLockSteal, K::kRegister}) {
      if (e.kind != k) continue;
      std::printf("%8.3fs  n%-3u %-16s %s\n", e.at.seconds(), e.node.value(),
                  obs::to_string(e.kind), obs::detail_string(e).c_str());
      return;
    }
  });
  return 0;
}
