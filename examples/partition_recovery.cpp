// The paper's central scenario (Figure 2 + Section 3).
//
// Client 0 holds an exclusive lock with DIRTY cached data when the control
// network partitions it from the server. Client 1 then asks for the same
// lock. Watch the protocol save the day:
//
//   * the server's lock demand to client 0 goes undelivered -> client 0 is
//     declared suspect, a tau(1+eps) timer starts, and no ACK will reach
//     client 0 again;
//   * client 0, hearing nothing, walks its lease phases: keep-alives
//     (phase 2), quiesce (phase 3), and — crucially — FLUSHES its dirty data
//     over the still-healthy SAN (phase 4) before its lease expires;
//   * only after the timer (provably later than the client's own expiry,
//     Theorem 3.1) does the server fence client 0, steal the lock, and grant
//     it to client 1 — who then reads the newest data from the shared disk;
//   * when the partition heals, client 0 re-registers under a fresh epoch.
//
// Build & run:  ./build/examples/partition_recovery [trace-out]
//
// Pass a path to also save the binary flight trace; render it with
// tools/trace_dump (and `--chrome` for ui.perfetto.dev).
#include <cstdio>
#include <fstream>

#include "obs/export.hpp"
#include "verify/stamp.hpp"
#include "workload/scenario.hpp"

using namespace stank;

int main(int argc, char** argv) {
  workload::ScenarioConfig cfg;
  cfg.workload.num_clients = 2;
  cfg.workload.num_files = 1;
  cfg.workload.file_blocks = 8;
  cfg.workload.run_seconds = 60.0;
  cfg.lease.tau = sim::local_seconds(10);
  cfg.lease.epsilon = 1e-4;
  cfg.recovery = server::RecoveryMode::kLeaseAndFence;
  cfg.enable_trace = true;

  workload::Scenario sc(cfg);
  sc.setup();
  sc.run_until_s(1.0);

  const std::uint32_t bs = cfg.block_size;
  const FileId file = sc.file_id(0);
  auto& c0 = sc.client(0);
  auto& c1 = sc.client(1);
  const client::Fd fd0 = sc.fd(0, 0);
  const client::Fd fd1 = sc.fd(1, 0);

  // Client 0 buffers a dirty write under an exclusive lock.
  c0.lock(fd0, protocol::LockMode::kExclusive, [&](Status) {
    verify::Stamp stamp{file, 0, 1, c0.id()};
    c0.write(fd0, 0, verify::make_stamped_block(bs, stamp), [](Status) {});
  });
  sc.run_until_s(2.0);
  std::printf("t=2.0s  c0 holds %s with %zu dirty page(s)\n",
              protocol::to_string(c0.lock_mode(fd0)), c0.cache().dirty_count());

  // Control network partitions client 0 from the server. The SAN is fine.
  sc.control_net().reachability().sever_pair(c0.id(), sc.server_node());
  std::printf("t=2.0s  control network partitioned: c0 <-/-> server\n");

  // Client 1 wants the file for writing.
  bool c1_granted = false;
  double c1_grant_time = 0.0;
  sc.engine().schedule_at(sim::SimTime{} + sim::seconds_d(3.0), [&]() {
    c1.lock(fd1, protocol::LockMode::kExclusive, [&](Status st) {
      c1_granted = st.is_ok();
      c1_grant_time = sc.engine().now().seconds();
    });
  });

  // Run past the lease machinery.
  sc.run_until_s(30.0);

  std::printf("t=30s   c1 exclusive lock granted: %s at t=%.3fs\n",
              c1_granted ? "yes" : "NO", c1_grant_time);
  std::printf("        c0 lease phase: %s, dirty pages left: %zu\n",
              to_string(c0.lease_phase()), c0.cache().dirty_count());

  // What does client 1 read? It must see client 0's flushed write.
  c1.read(fd1, 0, bs, [&](Result<Bytes> res) {
    auto stamp = res.ok() ? verify::decode_stamp(res.value()) : std::nullopt;
    std::printf("        c1 reads block 0: version=%llu (written by n%u) -- %s\n",
                stamp ? static_cast<unsigned long long>(stamp->version) : 0ULL,
                stamp ? stamp->writer.value() : 0U,
                stamp && stamp->version == 1 ? "dirty data SURVIVED the partition"
                                             : "DATA LOST");
  });
  sc.run_until_s(31.0);

  // Heal; client 0 re-registers under a fresh epoch.
  sc.control_net().reachability().heal();
  sc.run_until_s(40.0);
  std::printf("t=40s   partition healed; c0 re-registered: %s (phase %s)\n",
              c0.registered() ? "yes" : "no", to_string(c0.lease_phase()));

  std::printf("\n-- protocol trace --\n");
  sc.recorder().visit_merged([](const obs::Event& e) {
    using K = obs::EventKind;
    for (K k : {K::kLeasePhase, K::kStandingChange, K::kLockGrant, K::kLockDemand, K::kFence,
                K::kLockSteal, K::kUnfence, K::kRegister}) {
      if (e.kind != k) continue;
      std::printf("%8.3fs  n%-3u %-16s %s\n", e.at.seconds(), e.node.value(),
                  obs::to_string(e.kind), obs::detail_string(e).c_str());
      return;
    }
  });

  if (argc > 1) {
    std::ofstream f(argv[1], std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "failed to open %s\n", argv[1]);
      return 1;
    }
    sc.recorder().save(f);
    std::printf("\nflight trace saved to %s (render with tools/trace_dump)\n",
                argv[1]);
  }
  return 0;
}
