// Quickstart: a minimal Storage Tank installation.
//
// One server, two clients, one SAN disk. Client 1 writes a block (write-back
// cached under an exclusive lock); client 2 then reads the same block. The
// read forces the server to demand client 1's lock down, which flushes the
// dirty block to the shared disk — so client 2 observes the newest data even
// though no data ever passed through the server.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <string>

#include "obs/export.hpp"
#include "verify/stamp.hpp"
#include "workload/scenario.hpp"

using namespace stank;

int main() {
  workload::ScenarioConfig cfg;
  cfg.workload.num_clients = 2;
  cfg.workload.num_files = 1;
  cfg.workload.file_blocks = 8;
  cfg.workload.run_seconds = 30.0;
  cfg.lease.tau = sim::local_seconds(10);
  cfg.enable_trace = true;

  workload::Scenario sc(cfg);
  sc.setup();

  // Let registration and opens complete.
  sc.run_until_s(1.0);
  std::printf("clients registered: c0=%d c1=%d\n", sc.client(0).registered(),
              sc.client(1).registered());

  const std::uint32_t bs = cfg.block_size;
  const FileId file = sc.file_id(0);

  // Client 0 writes block 3 under an exclusive lock (stays in its cache).
  auto& c0 = sc.client(0);
  const client::Fd fd0 = sc.fd(0, 0);
  c0.lock(fd0, protocol::LockMode::kExclusive, [&](Status st) {
    std::printf("c0 lock X: %s\n", to_string(st.error()));
    verify::Stamp stamp{file, 3, 1, c0.id()};
    c0.write(fd0, 3 * bs, verify::make_stamped_block(bs, stamp), [&](Status wst) {
      std::printf("c0 write block 3: %s (dirty pages now: %zu)\n", to_string(wst.error()),
                  c0.cache().dirty_count());
    });
  });
  sc.run_until_s(2.0);

  // Client 1 reads block 3: the server demands c0's lock, c0 flushes, c1
  // reads the new version directly from the disk.
  auto& c1 = sc.client(1);
  const client::Fd fd1 = sc.fd(1, 0);
  c1.read(fd1, 3 * bs, bs, [&](Result<Bytes> res) {
    if (!res.ok()) {
      std::printf("c1 read failed: %s\n", to_string(res.error()));
      return;
    }
    auto stamp = verify::decode_stamp(res.value());
    std::printf("c1 read block 3: version=%llu writer=n%u\n",
                stamp ? static_cast<unsigned long long>(stamp->version) : 0ULL,
                stamp ? stamp->writer.value() : 0U);
  });
  sc.run_until_s(4.0);

  std::printf("c0 lock on file after demand: %s\n",
              protocol::to_string(c0.lock_mode(fd0)));
  std::printf("server lease state bytes during all of this: %zu (lease ops: %llu)\n",
              sc.server().lease_state_bytes(),
              static_cast<unsigned long long>(sc.server().counters().lease_ops));

  std::printf("\n-- trace (lock/lease events) --\n");
  sc.recorder().visit_merged([](const obs::Event& e) {
    using K = obs::EventKind;
    for (K k : {K::kLockGrant, K::kLockQueue, K::kLockDemand, K::kLockRelease, K::kLeasePhase}) {
      if (e.kind != k) continue;
      std::printf("%8.3fs  n%-3u %-16s %s\n", e.at.seconds(), e.node.value(),
                  obs::to_string(e.kind), obs::detail_string(e).c_str());
      return;
    }
  });
  return 0;
}
