// A server cluster (paper Figure 1) and per-server leases (section 3):
// "a client must have a valid lease on all servers with which it holds
// locks."
//
// One machine talks to three servers, each owning a slice of the namespace
// and its own SAN disks. The machine runs one Client per server: each is
// exactly one (client, server) lease, with its own node id, transport, lock
// table, cache and four-phase lease agent, and all of them read the
// machine's one hardware clock. A partition between the machine and ONE
// server walks only that lease down its phases — files on the other two
// servers stay fully usable throughout. We also kill and restart a server
// to show lock reassertion (section 6) keeping the machine's cache warm.
//
// Build & run:  ./build/examples/server_cluster
#include <cstdio>
#include <optional>

#include "client/client.hpp"
#include "server/server.hpp"

using namespace stank;

int main() {
  sim::Engine engine;
  net::ControlNet net(engine, sim::Rng(1), {});
  storage::SanFabric san(engine, sim::Rng(2));
  const sim::LocalClock machine_clock(1.0);

  // Three servers, each with its own disk, and the machine's Client k for
  // server k, as node 100+k.
  std::vector<std::unique_ptr<server::Server>> servers;
  std::vector<std::unique_ptr<client::Client>> clients;
  for (std::uint32_t k = 0; k < 3; ++k) {
    const DiskId disk{k + 1};
    san.add_disk(disk, 4096, 256);
    server::ServerConfig scfg;
    scfg.id = NodeId{k + 1};
    scfg.lease.tau = sim::local_seconds(6);
    scfg.block_size = 256;
    scfg.data_disks = {disk};
    servers.push_back(
        std::make_unique<server::Server>(engine, net, san, sim::LocalClock(1.0), scfg));
    servers.back()->start();
  }
  for (std::uint32_t k = 0; k < 3; ++k) {
    client::ClientConfig ccfg;
    ccfg.id = NodeId{100 + k};
    ccfg.server = NodeId{k + 1};
    ccfg.lease.tau = sim::local_seconds(6);
    ccfg.block_size = 256;
    clients.push_back(std::make_unique<client::Client>(engine, net, san, machine_clock, ccfg));
  }
  for (auto& c : clients) c->start();
  auto all_registered = [&]() {
    for (const auto& c : clients) {
      if (!c->registered()) return false;
    }
    return true;
  };
  engine.run_until(sim::SimTime{} + sim::seconds(1));
  std::printf("machine registered with all %zu servers: %s\n", clients.size(),
              all_registered() ? "yes" : "no");

  auto run_for = [&](double s) { engine.run_until(engine.now() + sim::seconds_d(s)); };

  // Open one file on each server.
  std::vector<client::Fd> fds(3);
  int opened = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    clients[k]->open("/vol/f" + std::to_string(k), true, [&, k](Result<client::Fd> r) {
      if (r.ok()) {
        fds[k] = r.value();
        ++opened;
      }
    });
  }
  run_for(0.5);
  std::printf("opened %d files, routed to servers 0/1/2\n", opened);

  // Dirty data on every server's file.
  for (std::size_t k = 0; k < 3; ++k) {
    clients[k]->write(fds[k], 0, Bytes(256, static_cast<std::uint8_t>(k + 1)), [](Status) {});
  }
  run_for(0.5);
  std::size_t dirty = 0;
  for (const auto& c : clients) dirty += c->dirty_pages();
  std::printf("dirty pages across the cluster: %zu\n\n", dirty);

  // --- Partition away server 0 only. ---------------------------------------
  std::printf("t=%.1fs  partitioning machine <-/-> server 0 (others healthy)\n",
              engine.now().seconds());
  net.reachability().sever_pair(NodeId{100}, NodeId{1});
  run_for(9.0);
  std::printf("        sub-lease phases: s0=%s s1=%s s2=%s\n",
              to_string(clients[0]->lease_phase()), to_string(clients[1]->lease_phase()),
              to_string(clients[2]->lease_phase()));
  std::printf("        server 0's file flushed by phase 4: disk0 writes=%llu\n",
              static_cast<unsigned long long>(san.disk(DiskId{1}).writes_served()));

  // Files on servers 1 and 2 keep working through it all.
  std::optional<bool> read_ok;
  clients[1]->read(fds[1], 0, 256, [&](Result<Bytes> r) { read_ok = r.ok(); });
  run_for(0.5);
  std::printf("        read via healthy server 1 during the partition: %s\n\n",
              read_ok.value_or(false) ? "ok" : "FAILED");

  net.reachability().heal();
  run_for(10.0);
  std::printf("t=%.1fs  healed; machine fully registered again: %s\n",
              engine.now().seconds(), all_registered() ? "yes" : "no");

  // --- Kill and restart server 2: lock reassertion keeps the cache. -------
  clients[2]->write(fds[2], 0, Bytes(256, 0x33), [](Status) {});
  run_for(0.5);
  std::printf("\nt=%.1fs  server 2 crashes and restarts (machine holds dirty data there)\n",
              engine.now().seconds());
  servers[2]->crash();
  servers[2]->restart();
  // A request discovers the new incarnation and triggers reassertion.
  clients[2]->read(fds[2], 0, 64, [](Result<Bytes>) {});
  run_for(2.0);
  std::printf("        sub 2 re-registered (incarnation %u), dirty pages kept: %zu\n",
              clients[2]->server_incarnation(), clients[2]->dirty_pages());
  std::printf("        lease phase on sub 2: %s — cache survived the server failure\n",
              to_string(clients[2]->lease_phase()));
  return 0;
}
