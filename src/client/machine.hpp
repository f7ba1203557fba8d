// A client MACHINE talking to a cluster of Storage Tank servers.
//
// The paper's installation (Figure 1) has a server cluster; section 3 is
// explicit that "a client must have a valid lease on all servers with which
// it holds locks, and cached data become invalid when a lease expires."
// This layer composes one per-server Client — each with its own transport,
// lock table, cache partition and four-phase lease agent — behind a single
// path-routed file API. A partition between the machine and ONE server
// walks only that lease through its phases; files served by the other
// servers stay fully usable.
//
// Identities: sub-client k uses NodeId{base + k}. Fencing therefore scopes
// naturally to the failed server's disks, matching the paper's "a fence
// between that client and its storage devices" (the devices are the ones
// the fencing server owns).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "client/client.hpp"

namespace stank::client {

// Machine-level file handle: identifies the sub-client and its local fd.
using MFd = std::uint64_t;

struct MachineConfig {
  // Sub-client k gets NodeId{base_id.value() + k}.
  NodeId base_id{100};
  // One entry per server in the cluster.
  std::vector<NodeId> servers;
  // Per-sub-client options (id/server fields are overwritten per target).
  ClientConfig client;
};

class Machine {
 public:
  Machine(sim::Engine& engine, net::ControlNet& net, storage::SanFabric& san,
          sim::LocalClock local_clock, MachineConfig cfg, obs::Recorder* rec = nullptr);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  void start();
  void crash();
  void restart();

  // Deterministic path -> server routing (FNV-1a over the path). Every node
  // in the installation computes the same mapping, so servers own disjoint
  // slices of the namespace.
  [[nodiscard]] std::size_t route(const std::string& path) const;

  // --- Path-routed file API (same semantics as Client) --------------------
  void open(const std::string& path, bool create, std::function<void(Result<MFd>)> cb);
  void read(MFd fd, std::uint64_t offset, std::uint32_t len,
            std::function<void(Result<Bytes>)> cb);
  void write(MFd fd, std::uint64_t offset, Bytes data, std::function<void(Status)> cb);
  void fsync(MFd fd, std::function<void(Status)> cb);
  void close(MFd fd, std::function<void(Status)> cb);
  void lock(MFd fd, protocol::LockMode mode, std::function<void(Status)> cb);
  void release(MFd fd, protocol::LockMode downgrade_to, std::function<void(Status)> cb);
  // Flushes dirty data across every sub-client.
  void sync_all(std::function<void(Status)> cb);

  // --- Introspection -------------------------------------------------------
  [[nodiscard]] std::size_t num_servers() const { return subs_.size(); }
  [[nodiscard]] Client& sub(std::size_t i) { return *subs_.at(i); }
  [[nodiscard]] const Client& sub(std::size_t i) const { return *subs_.at(i); }
  // Registered with every server in the cluster?
  [[nodiscard]] bool fully_registered() const;
  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] std::size_t total_dirty_pages() const;

  static constexpr std::uint32_t kSubShift = 32;
  [[nodiscard]] static std::size_t sub_of(MFd fd) { return fd >> kSubShift; }
  [[nodiscard]] static Fd fd_of(MFd fd) { return static_cast<Fd>(fd & 0xFFFFFFFFu); }

 private:
  [[nodiscard]] Client* sub_for(MFd fd);

  std::vector<std::unique_ptr<Client>> subs_;
  bool crashed_{false};
};

}  // namespace stank::client
