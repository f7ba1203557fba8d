// The Storage Tank metadata/lock server.
//
// Serves metadata transactions and runs the distributed locking protocol on
// the control network; never touches file data during normal operation
// (clients do direct SAN I/O). Composes:
//   * Metadata + BlockAllocator  — inodes, namespace, extent allocation
//   * LockManager                — data-lock state machine
//   * core::ServerLease          — the lease strategy: the paper's passive
//                                  ServerLeaseAuthority, or a baseline's table
//   * ServerTransport            — ACK/NACK datagram sessions
//
// Recovery behaviour on a delivery failure is selectable so the experiment
// tables can compare the paper's protocol against its strawmen:
//   kNaiveSteal     steal immediately (unsafe: concurrent writers)
//   kFenceOnly      fence, then steal immediately (section 2.1's strawman)
//   kLeaseOnly      wait tau(1+eps), then steal (no fence)
//   kLeaseAndFence  wait tau(1+eps), then fence, then steal (section 6)
//   kNoRecovery     honor the locks forever (unavailability strawman)
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "common/small_vec.hpp"
#include "core/server_lease_authority.hpp"
#include "metrics/counters.hpp"
#include "net/control_net.hpp"
#include "obs/recorder.hpp"
#include "protocol/server_transport.hpp"
#include "server/block_alloc.hpp"
#include "server/lock_manager.hpp"
#include "server/metadata.hpp"
#include "server/session.hpp"
#include "storage/san.hpp"

namespace stank::server {

enum class RecoveryMode : std::uint8_t {
  kNaiveSteal,
  kFenceOnly,
  kLeaseOnly,
  kLeaseAndFence,
  kNoRecovery,
};

[[nodiscard]] constexpr const char* to_string(RecoveryMode m) {
  switch (m) {
    case RecoveryMode::kNaiveSteal: return "naive-steal";
    case RecoveryMode::kFenceOnly: return "fence-only";
    case RecoveryMode::kLeaseOnly: return "lease-only";
    case RecoveryMode::kLeaseAndFence: return "lease+fence";
    case RecoveryMode::kNoRecovery: return "no-recovery";
  }
  return "?";
}

using core::LeaseStrategy;

struct ServerConfig {
  NodeId id{1};
  core::LeaseConfig lease;
  RecoveryMode recovery{RecoveryMode::kLeaseAndFence};
  LeaseStrategy strategy{LeaseStrategy::kStorageTank};
  protocol::TransportConfig transport;
  std::uint32_t block_size{4096};
  std::vector<DiskId> data_disks;
  // A holder that ACKed a LockDemand but never completed it is declared
  // failed after this long (e.g. its SAN path is dead and the flush hangs).
  sim::LocalDuration demand_timeout{sim::local_seconds(30)};
  // Section 3.3 ablation: answer valid requests of suspect clients with a
  // NACK (the paper's design). With false, such requests are silently
  // ignored — "correct, [but] leads to further unnecessary message traffic".
  bool nack_suspect{true};
  // Post-restart grace period during which clients may reassert locks and
  // no fresh locks are granted (paper section 6: client-driven lock
  // reassertion). <= 0 picks the safe default tau(1+eps): every lease
  // granted by the previous incarnation has expired by the time fresh
  // grants resume.
  sim::LocalDuration recovery_grace{sim::LocalDuration{0}};
};

class Server final : private protocol::ServerTransport::Owner, private core::ServerLease::Owner {
 public:
  Server(sim::Engine& engine, net::ControlNet& net, storage::SanFabric& san,
         sim::LocalClock local_clock, ServerConfig cfg, obs::Recorder* rec = nullptr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void start();
  void stop();

  // --- Introspection for tests, benches and the verifier -----------------
  [[nodiscard]] NodeId id() const { return cfg_.id; }
  [[nodiscard]] metrics::Counters& counters() { return counters_; }
  [[nodiscard]] const metrics::Counters& counters() const { return counters_; }
  [[nodiscard]] LockManager& locks() { return locks_; }
  [[nodiscard]] Metadata& metadata() { return metadata_; }
  // The Storage Tank authority; aborts on a baseline server.
  [[nodiscard]] const core::ServerLeaseAuthority& authority() const;
  [[nodiscard]] const ServerConfig& config() const { return cfg_; }

  // Bytes of lease bookkeeping currently held, whatever the strategy — the
  // paper's T2 claim is that this is 0 for Storage Tank in normal operation.
  [[nodiscard]] std::size_t lease_state_bytes() const;
  // Heap bytes of the transport's at-most-once reply cache.
  [[nodiscard]] std::size_t reply_cache_bytes() const { return transport_.reply_cache_bytes(); }

  [[nodiscard]] bool session_valid(NodeId client) const;
  [[nodiscard]] std::uint32_t session_epoch(NodeId client) const;

  // Force the recovery path as if a delivery failure had been observed
  // (failure-injection hook for tests/benches).
  void inject_delivery_failure(NodeId client);

  // Fail-stop server crash: volatile state (locks, sessions, lease timers,
  // lock generations) is lost; metadata and the allocator live on the
  // server's private persistent storage and survive. restart() begins a new
  // incarnation with a grace period for lock reassertion (section 6).
  void crash();
  void restart();
  [[nodiscard]] std::uint32_t incarnation() const { return incarnation_; }
  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] bool in_grace() const;

  // Test/bench setup helper: creates a file and allocates blocks for `size`
  // bytes, without any client traffic.
  Result<FileId> preallocate(const std::string& path, std::uint64_t size);

 private:
  struct DemandKey {
    NodeId holder;
    FileId file;
    friend bool operator==(const DemandKey&, const DemandKey&) = default;
  };
  struct DemandKeyHash {
    std::size_t operator()(const DemandKey& k) const {
      return std::hash<std::uint64_t>{}((static_cast<std::uint64_t>(k.holder.value()) << 32) |
                                        k.file.value());
    }
  };
  struct DemandTimer {
    FileId file;
    sim::TimerId timer{0};
  };

  // Request dispatch (the transport's Owner).
  void handle_request(NodeId client, std::uint32_t epoch, const protocol::RequestBody& body,
                      protocol::ServerTransport::Responder r) override;
  [[nodiscard]] bool may_ack(NodeId client) const override;
  void handle_register(NodeId client, protocol::ServerTransport::Responder r);
  void handle_reassert(NodeId client, const protocol::ReassertLockReq&,
                       protocol::ServerTransport::Responder r);
  void handle_open(NodeId client, const protocol::OpenReq&,
                   protocol::ServerTransport::Responder r);
  void handle_lock(NodeId client, const protocol::LockReq&,
                   protocol::ServerTransport::Responder r);
  void handle_unlock(NodeId client, const protocol::UnlockReq&,
                     protocol::ServerTransport::Responder r);
  void handle_demand_done(NodeId client, const protocol::DemandDoneReq&,
                          protocol::ServerTransport::Responder r);
  // What UnlockReq and DemandDoneReq share: unless the release names a
  // superseded grant or lacks its cookie, sets the client's mode on `file`,
  // and applies what that frees. A compliance (`complies`) also settles the
  // holder's demand timer. The caller ACKs with OkReply either way.
  void release(NodeId client, FileId file, std::uint32_t gen, std::uint64_t cookie,
               protocol::LockMode mode, bool complies);
  void handle_setsize(NodeId client, const protocol::SetSizeReq&,
                      protocol::ServerTransport::Responder r);
  void handle_read_data(NodeId client, const protocol::ReadDataReq&,
                        protocol::ServerTransport::Responder r);
  void handle_write_data(NodeId client, const protocol::WriteDataReq&,
                         protocol::ServerTransport::Responder r);

  [[nodiscard]] std::unique_ptr<core::ServerLease> make_lease();
  // The lease's Owner: a proven lease expiry steals (after fencing, under
  // kLeaseAndFence); held files come from the lock table.
  void lease_steal(NodeId client) override;
  [[nodiscard]] std::vector<FileId> lease_held_files(NodeId client) const override;

  // Locking plumbing.
  void apply_update(const LockManager::Update& upd);
  void issue_demand(const LockManager::Demand& d);
  void deliver_grant(const LockManager::Grant& g);
  void cancel_demand_timer(NodeId holder, FileId file);
  void cancel_demand_timers(NodeId holder);
  void arm_demand_timer(NodeId holder, FileId file);
  // Per-(client, file) grant state; {0, 0} before the first grant.
  struct GrantState {
    std::uint32_t gen{0};
    std::uint64_t cookie{0};
  };
  [[nodiscard]] GrantState grant_state(NodeId client, FileId file) const;
  // Records a fresh grant: bumps the generation and mints a new cookie.
  GrantState issue_grant(NodeId client, FileId file);

  // Recovery.
  void on_delivery_failure(NodeId client);  // applies cfg_.recovery
  // Fences the client at every data disk, then steals its locks; nothing if
  // its recovery is already under way.
  void fence_client(NodeId client);
  // One fence attempt across all data disks; re-arms itself until every disk
  // acks, then steals. See fence_client.
  void fence_round(NodeId client);
  // Installs the registration key of the client's session `epoch`.
  void unfence_client(NodeId client, std::uint32_t epoch);
  void do_steal(NodeId client);

  [[nodiscard]] std::uint64_t now_ns() const;
  [[nodiscard]] BlockAllocator* allocator_with_space(std::uint64_t blocks);
  Status grow_file(Inode& inode, std::uint64_t new_size);
  void shrink_file(Inode& inode, std::uint64_t new_size);

  sim::Engine* engine_;
  net::ControlNet* net_;
  storage::SanFabric* san_;
  ServerConfig cfg_;
  sim::NodeClock clock_;
  // Typed flight recorder; null when tracing is off.
  obs::Recorder* rec_;

  metrics::Counters counters_;
  protocol::ServerTransport transport_;
  Metadata metadata_;
  LockManager locks_;
  std::vector<std::unique_ptr<BlockAllocator>> allocators_;

  std::unique_ptr<core::ServerLease> lease_;
  // One session record per client heard from this incarnation.
  FlatMap<NodeId, Session> clients_;
  // Persistent across crashes (kept on the server's private storage).
  std::uint32_t incarnation_{1};
  sim::LocalTime grace_until_{};
  // Compliance timers, grouped per holder so a client-wide cancel (steal,
  // re-registration) is O(that client's demands).
  FlatMap<NodeId, SmallVec<DemandTimer, 2>> demand_timers_;
  // Per-(client, file) grant state. Every grant writes both fields and
  // crash() clears both: they are volatile, like the lock table.
  //  * gen: lock generation, bumped by every grant and by steals, so
  //    compliance/release messages that crossed a newer grant in flight are
  //    recognizably stale (see protocol/messages.hpp).
  //  * cookie: a fresh unguessable value issued with every grant and
  //    required on UnlockReq/DemandDoneReq. Generations alone are guessable
  //    counters, so a client could forge a release for a grant still in
  //    flight to it and the server would re-grant the lock while the
  //    original holder later installs the late grant and writes — the forged
  //    lock-claim hole tools/fuzz_safety --byzantine found. Here a counter
  //    mixed through splitmix64 stands in for the CSPRNG a real server would
  //    use; the model only needs clients to be unable to predict it.
  FlatMap<DemandKey, GrantState, DemandKeyHash> grants_;
  std::uint64_t cookie_seq_{0};
  // Handler-loop scratch: lock-table results are appended here and consumed
  // in place, so steady-state requests reuse capacity instead of returning
  // fresh vectors. Never used across an event boundary.
  LockManager::Update update_scratch_;
  std::vector<LockManager::Demand> demand_scratch_;
  std::vector<FileId> affected_scratch_;
  bool started_{false};
};

}  // namespace stank::server
