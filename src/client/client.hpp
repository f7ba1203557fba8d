// The Storage Tank file-system client.
//
// Serves a local process's open/read/write/fsync/close calls by combining:
//   * metadata and locks from the server over the control network,
//   * direct block I/O to shared SAN disks for file data,
//   * a write-back BlockCache protected by data locks,
//   * one core::ClientLease, built from ClientConfig::strategy: the
//     four-phase ClientLeaseAgent (the paper's core protocol) or a
//     comparison baseline. The client drives it through that interface
//     only (core/lease_seam.hpp) and never asks which strategy it runs.
//
// DataPath::kServerShipped instead function-ships all data through the
// server (the traditional client/server file system of table T5).
//
// All public calls are asynchronous: the simulation is event-driven, so a
// call schedules work and the callback fires when it completes. Callbacks
// fire at most once, and exactly once unless a session event (client::Session,
// DESIGN.md §7) cuts the call short:
//   * a crash answers nobody;
//   * a lease expiry, re-registering after a server restart included,
//     answers every call waiting for a lock or a size round kLeaseExpired
//     and drops, unanswered, every call whose request it abandons in flight;
//   * a stale session (the server restarted) drops every call whose request
//     it abandons in flight, answers writes waiting for a size round
//     kStaleSession, and keeps lock waits queued.
// Callbacks are move-only; each call's state lives in one pooled record
// (DESIGN.md §11), so the per-op path allocates nothing once warm.
//
// The client is its transport's and its lease's Owner: each calls back into
// it through a virtual method, with no per-client table of callbacks.
//
// Honest only: it keeps every protocol obligation. The untrusted client of
// DESIGN.md §13 subclasses it through the protected seams below.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "client/cache.hpp"
#include "client/file_lock.hpp"
#include "client/session.hpp"
#include "common/flat_map.hpp"
#include "common/move_fn.hpp"
#include "common/small_vec.hpp"
#include "core/client_lease_agent.hpp"
#include "metrics/counters.hpp"
#include "net/control_net.hpp"
#include "obs/recorder.hpp"
#include "protocol/client_transport.hpp"
#include "protocol/layout.hpp"
#include "storage/san.hpp"

namespace stank::client {

enum class DataPath : std::uint8_t {
  kDirectSan,      // Storage Tank: clients perform I/O to shared disks
  kServerShipped,  // traditional: all data moves through the server
};

struct ClientConfig {
  NodeId id{100};
  NodeId server{1};
  core::LeaseConfig lease;
  core::LeaseStrategy strategy{core::LeaseStrategy::kStorageTank};
  DataPath data_path{DataPath::kDirectSan};
  protocol::TransportConfig transport;
  std::uint32_t block_size{4096};
};

using Fd = std::uint32_t;

class Client : private protocol::ClientTransport::Owner, private core::ClientLease::Owner {
 public:
  using StatusCb = MoveFn<void(Status)>;
  using ReadCb = MoveFn<void(Result<Bytes>)>;
  using OpenCb = MoveFn<void(Result<Fd>)>;
  using AttrCb = MoveFn<void(Result<protocol::FileAttr>)>;

  Client(sim::Engine& engine, net::ControlNet& net, storage::SanFabric& san,
         sim::LocalClock local_clock, ClientConfig cfg, obs::Recorder* rec = nullptr);
  virtual ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Attaches to the network and (by default) registers with the server.
  virtual void start();
  // Fail-stop crash: detach, drop all volatile state, fire no callbacks.
  virtual void crash();
  // Reboot after crash(): fresh cache, re-register.
  virtual void restart();

  // --- Local-process file API --------------------------------------------
  void open(const std::string& path, bool create, OpenCb cb);
  void read(Fd fd, std::uint64_t offset, std::uint32_t len, ReadCb cb);
  void write(Fd fd, std::uint64_t offset, Bytes data, StatusCb cb);
  void fsync(Fd fd, StatusCb cb);
  void close(Fd fd, StatusCb cb);
  void getattr(Fd fd, AttrCb cb);

  // Explicit data-lock control. lock() acquires at least `mode`; release()
  // downgrades (flushing dirty data first when ceding an exclusive lock).
  // Ordinary reads/writes acquire locks implicitly; these exist for
  // workloads that need to serialize around the lock boundary.
  void lock(Fd fd, protocol::LockMode mode, StatusCb cb);
  void release(Fd fd, protocol::LockMode downgrade_to, StatusCb cb);
  // Flushes every dirty page (all files) to the SAN.
  void sync_all(StatusCb cb);

  // --- Introspection ------------------------------------------------------
  [[nodiscard]] NodeId id() const { return cfg_.id; }
  [[nodiscard]] bool registered() const { return session_.registered(); }
  [[nodiscard]] bool accepting() const { return session_.accepting(); }
  [[nodiscard]] bool crashed() const { return session_.crashed(); }
  [[nodiscard]] std::size_t dirty_pages() const { return cache_.dirty_count(); }
  [[nodiscard]] core::LeasePhase lease_phase() const { return lease_->phase(); }
  [[nodiscard]] metrics::Counters& counters() { return counters_; }
  [[nodiscard]] const metrics::Counters& counters() const { return counters_; }
  [[nodiscard]] BlockCache& cache() { return cache_; }
  [[nodiscard]] const BlockCache& cache() const { return cache_; }
  // Null unless the strategy is Storage Tank.
  [[nodiscard]] const core::ClientLeaseAgent* lease_agent() const {
    return dynamic_cast<const core::ClientLeaseAgent*>(lease_.get());
  }
  [[nodiscard]] protocol::LockMode lock_mode(Fd fd) const;
  [[nodiscard]] const ClientConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t ops_rejected() const { return ops_rejected_; }
  [[nodiscard]] std::uint32_t server_incarnation() const { return server_incarnation_; }
  // Frees the op records this thread's clients pooled, so a measurement
  // starts from an empty cache.
  static void release_op_pool();

  // Observers for benches/tests.
  std::function<void(core::LeasePhase, core::LeasePhase)> on_phase_change;
  std::function<void()> on_registered;

 private:
  // One in-flight call (or internal flush): the caller's continuation and
  // every piece of state its steps share, in one record from a per-thread
  // recycled pool. Defined in client.cpp.
  enum class OpKind : std::uint8_t;
  struct Op;
  // Owning, move-only handle on an Op. A fan-out share()s it across its
  // block I/Os; when the last handle goes, the record returns to the pool and
  // a continuation that never fired is dropped unanswered. A continuation
  // captures {this, handle} (plus a slice or a snapshot), so it always fits
  // a MoveFn inline.
  class OpRef {
   public:
    OpRef() = default;
    explicit OpRef(Op* op);
    OpRef(OpRef&& other) noexcept : op_(std::exchange(other.op_, nullptr)) {}
    OpRef& operator=(OpRef&& other) noexcept {
      if (this != &other) {
        reset();
        op_ = std::exchange(other.op_, nullptr);
      }
      return *this;
    }
    OpRef(const OpRef&) = delete;
    OpRef& operator=(const OpRef&) = delete;
    ~OpRef() { reset(); }

    [[nodiscard]] OpRef share() const { return OpRef(op_); }
    Op* operator->() const { return op_; }
    Op& operator*() const { return *op_; }

   private:
    void reset();
    Op* op_{nullptr};
  };
  // A caller blocked on a lock upgrade: the op resumes when it settles.
  struct LockWait {
    OpRef op;
    protocol::LockMode mode;
  };
  struct FileState {
    FileId file;
    protocol::FileAttr attr;
    std::vector<protocol::Extent> extents;
    FileLock lock;
    // Asynchronous cache mutations in flight (read-modify-write fills);
    // demand processing waits for zero before flushing.
    std::uint32_t writes_in_flight{0};
    std::uint32_t open_count{0};
    bool attr_known{false};
    // Size/attr rounds are serialized per file and their waiters served in
    // arrival order: two concurrent writes racing independent rounds through
    // a reordering network would apply to the page cache out of issue order.
    struct SizeWait {
      std::uint64_t min_size{0};
      OpRef op;  // a write
    };
    std::vector<SizeWait> size_waiters;
    bool size_round_inflight{false};
    // Callers blocked on a lock upgrade, inline in the file state: the
    // uncontended acquire path never touches a side map or allocates.
    SmallVec<LockWait, 2> lock_waits;
  };

 protected:
  // Seams for a subclass that changes what this client does (the adversary,
  // DESIGN.md §13): it overrides the owner methods below, calling this
  // class's version for the behavior it keeps.
  // An ACK of a current-session request renews the lease from first_send.
  void on_ack(sim::LocalTime first_send) override;
  // A NACK starts the phase-3 ride-down, or tears the session down.
  void on_nack() override;
  void handle_server_msg(const protocol::ServerBody& body) override;
  // Lease phase 3: admit no new call.
  void lease_quiesce() override;
  // Lease phase 4: write every dirty page.
  void lease_flush() override;

  [[nodiscard]] sim::NodeClock& clock() { return clock_; }
  [[nodiscard]] protocol::ClientTransport& transport() { return transport_; }
  // Every file this client holds state for, in ascending FileId: the order
  // of every walk whose order a caller can observe (sends, callbacks),
  // which the per-file table's own iteration order is not.
  [[nodiscard]] std::vector<FileId> known_files() const;
  // A known file's last-known extents; null if the file is not known.
  [[nodiscard]] const std::vector<protocol::Extent>* known_extents(FileId file) const;
  // Called by handle_lease_expired() when there is a lease to tear down.
  virtual void before_lease_teardown() {}
  // From a constructor: keep buffering writes through lease phase 4 instead
  // of failing every continuation that would dirty the cache there.
  void dirty_through_flush() { flush_stops_dirtying_ = false; }

 private:
  // The rest of the transport's and the lease's Owner.
  [[nodiscard]] bool accept_server_msg(std::uint32_t epoch) override;
  // The lease's lease-only requests; each ACK goes back to the lease.
  void lease_keepalive() override;
  void lease_renew_object(FileId file) override;
  void lease_phase_changed(core::LeasePhase from, core::LeasePhase to) override;
  void lease_object_expired(FileId file) override;

  // Setup & lifecycle.
  // Sends a RegisterReq; the session has just entered a registering state.
  void register_with_server();
  // Arms the retry timer unless it is already running.
  void schedule_register_retry();
  void handle_lease_expired() override;
  // Drops every lock and cached page; a new server incarnation also voids
  // every grant.
  void invalidate_everything(bool new_incarnation);
  // The server restarted (new incarnation): re-register while the lease is
  // still valid, then reassert every held lock so the cache survives
  // (paper section 6). `flush_at` is when the lease from before the restart
  // enters phase 4.
  void handle_stale_session() override;
  void reassert_locks(std::optional<sim::LocalTime> flush_at);
  void send_reassert(FileId file);
  // That phase 4 has come: write the dirty pages of every lock still
  // unconfirmed.
  void flush_reasserting();

  // Request plumbing.
  // Why a call may not start now (kShutdown, kLeaseExpired, kQuiesced), or kOk.
  [[nodiscard]] ErrorCode gate() const;
  // gate() plus the fd lookup for a file call: null after answering `cb`.
  template <typename Cb>
  FileState* admit(Fd fd, Cb& cb);
  // Lease phase 4 has begun: nothing may dirty the cache any more.
  [[nodiscard]] bool lease_flushing() const;
  // One probe; null if the file is not known.
  [[nodiscard]] FileState* find_file(FileId file);
  [[nodiscard]] const FileState* find_file(FileId file) const;
  FileState& state_for(FileId file);

  // Ops.
  static std::vector<std::unique_ptr<Op>>& op_pool();
  OpRef start_op(OpKind kind, FileId file);
  // The op's lock has settled: run its next step.
  void proceed(OpRef op, Status st);
  // proceed(), after closing the traced lock-wait span.
  void settle_lock_wait(OpRef op, Status st);
  void read_locked(OpRef op, Status st);
  void write_locked(OpRef op, Status st);
  void write_sized(OpRef op, Status st);

  // Locking.
  void ensure_lock(FileId file, protocol::LockMode mode, OpRef op);
  // Downgrades the held mode to op->mode and sends the UnlockReq (any
  // required flush has already completed). The release() fast path reaches
  // here directly.
  void do_unlock(OpRef op);
  // Performs the I/O a FileLock transition of `file` returned.
  void perform(FileId file, FileLock::Io io);
  // Sends a LockReq for the strongest still-unsatisfied wait, unless one is
  // already pending or a revocation is in progress.
  void pump_lock_requests(FileId file);
  void lock_state_changed(FileId file);
  void fail_lock_waits(FileId file, ErrorCode code);
  void fail_all_lock_waits(ErrorCode code);
  void process_demand(FileId file);  // runs the active demand when quiescent

  // Data path.
  void ensure_size(FileState& fs, std::uint64_t min_size, OpRef op);
  // Starts the next size round for `file` if waiters are queued and no round
  // is in flight; completion serves every waiter the result covers, in order.
  void pump_size_round(FileId file);
  // Fails every queued size waiter (all files) with `why`; used when pending
  // transport requests are abandoned, which silently drops their handlers.
  void abort_size_rounds(ErrorCode why);
  // Fills the SAN command for file block fb; false if the extents do not
  // cover it.
  bool block_io(const FileState& fs, std::uint64_t fb, storage::IoOp kind,
                storage::IoRequest& io) const;
  void read_direct(FileState& fs, OpRef op);
  void read_fetched(Op& op, const protocol::BlockSlice& s, storage::IoResult res);
  void read_slice_done(Op& op, Status st);
  void write_direct(FileState& fs, OpRef op);
  void write_filled(Op& op, const protocol::BlockSlice& s, storage::IoResult res);
  void write_slice_done(Op& op, Status st);
  void read_shipped(FileState& fs, OpRef op);
  void write_shipped(FileState& fs, OpRef op);

  // Flushing. Neither writes a file whose lock is still being reasserted
  // (kLockConflict): only flush_reasserting() may.
  void flush_file(FileId file, StatusCb cb);
  void flush_all(StatusCb cb);
  void write_dirty(FileState& fs, StatusCb cb);
  // Writes one dirty page of a flush op to the SAN.
  void write_block_through(FileState& fs, const OpRef& op, std::uint64_t fb, const Bytes& data);
  void flush_block_done(Op& op, Status st);

  storage::SanFabric* san_;
  ClientConfig cfg_;
  sim::NodeClock clock_;

  metrics::Counters counters_;
  protocol::ClientTransport transport_;
  BlockCache cache_;
  // Typed flight recorder; null when tracing is off. Declared after the
  // transport so the members before it need no alignment padding.
  obs::Recorder* rec_;

  std::unique_ptr<core::ClientLease> lease_;

  Session session_;
  bool flush_stops_dirtying_{true};
  sim::TimerId register_timer_{0};
  // A lock the restarted server has not confirmed keeps its dirty pages only
  // under the lease from before the restart. That lease's last renewal was
  // sent before the crash, so it ends inside the server's grace period; the
  // lease that re-registration renews does not. reassert_timer_ runs until
  // that lease's phase 4 (pre_restart_flush_, noted when the session went
  // stale), then writes those pages; a reply lost after that ends the
  // reassertion as a refusal does.
  std::optional<sim::LocalTime> pre_restart_flush_;
  sim::TimerId reassert_timer_{0};
  // Last server incarnation seen in a RegisterReply (0 = never registered).
  std::uint32_t server_incarnation_{0};

  Fd next_fd_{1};
  // Flat open-addressing tables: a handful of open fds per client at steady
  // state, probed once per data op, then one probe for the file's state.
  // FileState lives behind a pointer so a FileState& stays valid when
  // another file's insert rehashes the table.
  FlatMap<Fd, FileId> fds_;
  FlatMap<FileId, std::unique_ptr<FileState>> files_;

  std::uint64_t ops_rejected_{0};
  // Incarnation counter: bumped on crash so SAN completions from a previous
  // life are discarded instead of mutating the rebooted client.
  std::uint32_t gen_{0};
};

}  // namespace stank::client
