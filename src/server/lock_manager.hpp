// Per-file data-lock manager: the distributed lock state machine at the
// locking authority.
//
// Pure state — no I/O, no timers — so it can be tested exhaustively and
// reused by every recovery mode. The server drives it and performs the
// messaging (demands, grants) it prescribes.
//
// Lock modes: Shared (cached reads) and Exclusive (write-back caching and
// direct SAN writes). Waiters queue in FIFO order; conflicting holders are
// demanded down; a steal removes a client's locks without its cooperation.
//
// Layout: the table is a flat ID-keyed hash map of inline lock records — the
// common case of one or two holders/waiters per file lives entirely in the
// record, so a steady-state lock operation touches no heap. A per-client
// reverse index (NodeId -> files held/awaited) makes files_of() and the
// steal/recovery path O(locks of that client) instead of O(lock table).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "common/small_vec.hpp"
#include "common/strong_id.hpp"
#include "obs/recorder.hpp"
#include "protocol/messages.hpp"

namespace stank::server {

using protocol::LockMode;

class LockManager {
 public:
  struct Grant {
    NodeId client;
    FileId file;
    LockMode mode{LockMode::kNone};
  };
  struct Demand {
    NodeId holder;
    FileId file;
    // The strongest mode the holder may retain.
    LockMode max_mode{LockMode::kNone};
  };
  struct Waiter {
    NodeId client;
    LockMode mode{LockMode::kShared};
  };

  enum class AcquireOutcome : std::uint8_t {
    kGranted,      // lock held now (possibly an upgrade)
    kQueued,       // conflicts exist; caller should issue returned demands
    kAlreadyHeld,  // requested mode (or stronger) already held
  };

  struct AcquireResult {
    AcquireOutcome outcome{AcquireOutcome::kGranted};
    // Demands the server must deliver to conflicting holders (kQueued only;
    // holders already demanded at this or a lower max_mode are not repeated).
    std::vector<Demand> demands;
  };

  // Grants and demands that fell out of a state change, already applied to
  // the lock table; the caller must deliver them.
  struct Update {
    std::vector<Grant> grants;
    std::vector<Demand> demands;
    void clear() {
      grants.clear();
      demands.clear();
    }
  };

  // --- Scratch-buffer API --------------------------------------------------
  // The steady-state entry points append into caller-owned buffers, so a
  // handler loop reuses capacity across requests instead of allocating a
  // fresh vector per message. Buffers are appended to, not cleared.

  // Requests `mode` on `file` for `client`; demands to issue are appended.
  AcquireOutcome acquire(NodeId client, FileId file, LockMode mode,
                         std::vector<Demand>& demands);

  // Voluntary release/downgrade (also the holder's response to a demand).
  void set_mode(NodeId client, FileId file, LockMode mode, Update& out);

  // Removes a queued (not yet granted) request, e.g. when its client fails.
  // Removing a blocked head can unblock the queue, so grants may result.
  void cancel_waiter(NodeId client, FileId file, Update& out);

  // Steals every lock and queued request of a client without its
  // cooperation. Appends the files whose state changed plus the grants and
  // follow-up demands that became possible.
  void steal_all(NodeId client, std::vector<FileId>& affected, Update& out);

  // --- Convenience wrappers (tests and cold paths) -------------------------
  AcquireResult acquire(NodeId client, FileId file, LockMode mode) {
    AcquireResult res;
    res.outcome = acquire(client, file, mode, res.demands);
    return res;
  }
  Update set_mode(NodeId client, FileId file, LockMode mode) {
    Update out;
    set_mode(client, file, mode, out);
    return out;
  }
  Update cancel_waiter(NodeId client, FileId file) {
    Update out;
    cancel_waiter(client, file, out);
    return out;
  }
  struct StealResult {
    std::vector<FileId> affected;
    Update update;
  };
  StealResult steal_all(NodeId client) {
    StealResult res;
    steal_all(client, res.affected, res.update);
    return res;
  }

  [[nodiscard]] LockMode mode_of(NodeId client, FileId file) const;
  // Strongest retained mode currently demanded of this holder, if any
  // demand is outstanding against it.
  [[nodiscard]] std::optional<LockMode> demanded_mode(NodeId client, FileId file) const;
  [[nodiscard]] std::vector<std::pair<NodeId, LockMode>> holders(FileId file) const;
  [[nodiscard]] std::size_t waiter_count(FileId file) const;
  // Total queued (not yet granted) requests across every file, maintained
  // incrementally — O(1), so the invariant watchdog can probe for lock
  // convoys on every evaluation without walking the table.
  [[nodiscard]] std::size_t queued_waiters() const { return queued_waiters_; }
  // Queued requests in FIFO order (model-based tests).
  [[nodiscard]] std::vector<Waiter> waiters_of(FileId file) const;
  [[nodiscard]] std::size_t held_files() const { return files_.size(); }
  // Files on which this client currently holds any lock, sorted by id.
  [[nodiscard]] std::vector<FileId> files_of(NodeId client) const;

  // Invariant check for tests: holders of each file are pairwise compatible,
  // waiters are only queued while a conflict actually exists, empty records
  // have been gc'd, and the reverse index agrees with the lock table.
  [[nodiscard]] bool invariants_hold() const;

  // Attaches the flight recorder. The manager is pure state with no clock of
  // its own, so events are stamped via the recorder's bound engine; each
  // event carries the affected client as its node.
  void set_recorder(obs::Recorder* rec) { rec_ = rec; }

 private:
  struct Holder {
    NodeId node;
    LockMode mode{LockMode::kShared};  // kShared or kExclusive
    // Strongest retained mode already demanded of this holder (valid while
    // demand_outstanding), to avoid duplicate demands.
    LockMode demanded{LockMode::kNone};
    bool demand_outstanding{false};
  };
  struct FileLocks {
    SmallVec<Holder, 2> holders;
    SmallVec<Waiter, 2> waiters;

    [[nodiscard]] Holder* find_holder(NodeId node) {
      for (Holder& h : holders) {
        if (h.node == node) return &h;
      }
      return nullptr;
    }
    [[nodiscard]] const Holder* find_holder(NodeId node) const {
      return const_cast<FileLocks*>(this)->find_holder(node);
    }
  };
  // Reverse index entry: the files this client holds locks on or waits for.
  struct ClientFiles {
    SmallVec<FileId, 6> held;
    SmallVec<FileId, 2> waiting;
  };

  // Can `client` hold `mode` given current holders (ignoring itself)?
  [[nodiscard]] static bool grantable(const FileLocks& fl, NodeId client, LockMode mode);
  // Grants every grantable waiter (FIFO, stopping at the first conflict),
  // then computes fresh demands needed by the new queue head.
  void pump_waiters(FileId file, FileLocks& fl, Update& out);
  void collect_demands(FileId file, FileLocks& fl, std::vector<Demand>& out);
  void remove_holder(FileId file, FileLocks& fl, NodeId node);
  void gc(FileId file);

  // Reverse-index maintenance. add_* assume the entry is absent.
  void index_add_held(NodeId client, FileId file);
  void index_remove_held(NodeId client, FileId file);
  void index_add_waiting(NodeId client, FileId file);
  void index_remove_waiting(NodeId client, FileId file);
  void gc_client(NodeId client);

  FlatMap<FileId, FileLocks> files_;
  FlatMap<NodeId, ClientFiles> clients_;
  // Sum of waiters over all files; updated wherever a queue mutates (the
  // steal path edits queues without touching the reverse index, so this
  // cannot ride on index_add/remove_waiting).
  std::size_t queued_waiters_{0};
  obs::Recorder* rec_{nullptr};
};

}  // namespace stank::server
