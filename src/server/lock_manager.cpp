#include "server/lock_manager.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace stank::server {

namespace {

// Strongest mode the holder may keep while `want` is granted to another.
LockMode retained_mode(LockMode want) {
  return want == LockMode::kExclusive ? LockMode::kNone : LockMode::kShared;
}

bool mode_leq(LockMode a, LockMode b) {
  return static_cast<int>(a) <= static_cast<int>(b);
}

}  // namespace

bool LockManager::grantable(const FileLocks& fl, NodeId client, LockMode mode) {
  for (const Holder& h : fl.holders) {
    if (h.node == client) continue;
    if (!protocol::compatible(h.mode, mode)) return false;
  }
  return true;
}

LockManager::AcquireOutcome LockManager::acquire(NodeId client, FileId file, LockMode mode,
                                                 std::vector<Demand>& demands) {
  STANK_ASSERT_MSG(mode != LockMode::kNone, "acquire(kNone) is a release; use set_mode");
  FileLocks& fl = files_[file];

  Holder* held = fl.find_holder(client);
  if (held != nullptr && mode_leq(mode, held->mode)) {
    return AcquireOutcome::kAlreadyHeld;
  }

  // Strict FIFO: a request must queue behind existing waiters even when
  // immediately grantable, or writers would starve behind a reader stream.
  const bool must_queue = !fl.waiters.empty() || !grantable(fl, client, mode);
  if (!must_queue) {
    if (held != nullptr) {
      held->mode = mode;
      held->demand_outstanding = false;
    } else {
      fl.holders.push_back(Holder{client, mode, LockMode::kNone, false});
      index_add_held(client, file);
    }
    if (rec_ != nullptr) {
      rec_->record_now(client, obs::EventKind::kLockGrant, file.value(),
                       static_cast<std::uint64_t>(mode));
    }
    return AcquireOutcome::kGranted;
  }

  // Deduplicate: a client re-requesting while queued keeps one entry at the
  // strongest requested mode.
  bool queued = false;
  for (Waiter& w : fl.waiters) {
    if (w.client == client) {
      if (mode_leq(w.mode, mode)) w.mode = mode;
      queued = true;
      break;
    }
  }
  if (!queued) {
    fl.waiters.push_back(Waiter{client, mode});
    index_add_waiting(client, file);
    ++queued_waiters_;
  }
  if (rec_ != nullptr) {
    rec_->record_now(client, obs::EventKind::kLockQueue, file.value(),
                     static_cast<std::uint64_t>(mode));
  }

  collect_demands(file, fl, demands);
  return AcquireOutcome::kQueued;
}

void LockManager::collect_demands(FileId file, FileLocks& fl, std::vector<Demand>& out) {
  if (fl.waiters.empty()) return;
  const Waiter& head = fl.waiters.front();
  for (Holder& h : fl.holders) {
    if (h.node == head.client) continue;
    if (protocol::compatible(h.mode, head.mode)) continue;
    const LockMode need = retained_mode(head.mode);
    if (h.demand_outstanding && mode_leq(h.demanded, need)) {
      continue;  // already demanded this far (or further) down
    }
    h.demanded = need;
    h.demand_outstanding = true;
    if (rec_ != nullptr) {
      rec_->record_now(h.node, obs::EventKind::kLockDemand, file.value(),
                       static_cast<std::uint64_t>(need));
    }
    out.push_back(Demand{h.node, file, need});
  }
}

void LockManager::set_mode(NodeId client, FileId file, LockMode mode, Update& out) {
  FileLocks* flp = files_.find(file);
  if (flp == nullptr) {
    return;
  }
  FileLocks& fl = *flp;

  Holder* held = fl.find_holder(client);
  if (held == nullptr) {
    // Not a holder (already stolen or never granted): nothing to apply, but
    // the queue may still be pumpable.
    pump_waiters(file, fl, out);
    gc(file);
    return;
  }

  if (mode == LockMode::kNone) {
    remove_holder(file, fl, client);
    if (rec_ != nullptr) {
      rec_->record_now(client, obs::EventKind::kLockRelease, file.value(),
                       static_cast<std::uint64_t>(LockMode::kNone));
    }
  } else if (mode_leq(mode, held->mode)) {
    held->mode = mode;
    // Satisfied a demand down to `mode`? Clear bookkeeping at or above it.
    if (held->demand_outstanding && mode_leq(mode, held->demanded)) {
      held->demand_outstanding = false;
    }
    if (rec_ != nullptr) {
      rec_->record_now(client, obs::EventKind::kLockRelease, file.value(),
                       static_cast<std::uint64_t>(mode));
    }
  }
  // Upgrades via set_mode are ignored; acquire() is the only upgrade path.

  pump_waiters(file, fl, out);
  gc(file);
}

void LockManager::pump_waiters(FileId file, FileLocks& fl, Update& out) {
  while (!fl.waiters.empty()) {
    const Waiter w = fl.waiters.front();
    if (!grantable(fl, w.client, w.mode)) {
      break;
    }
    if (Holder* h = fl.find_holder(w.client); h != nullptr) {
      h->mode = w.mode;
      h->demand_outstanding = false;
    } else {
      fl.holders.push_back(Holder{w.client, w.mode, LockMode::kNone, false});
      index_add_held(w.client, file);
    }
    if (rec_ != nullptr) {
      rec_->record_now(w.client, obs::EventKind::kLockGrant, file.value(),
                       static_cast<std::uint64_t>(w.mode));
    }
    out.grants.push_back(Grant{w.client, file, w.mode});
    fl.waiters.erase(fl.waiters.begin());
    index_remove_waiting(w.client, file);
    --queued_waiters_;
  }
  collect_demands(file, fl, out.demands);
}

void LockManager::cancel_waiter(NodeId client, FileId file, Update& out) {
  FileLocks* flp = files_.find(file);
  if (flp == nullptr) return;
  auto& ws = flp->waiters;
  Waiter* kept = std::remove_if(ws.begin(), ws.end(),
                                [&](const Waiter& w) { return w.client == client; });
  if (kept != ws.end()) {
    queued_waiters_ -= static_cast<std::size_t>(ws.end() - kept);
    ws.erase(kept, ws.end());
    index_remove_waiting(client, file);
  }
  pump_waiters(file, *flp, out);
  gc(file);
}

void LockManager::steal_all(NodeId client, std::vector<FileId>& affected, Update& out) {
  ClientFiles* cf = clients_.find(client);
  if (cf == nullptr) {
    return;
  }
  const std::size_t first = affected.size();
  for (FileId f : cf->held) {
    affected.push_back(f);
  }
  for (FileId f : cf->waiting) {
    // A client can hold S and wait for X on the same file; list it once.
    bool dup = false;
    for (std::size_t i = first; i < affected.size(); ++i) {
      dup = dup || affected[i] == f;
    }
    if (!dup) affected.push_back(f);
  }
  // Drop the index entry first: the removals below must not touch it, and
  // pumping can only add entries for OTHER clients (this one waits nowhere).
  clients_.erase(client);

  for (std::size_t i = first; i < affected.size(); ++i) {
    const FileId file = affected[i];
    FileLocks* flp = files_.find(file);
    STANK_ASSERT_MSG(flp != nullptr, "reverse index names a gc'd file");
    FileLocks& fl = *flp;
    for (Holder& h : fl.holders) {
      if (h.node == client) {
        fl.holders.swap_erase(&h);
        if (rec_ != nullptr) {
          rec_->record_now(client, obs::EventKind::kLockStolen, file.value());
        }
        break;
      }
    }
    Waiter* kept = std::remove_if(fl.waiters.begin(), fl.waiters.end(),
                                  [&](const Waiter& w) { return w.client == client; });
    queued_waiters_ -= static_cast<std::size_t>(fl.waiters.end() - kept);
    fl.waiters.erase(kept, fl.waiters.end());
    pump_waiters(file, fl, out);
    gc(file);
  }
}

std::optional<LockMode> LockManager::demanded_mode(NodeId client, FileId file) const {
  const FileLocks* fl = files_.find(file);
  if (fl == nullptr) return std::nullopt;
  const Holder* h = fl->find_holder(client);
  if (h == nullptr || !h->demand_outstanding) return std::nullopt;
  return h->demanded;
}

LockMode LockManager::mode_of(NodeId client, FileId file) const {
  const FileLocks* fl = files_.find(file);
  if (fl == nullptr) return LockMode::kNone;
  const Holder* h = fl->find_holder(client);
  return h == nullptr ? LockMode::kNone : h->mode;
}

std::vector<std::pair<NodeId, LockMode>> LockManager::holders(FileId file) const {
  std::vector<std::pair<NodeId, LockMode>> out;
  const FileLocks* fl = files_.find(file);
  if (fl == nullptr) return out;
  out.reserve(fl->holders.size());
  for (const Holder& h : fl->holders) {
    out.emplace_back(h.node, h.mode);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t LockManager::waiter_count(FileId file) const {
  const FileLocks* fl = files_.find(file);
  return fl == nullptr ? 0 : fl->waiters.size();
}

std::vector<LockManager::Waiter> LockManager::waiters_of(FileId file) const {
  const FileLocks* fl = files_.find(file);
  if (fl == nullptr) return {};
  return {fl->waiters.begin(), fl->waiters.end()};
}

std::vector<FileId> LockManager::files_of(NodeId client) const {
  std::vector<FileId> out;
  const ClientFiles* cf = clients_.find(client);
  if (cf == nullptr) return out;
  out.assign(cf->held.begin(), cf->held.end());
  std::sort(out.begin(), out.end());
  return out;
}

void LockManager::remove_holder(FileId file, FileLocks& fl, NodeId node) {
  for (Holder& h : fl.holders) {
    if (h.node == node) {
      fl.holders.swap_erase(&h);
      index_remove_held(node, file);
      return;
    }
  }
}

void LockManager::gc(FileId file) {
  const FileLocks* fl = files_.find(file);
  if (fl != nullptr && fl->holders.empty() && fl->waiters.empty()) {
    files_.erase(file);
  }
}

// ---------------------------------------------------------------------------
// Reverse index

void LockManager::index_add_held(NodeId client, FileId file) {
  clients_[client].held.push_back(file);
}

void LockManager::index_remove_held(NodeId client, FileId file) {
  ClientFiles* cf = clients_.find(client);
  STANK_ASSERT_MSG(cf != nullptr, "holder missing from reverse index");
  for (FileId& f : cf->held) {
    if (f == file) {
      cf->held.swap_erase(&f);
      break;
    }
  }
  gc_client(client);
}

void LockManager::index_add_waiting(NodeId client, FileId file) {
  clients_[client].waiting.push_back(file);
}

void LockManager::index_remove_waiting(NodeId client, FileId file) {
  ClientFiles* cf = clients_.find(client);
  if (cf == nullptr) {
    return;  // client already dropped from the index (steal path)
  }
  for (FileId& f : cf->waiting) {
    if (f == file) {
      cf->waiting.swap_erase(&f);
      break;
    }
  }
  gc_client(client);
}

void LockManager::gc_client(NodeId client) {
  const ClientFiles* cf = clients_.find(client);
  if (cf != nullptr && cf->held.empty() && cf->waiting.empty()) {
    clients_.erase(client);
  }
}

// ---------------------------------------------------------------------------

bool LockManager::invariants_hold() const {
  std::size_t holder_records = 0;
  std::size_t waiter_records = 0;
  for (const auto& [file, fl] : files_) {
    if (fl.holders.empty() && fl.waiters.empty()) {
      return false;  // should have been gc'd
    }
    // Holders pairwise compatible, unique, never kNone.
    for (const Holder& a : fl.holders) {
      if (a.mode == LockMode::kNone) return false;
      for (const Holder& b : fl.holders) {
        if (&a == &b) continue;
        if (a.node == b.node) return false;
        if (!protocol::compatible(a.mode, b.mode)) return false;
      }
      // The reverse index must list this file for the holder exactly once.
      const ClientFiles* cf = clients_.find(a.node);
      if (cf == nullptr) return false;
      std::size_t n = 0;
      for (FileId f : cf->held) n += f == file ? 1 : 0;
      if (n != 1) return false;
    }
    // Waiters unique per client; head waiter must actually be blocked.
    for (const Waiter& a : fl.waiters) {
      std::size_t dups = 0;
      for (const Waiter& b : fl.waiters) dups += a.client == b.client ? 1 : 0;
      if (dups != 1) return false;
      const ClientFiles* cf = clients_.find(a.client);
      if (cf == nullptr) return false;
      std::size_t n = 0;
      for (FileId f : cf->waiting) n += f == file ? 1 : 0;
      if (n != 1) return false;
    }
    if (!fl.waiters.empty() && grantable(fl, fl.waiters.front().client, fl.waiters.front().mode)) {
      return false;
    }
    holder_records += fl.holders.size();
    waiter_records += fl.waiters.size();
  }
  // The O(1) convoy counter must agree with the table it summarizes.
  if (queued_waiters_ != waiter_records) return false;

  // The index holds nothing beyond the lock table (no stale or empty
  // records): totals match, so index->table containment plus the per-record
  // uniqueness above makes the two views identical.
  std::size_t indexed_held = 0;
  std::size_t indexed_waiting = 0;
  for (const auto& [client, cf] : clients_) {
    if (cf.held.empty() && cf.waiting.empty()) return false;
    indexed_held += cf.held.size();
    indexed_waiting += cf.waiting.size();
  }
  return indexed_held == holder_records && indexed_waiting == waiter_records;
}

}  // namespace stank::server
