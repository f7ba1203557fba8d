#include "client/client.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/byte_pool.hpp"
#include "common/small_vec.hpp"
#include "protocol/layout.hpp"

namespace stank::client {

using protocol::LockMode;

namespace {

bool mode_leq(LockMode a, LockMode b) {
  return static_cast<int>(a) <= static_cast<int>(b);
}

LockMode mode_max(LockMode a, LockMode b) { return mode_leq(a, b) ? b : a; }

// How often a deregistered client retries RegisterReq.
constexpr sim::LocalDuration kReregisterRetry = sim::local_millis(700);

// On-stack slice list: steady-state ops span a handful of blocks, so the
// inline capacity makes slicing allocation-free.
using SliceVec = SmallVec<protocol::BlockSlice, 8>;

}  // namespace

Client::Client(sim::Engine& engine, net::ControlNet& net, storage::SanFabric& san,
               sim::LocalClock local_clock, ClientConfig cfg, obs::Recorder* rec)
    : san_(&san),
      cfg_(std::move(cfg)),
      clock_(engine, local_clock),
      transport_(net, clock_, cfg_.id, cfg_.server, counters_, cfg_.transport),
      cache_(cfg_.block_size),
      rec_(rec) {
  cfg_.lease.validate();
  if (rec_ != nullptr) {
    rec_->bind_engine(engine);
    transport_.set_recorder(rec_);
  }
  wire_transport();
  core::ClientLease::Hooks hooks;
  hooks.quiesce = [this]() { accepting_ = false; };
  hooks.flush = [this]() { flush_all([](Status) {}); };
  hooks.expired = [this]() { handle_lease_expired(); };
  hooks.phase_changed = [this](core::LeasePhase from, core::LeasePhase to) {
    if (static_cast<int>(from) >= static_cast<int>(core::LeasePhase::kSuspect) &&
        (to == core::LeasePhase::kActive || to == core::LeasePhase::kRenewal)) {
      // A keep-alive probe rescued an un-NACKed ride-down: the lease is
      // valid again and quiesce is over.
      if (registered_ && !crashed_) {
        accepting_ = true;
      }
    }
    if (on_phase_change) on_phase_change(from, to);
  };
  auto object_expired = [this](FileId file) {
    cache_.invalidate_file(file);
    if (FileState* fs = find_file(file)) {
      fs->mode = LockMode::kNone;
      ++fs->mode_seq;
      fs->pending_mode = LockMode::kNone;
    }
    fail_lock_waits(file, ErrorCode::kLeaseExpired);
  };
  lease_ = core::make_client_lease(cfg_.strategy, transport_, clock_, cfg_.lease,
                                   std::move(hooks), object_expired, rec_, cfg_.id);
}

Client::~Client() {
  if (register_timer_ != 0) {
    clock_.cancel(register_timer_);
  }
}

void Client::wire_transport() {
  transport_.on_ack = [this](sim::LocalTime first_send) { lease_->renew(first_send); };
  transport_.on_nack = [this]() {
    // Section 3.3: the client knows it missed a message and rides down from
    // phase 3. A strategy with no ride-down has lost the session: recover now.
    if (!lease_->on_nack()) handle_lease_expired();
  };
  transport_.on_stale_session = [this]() { handle_stale_session(); };
  transport_.on_server_msg = [this](const protocol::ServerBody& body) { handle_server_msg(body); };
  transport_.accept_server_msg = [this](std::uint32_t epoch) {
    if (crashed_ || !registered_) return false;
    if (epoch != transport_.epoch()) return false;
    if (!lease_->lease_valid()) return false;
    return true;
  };
}

void Client::start() {
  STANK_ASSERT(!started_);
  started_ = true;
  transport_.start();
  register_with_server();
}

void Client::crash() {
  if (crashed_) return;
  if (rec_ != nullptr) {
    rec_->record(clock_.engine().now(), cfg_.id, obs::EventKind::kCrash);
  }
  crashed_ = true;
  ++gen_;
  transport_.stop();
  lease_->stop();
  if (register_timer_ != 0) {
    clock_.cancel(register_timer_);
    register_timer_ = 0;
  }
  register_inflight_ = false;
  registered_ = false;
  accepting_ = false;
  // Volatile state is gone. Callbacks of in-flight operations are dropped —
  // a crashed machine answers nobody.
  cache_.invalidate_all();
  files_.clear();
  fds_.clear();
}

void Client::restart() {
  STANK_ASSERT_MSG(crashed_, "restart() is only valid after crash()");
  if (rec_ != nullptr) {
    rec_->record(clock_.engine().now(), cfg_.id, obs::EventKind::kRestart, gen_);
  }
  crashed_ = false;
  transport_.set_epoch(0);
  transport_.start();
  register_with_server();
}

// ---------------------------------------------------------------------------
// Registration & lease lifecycle

void Client::register_with_server() {
  if (crashed_ || registered_ || register_inflight_) return;
  register_inflight_ = true;
  transport_.send_request(protocol::RegisterReq{}, [this](const protocol::ReplyEvent& ev) {
    register_inflight_ = false;
    if (ev.outcome == protocol::ReplyOutcome::kAck) {
      if (const auto* rep = std::get_if<protocol::RegisterReply>(&ev.body)) {
        transport_.set_session(rep->epoch, rep->incarnation);
        const bool server_restarted =
            server_incarnation_ != 0 && rep->incarnation != server_incarnation_;
        // ANY re-registration means the server had no session for us — it
        // restarted, or it declared us failed and stole our locks. Either
        // way every lock we think we hold must be re-verified (section 6):
        // reassert_locks() confirms each with the server and drops the ones
        // it refuses. Re-registering and silently keeping the old lock
        // table would serve stale cache under locks granted elsewhere.
        const bool re_registration = server_incarnation_ != 0;
        const bool can_reassert = re_registration && lease_->lease_valid();
        server_incarnation_ = rep->incarnation;
        registered_ = true;
        accepting_ = lease_->on_registered(ev.first_send);
        if (can_reassert) {
          reassert_locks();
        } else if (re_registration) {
          // Lease not even valid: too late to reassert safely — drop
          // everything. A new incarnation also numbers generations from
          // scratch.
          invalidate_everything();
          if (server_restarted) reset_lock_generations();
        }
        if (on_registered) on_registered();
        return;
      }
    }
    schedule_register_retry();
  });
}

void Client::schedule_register_retry() {
  if (crashed_ || registered_ || register_timer_ != 0) return;
  register_timer_ = clock_.schedule_after(kReregisterRetry, [this]() {
    register_timer_ = 0;
    register_with_server();
  });
}

void Client::handle_stale_session() {
  if (crashed_ || !registered_) {
    return;  // a registration is already on its way
  }
  registered_ = false;
  // Keep the cache, the lock table and the lease: the failure is at the
  // SERVER; our contract (and dirty data) remain valid while the lease
  // lives. Outstanding requests will fail; the workload retries.
  transport_.abandon_pending();
  abort_size_rounds(ErrorCode::kStaleSession);
  register_with_server();
  schedule_register_retry();
}

void Client::reassert_locks() {
  // The new incarnation numbers lock generations from scratch — for EVERY
  // file, not only the ones we reassert, or a stale pre-crash generation
  // would make us discard the new incarnation's grants and demands.
  for (auto& [file, fs] : files_) {
    fs->lock_gen = 0;
    fs->lock_cookie = 0;
    fs->pending_mode = LockMode::kNone;
    fs->revoking = false;
    fs->revoke_target = LockMode::kNone;
    fs->deferred_demand.reset();
  }
  // Ascending FileId: the send order assigns the msg ids.
  for (const FileId file : known_files()) {
    const LockMode mode = find_file(file)->mode;
    if (mode == LockMode::kNone) continue;
    transport_.send_request(
        protocol::ReassertLockReq{file, mode},
        [this, file_id = file](const protocol::ReplyEvent& ev) {
          FileState* fs = find_file(file_id);
          if (fs == nullptr) return;
          if (ev.outcome == protocol::ReplyOutcome::kAck) {
            if (const auto* rep = std::get_if<protocol::LockReply>(&ev.body)) {
              if (rep->granted) {
                fs->lock_gen = rep->gen;
                fs->lock_cookie = rep->cookie;
                if (rec_ != nullptr) {
                  rec_->record(clock_.engine().now(), cfg_.id, obs::EventKind::kLockReassert,
                               file_id.value(), 1);
                }
                return;
              }
            }
          }
          // Reassertion refused or lost: the lock (and cache) for this file
          // are gone. Dirty pages here are unprotected — drop them; the
          // checker charges this to the server-crash scenario, exactly the
          // data-loss window reassertion is meant to close.
          if (rec_ != nullptr) {
            rec_->record(clock_.engine().now(), cfg_.id, obs::EventKind::kLockReassert,
                         file_id.value(), 0);
          }
          cache_.invalidate_file(file_id);
          fs->mode = LockMode::kNone;
          ++fs->mode_seq;
        });
  }
}

void Client::handle_lease_expired() {
  if (!registered_ && !accepting_) {
    return;  // already torn down
  }
  before_lease_teardown();
  registered_ = false;
  accepting_ = false;
  transport_.abandon_pending();
  abort_size_rounds(ErrorCode::kLeaseExpired);
  fail_all_lock_waits(ErrorCode::kLeaseExpired);
  invalidate_everything();
  lease_->torn_down();
  register_with_server();
  schedule_register_retry();
}

void Client::invalidate_everything() {
  cache_.invalidate_all();
  for (auto& [file, fs] : files_) {
    fs->mode = LockMode::kNone;
    ++fs->mode_seq;
    fs->pending_mode = LockMode::kNone;
    fs->revoking = false;
    fs->revoke_target = LockMode::kNone;
    fs->deferred_demand.reset();
    fs->attr_known = false;
  }
}

void Client::reset_lock_generations() {
  for (auto& [file, fs] : files_) {
    fs->lock_gen = 0;
    fs->lock_cookie = 0;
  }
}

// ---------------------------------------------------------------------------
// Gating & lookup

bool Client::gate(ErrorCode& why) const {
  if (crashed_) {
    why = ErrorCode::kShutdown;
    return false;
  }
  if (!registered_) {
    why = ErrorCode::kLeaseExpired;
    return false;
  }
  if (!accepting_) {
    why = ErrorCode::kQuiesced;
    return false;
  }
  if (!lease_->admits_ops()) {
    why = ErrorCode::kLeaseExpired;
    return false;
  }
  return true;
}

Client::FileState* Client::state_of(Fd fd) {
  const FileId* file = fds_.find(fd);
  return file == nullptr ? nullptr : find_file(*file);
}

Client::FileState* Client::find_file(FileId file) {
  std::unique_ptr<FileState>* fs = files_.find(file);
  return fs == nullptr ? nullptr : fs->get();
}

const Client::FileState* Client::find_file(FileId file) const {
  return const_cast<Client*>(this)->find_file(file);
}

Client::FileState& Client::state_for(FileId file) {
  auto [slot, inserted] = files_.try_emplace(file);
  if (inserted) {
    *slot = std::make_unique<FileState>();
    (*slot)->file = file;
  }
  return **slot;
}

std::vector<FileId> Client::known_files() const {
  std::vector<FileId> ids;
  ids.reserve(files_.size());
  for (const auto& [file, fs] : files_) ids.push_back(file);
  std::sort(ids.begin(), ids.end());
  return ids;
}

const std::vector<protocol::Extent>* Client::known_extents(FileId file) const {
  const FileState* fs = find_file(file);
  return fs == nullptr ? nullptr : &fs->extents;
}

protocol::LockMode Client::lock_mode(Fd fd) const {
  const FileId* file = fds_.find(fd);
  const FileState* fs = file == nullptr ? nullptr : find_file(*file);
  return fs == nullptr ? LockMode::kNone : fs->mode;
}

// ---------------------------------------------------------------------------
// Op records

enum class Client::OpKind : std::uint8_t {
  kOpen,
  kClose,
  kGetattr,
  kRead,
  kWrite,
  kLock,
  kUnlock,
  kFlush,
};

struct Client::Op {
  OpKind kind{OpKind::kFlush};
  LockMode mode{LockMode::kNone};  // kUnlock: the mode to downgrade to
  bool timed{false};               // a traced lock wait started at wait_start
  std::uint32_t refs{0};
  std::uint32_t life{0};      // the client's gen_ when the op began
  std::uint32_t lock_gen{0};  // kRead: the lock generation its fetches run under
  FileId file;
  std::uint64_t offset{0};
  std::uint64_t size{0};      // bytes to read, or written
  std::uint64_t mode_seq{0};  // kWrite: the lock transition it was issued under
  sim::SimTime wait_start{};
  // Fan-in over the op's block I/Os.
  std::size_t expected{0};
  std::size_t seen{0};
  Status status{Status::ok()};
  Bytes buf;  // kRead: the result; kWrite: the payload
  // Flush scratch, kept with its capacity while the record is pooled.
  std::vector<std::uint64_t> blocks;
  std::vector<BlockCache::Key> pages;
  // The caller's continuation; the one matching `kind` is set.
  StatusCb done;
  ReadCb read_done;
  OpenCb open_done;
  AttrCb attr_done;

  // Records the last of `expected` completions; true when this was it.
  bool fan_in(Status st) {
    if (!st.is_ok() && status.is_ok()) status = st;
    return ++seen == expected;
  }
};

std::vector<std::unique_ptr<Client::Op>>& Client::op_pool() {
  thread_local std::vector<std::unique_ptr<Op>> pool;
  return pool;
}

Client::OpRef::OpRef(Op* op) : op_(op) { ++op_->refs; }

void Client::OpRef::reset() {
  Op* op = std::exchange(op_, nullptr);
  if (op == nullptr || --op->refs > 0) return;
  // The last handle is gone: a continuation that never fired is dropped
  // unanswered, exactly as a crash or an abandoned request drops it.
  op->done.reset();
  op->read_done.reset();
  op->open_done.reset();
  op->attr_done.reset();
  recycle_buf(std::move(op->buf));
  op_pool().emplace_back(op);
}

Client::OpRef Client::start_op(OpKind kind, FileId file) {
  auto& pool = op_pool();
  Op* op = nullptr;
  if (pool.empty()) {
    op = new Op;
  } else {
    op = pool.back().release();
    pool.pop_back();
  }
  op->kind = kind;
  op->mode = LockMode::kNone;
  op->timed = false;
  op->life = gen_;
  op->lock_gen = 0;
  op->file = file;
  op->offset = 0;
  op->size = 0;
  op->mode_seq = 0;
  op->expected = 0;
  op->seen = 0;
  op->status = Status::ok();
  return OpRef(op);
}

// ---------------------------------------------------------------------------
// Public file API

void Client::open(const std::string& path, bool create, OpenCb cb) {
  ErrorCode why;
  if (!gate(why)) {
    ++ops_rejected_;
    cb(why);
    return;
  }
  OpRef op = start_op(OpKind::kOpen, FileId{});
  op->open_done = std::move(cb);
  transport_.send_request(
      protocol::OpenReq{path, create}, [this, op = std::move(op)](const protocol::ReplyEvent& ev) {
        if (ev.outcome != protocol::ReplyOutcome::kAck) {
          op->open_done(ev.outcome == protocol::ReplyOutcome::kNack ? ErrorCode::kNacked
                                                                    : ErrorCode::kTimeout);
          return;
        }
        if (const auto* err = std::get_if<protocol::ErrReply>(&ev.body)) {
          op->open_done(err->code);
          return;
        }
        const auto* rep = std::get_if<protocol::OpenReply>(&ev.body);
        if (rep == nullptr) {
          op->open_done(ErrorCode::kInvalidArgument);
          return;
        }
        FileState& fs = state_for(rep->file);
        fs.attr = rep->attr;
        fs.extents = rep->extents;
        fs.attr_known = true;
        ++fs.open_count;
        const Fd fd = next_fd_++;
        fds_.insert(fd, rep->file);
        op->open_done(fd);
      });
}

void Client::close(Fd fd, StatusCb cb) {
  ErrorCode why;
  if (!gate(why)) {
    ++ops_rejected_;
    cb(why);
    return;
  }
  FileState* fs = state_of(fd);
  if (fs == nullptr) {
    cb(ErrorCode::kBadHandle);
    return;
  }
  const FileId file = fs->file;
  if (fs->open_count > 0) {
    --fs->open_count;
  }
  fds_.erase(fd);
  // Cached data and locks are deliberately RETAINED across close — that is
  // the whole point of lease-protected caching.
  OpRef op = start_op(OpKind::kClose, file);
  op->done = std::move(cb);
  transport_.send_request(protocol::CloseReq{file},
                          [op = std::move(op)](const protocol::ReplyEvent& ev) {
                            op->done(ev.outcome == protocol::ReplyOutcome::kAck
                                         ? Status::ok()
                                         : Status{ErrorCode::kTimeout});
                          });
}

void Client::getattr(Fd fd, AttrCb cb) {
  ErrorCode why;
  if (!gate(why)) {
    ++ops_rejected_;
    cb(why);
    return;
  }
  FileState* fs = state_of(fd);
  if (fs == nullptr) {
    cb(ErrorCode::kBadHandle);
    return;
  }
  const FileId file = fs->file;
  OpRef op = start_op(OpKind::kGetattr, file);
  op->attr_done = std::move(cb);
  transport_.send_request(
      protocol::GetAttrReq{file}, [this, op = std::move(op)](const protocol::ReplyEvent& ev) {
        if (ev.outcome != protocol::ReplyOutcome::kAck) {
          op->attr_done(ev.outcome == protocol::ReplyOutcome::kNack ? ErrorCode::kNacked
                                                                    : ErrorCode::kTimeout);
          return;
        }
        if (const auto* rep = std::get_if<protocol::AttrReply>(&ev.body)) {
          FileState& fs2 = state_for(op->file);
          fs2.attr = rep->attr;
          fs2.extents = rep->extents;
          fs2.attr_known = true;
          op->attr_done(rep->attr);
          return;
        }
        if (const auto* err = std::get_if<protocol::ErrReply>(&ev.body)) {
          op->attr_done(err->code);
          return;
        }
        op->attr_done(ErrorCode::kInvalidArgument);
      });
}

void Client::read(Fd fd, std::uint64_t offset, std::uint32_t len, ReadCb cb) {
  ErrorCode why;
  if (!gate(why)) {
    ++ops_rejected_;
    cb(why);
    return;
  }
  FileState* fs = state_of(fd);
  if (fs == nullptr) {
    cb(ErrorCode::kBadHandle);
    return;
  }
  OpRef op = start_op(OpKind::kRead, fs->file);
  op->offset = offset;
  op->size = len;
  op->read_done = std::move(cb);
  ensure_lock(fs->file, LockMode::kShared, std::move(op));
}

void Client::read_locked(OpRef op, Status st) {
  if (!st.is_ok()) {
    op->read_done(st.error());
    return;
  }
  FileState& fs = state_for(op->file);
  if (cfg_.data_path == DataPath::kServerShipped) {
    read_shipped(fs, std::move(op));
  } else {
    read_direct(fs, std::move(op));
  }
}

void Client::write(Fd fd, std::uint64_t offset, Bytes data, StatusCb cb) {
  ErrorCode why;
  if (!gate(why)) {
    ++ops_rejected_;
    cb(why);
    return;
  }
  FileState* fs = state_of(fd);
  if (fs == nullptr) {
    cb(ErrorCode::kBadHandle);
    return;
  }
  OpRef op = start_op(OpKind::kWrite, fs->file);
  op->offset = offset;
  op->size = data.size();
  op->buf = std::move(data);
  op->done = std::move(cb);

  if (cfg_.data_path == DataPath::kServerShipped) {
    // Traditional path: ship the write; the server grows the file.
    write_shipped(*fs, std::move(op));
    return;
  }
  ensure_lock(fs->file, LockMode::kExclusive, std::move(op));
}

void Client::write_locked(OpRef op, Status st) {
  if (!st.is_ok()) {
    op->done(st);
    return;
  }
  FileState& fs = state_for(op->file);
  op->mode_seq = fs.mode_seq;
  const std::uint64_t end = op->offset + op->size;
  ensure_size(fs, end, std::move(op));
}

void Client::write_sized(OpRef op, Status st) {
  if (!st.is_ok()) {
    op->done(st);
    return;
  }
  // The size round crossed the control net; the exclusive lock may have been
  // revoked (demand, lease ride-down) and even re-granted under it.
  // Buffering now would dirty the cache under a serialization this write was
  // not issued in — fail and let the caller retry afresh.
  FileState* fs = find_file(op->file);
  if (fs == nullptr || fs->mode_seq != op->mode_seq || fs->mode != LockMode::kExclusive ||
      fs->revoking) {
    op->done(Status{ErrorCode::kLockConflict});
    return;
  }
  write_direct(*fs, std::move(op));
}

void Client::lock(Fd fd, protocol::LockMode mode, StatusCb cb) {
  ErrorCode why;
  if (!gate(why)) {
    ++ops_rejected_;
    cb(why);
    return;
  }
  FileState* fs = state_of(fd);
  if (fs == nullptr) {
    cb(ErrorCode::kBadHandle);
    return;
  }
  OpRef op = start_op(OpKind::kLock, fs->file);
  op->done = std::move(cb);
  ensure_lock(fs->file, mode, std::move(op));
}

void Client::release(Fd fd, protocol::LockMode downgrade_to, StatusCb cb) {
  ErrorCode why;
  if (!gate(why)) {
    ++ops_rejected_;
    cb(why);
    return;
  }
  FileState* fs = state_of(fd);
  if (fs == nullptr) {
    cb(ErrorCode::kBadHandle);
    return;
  }
  const FileId file = fs->file;
  if (fs->revoking) {
    cb(ErrorCode::kLockConflict);  // a server demand is already downgrading us
    return;
  }
  if (mode_leq(fs->mode, downgrade_to)) {
    cb(Status::ok());
    return;
  }

  OpRef op = start_op(OpKind::kUnlock, file);
  op->mode = downgrade_to;
  op->done = std::move(cb);
  if (fs->mode == LockMode::kExclusive && cache_.has_dirty(file)) {
    flush_file(file, [this, op = std::move(op)](Status st) mutable {
      if (!st.is_ok()) {
        // Keep the lock — dirty data must not be orphaned — but tell the
        // caller the release did not happen.
        op->done(st);
        return;
      }
      do_unlock(std::move(op));
    });
    return;
  }
  // Fast path (shared lock, or exclusive with a clean cache): no flush.
  do_unlock(std::move(op));
}

void Client::do_unlock(OpRef op) {
  FileState* fsp = find_file(op->file);
  if (fsp == nullptr) {
    op->done(Status{ErrorCode::kShutdown});
    return;
  }
  FileState& fs = *fsp;
  const FileId file = fs.file;
  const LockMode downgrade_to = op->mode;
  fs.mode = downgrade_to;
  ++fs.mode_seq;
  if (downgrade_to == LockMode::kNone) {
    cache_.invalidate_file(file);
    lease_->lock_released(file);
  }
  transport_.send_request(protocol::UnlockReq{file, downgrade_to, fs.lock_gen, fs.lock_cookie},
                          [op = std::move(op)](const protocol::ReplyEvent& ev) {
                            op->done(ev.outcome == protocol::ReplyOutcome::kAck
                                         ? Status::ok()
                                         : Status{ErrorCode::kTimeout});
                          });
}

void Client::sync_all(StatusCb cb) {
  ErrorCode why;
  if (!gate(why)) {
    cb(why);
    return;
  }
  flush_all(std::move(cb));
}

void Client::fsync(Fd fd, StatusCb cb) {
  ErrorCode why;
  if (!gate(why)) {
    ++ops_rejected_;
    cb(why);
    return;
  }
  FileState* fs = state_of(fd);
  if (fs == nullptr) {
    cb(ErrorCode::kBadHandle);
    return;
  }
  flush_file(fs->file, std::move(cb));
}

// ---------------------------------------------------------------------------
// Locking

void Client::ensure_lock(FileId file, LockMode mode, OpRef op) {
  FileState& fs = state_for(file);
  if (fs.mode != LockMode::kNone && !lease_->lock_usable(file)) {
    cache_.invalidate_file(file);
    fs.mode = LockMode::kNone;
    ++fs.mode_seq;
  }
  // An exclusive request must not overtake an in-progress revocation: a page
  // dirtied between the revocation flush and the downgrade would survive
  // under an insufficient lock.
  const bool blocked_by_revoke = fs.revoking && mode == LockMode::kExclusive;
  if (mode_leq(mode, fs.mode) && !blocked_by_revoke) {
    proceed(std::move(op), Status::ok());
    return;
  }
  if (rec_ != nullptr) {
    // Lock-grant latency span: queued-acquire to settlement (cache hits above
    // are free and would only dilute the percentiles).
    op->timed = true;
    op->wait_start = clock_.engine().now();
  }
  fs.lock_waits.push_back(LockWait{std::move(op), mode});
  pump_lock_requests(file);
}

void Client::settle_lock_wait(OpRef op, Status st) {
  if (op->timed) {
    rec_->span(obs::SpanKind::kLockAcquire, (clock_.engine().now() - op->wait_start).millis());
  }
  proceed(std::move(op), st);
}

void Client::proceed(OpRef op, Status st) {
  switch (op->kind) {
    case OpKind::kRead:
      read_locked(std::move(op), st);
      return;
    case OpKind::kWrite:
      write_locked(std::move(op), st);
      return;
    default:  // kLock: the lock itself was the op
      op->done(st);
      return;
  }
}

void Client::pump_lock_requests(FileId file) {
  FileState* fsp = find_file(file);
  if (fsp == nullptr) return;
  FileState& fs = *fsp;
  if (fs.revoking) return;  // re-pumped when the demand completes

  if (fs.lock_waits.empty()) return;
  LockMode want = LockMode::kNone;
  for (const auto& w : fs.lock_waits) {
    want = mode_max(want, w.mode);
  }
  if (mode_leq(want, fs.mode)) {
    lock_state_changed(file);
    return;
  }
  if (mode_leq(want, fs.pending_mode)) {
    return;  // a sufficient request is already in flight
  }
  fs.pending_mode = want;
  transport_.send_request(
      protocol::LockReq{file, want}, [this, file](const protocol::ReplyEvent& ev) {
        FileState* fs2p = find_file(file);
        if (fs2p == nullptr) {
          return;  // state discarded (crash) while in flight
        }
        FileState& fs2 = *fs2p;
        if (ev.outcome == protocol::ReplyOutcome::kAck) {
          if (const auto* rep = std::get_if<protocol::LockReply>(&ev.body)) {
            if (rep->granted) {
              fs2.pending_mode = LockMode::kNone;
              apply_grant(file, rep->mode, rep->gen, rep->cookie);
            }
            // Queued: pending_mode stays set; a LockGrant will arrive.
            return;
          }
          if (const auto* err = std::get_if<protocol::ErrReply>(&ev.body)) {
            fs2.pending_mode = LockMode::kNone;
            if (err->code == ErrorCode::kRetryLater || err->code == ErrorCode::kStaleSession) {
              // Post-restart grace period (or session refresh in flight):
              // keep the waiters and retry shortly.
              clock_.schedule_after(sim::local_millis(300),
                                    [this, file]() { pump_lock_requests(file); });
              return;
            }
            fail_lock_waits(file, err->code);
            return;
          }
          fs2.pending_mode = LockMode::kNone;
          fail_lock_waits(file, ErrorCode::kInvalidArgument);
          return;
        }
        fs2.pending_mode = LockMode::kNone;
        fail_lock_waits(file, ev.outcome == protocol::ReplyOutcome::kNack ? ErrorCode::kNacked
                                                                          : ErrorCode::kTimeout);
      });
}

void Client::apply_grant(FileId file, LockMode mode, std::uint32_t gen, std::uint64_t cookie) {
  FileState& fs = state_for(file);
  if (gen <= fs.lock_gen) {
    return;  // stale or duplicate grant
  }
  fs.lock_gen = gen;
  fs.lock_cookie = cookie;
  fs.mode = mode;
  ++fs.mode_seq;
  if (mode_leq(fs.pending_mode, mode)) {
    fs.pending_mode = LockMode::kNone;
  }
  lease_->lock_acquired(file);
  lock_state_changed(file);

  // A demand that arrived ahead of this grant can be processed now.
  if (fs.deferred_demand) {
    if (fs.deferred_demand->gen < fs.lock_gen) {
      fs.deferred_demand.reset();
    } else if (fs.deferred_demand->gen == fs.lock_gen) {
      const protocol::LockDemand d = *fs.deferred_demand;
      fs.deferred_demand.reset();
      handle_demand(d);
    }
  }
  pump_lock_requests(file);
}

void Client::lock_state_changed(FileId file) {
  FileState& fs = state_for(file);
  if (fs.lock_waits.empty()) return;
  // Move satisfied waiters out before invoking: a callback may re-enter
  // ensure_lock/pump and mutate the wait list. Inline capacity keeps the
  // single-waiter common case allocation-free.
  SmallVec<LockWait, 2> ready;
  auto& waits = fs.lock_waits;
  for (auto* it = waits.begin(); it != waits.end();) {
    if (mode_leq(it->mode, fs.mode)) {
      ready.push_back(std::move(*it));
      it = waits.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& w : ready) {
    settle_lock_wait(std::move(w.op), Status::ok());
  }
}

void Client::fail_lock_waits(FileId file, ErrorCode code) {
  FileState* fs = find_file(file);
  if (fs == nullptr || fs->lock_waits.empty()) return;
  SmallVec<LockWait, 2> failed = std::move(fs->lock_waits);
  for (auto& w : failed) {
    settle_lock_wait(std::move(w.op), Status{code});
  }
}

void Client::fail_all_lock_waits(ErrorCode code) {
  // Collect every waiter first, in ascending FileId (the callback order): a
  // failure callback may re-enter and mutate files_ (this is the
  // expiry/teardown path, not a hot one).
  std::vector<LockWait> failed;
  for (const FileId file : known_files()) {
    FileState& fs = *find_file(file);
    for (auto& w : fs.lock_waits) {
      failed.push_back(std::move(w));
    }
    fs.lock_waits.clear();
  }
  for (auto& w : failed) {
    settle_lock_wait(std::move(w.op), Status{code});
  }
}

void Client::handle_server_msg(const protocol::ServerBody& body) {
  std::visit(
      [&](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, protocol::LockDemand>) {
          handle_demand(msg);
        } else if constexpr (std::is_same_v<T, protocol::LockGrant>) {
          apply_grant(msg.file, msg.mode, msg.gen, msg.cookie);
        }
      },
      body);
}

void Client::handle_demand(const protocol::LockDemand& d) {
  FileState& fs = state_for(d.file);
  if (d.gen < fs.lock_gen) {
    return;  // demand against a superseded incarnation: a newer grant exists
  }
  if (d.gen > fs.lock_gen) {
    // The grant establishing this incarnation has not reached us yet
    // (datagram reordering): defer until it does.
    if (!fs.deferred_demand || fs.deferred_demand->gen < d.gen) {
      fs.deferred_demand = d;
    }
    return;
  }

  if (fs.revoking) {
    // A deeper demand for the same incarnation: fold into the active one.
    if (mode_leq(d.max_mode, fs.revoke_target)) {
      fs.revoke_target = d.max_mode;
    }
    return;
  }
  if (mode_leq(fs.mode, d.max_mode)) {
    // Already compliant (duplicate demand): confirm.
    transport_.send_request(protocol::DemandDoneReq{d.file, fs.mode, d.gen, fs.lock_cookie},
                            [](const protocol::ReplyEvent&) {});
    return;
  }

  fs.revoking = true;
  fs.revoke_target = d.max_mode;
  process_demand(d.file);
}

void Client::process_demand(FileId file) {
  FileState* fsp = find_file(file);
  if (fsp == nullptr) return;
  FileState& fs = *fsp;
  if (!fs.revoking) return;  // resolved meanwhile (e.g. lease expiry)

  if (fs.writes_in_flight > 0) {
    // Let in-flight cache mutations land before the revocation flush.
    clock_.schedule_after(sim::local_millis(1), [this, file]() { process_demand(file); });
    return;
  }

  if (fs.mode == LockMode::kExclusive && cache_.has_dirty(file)) {
    // Dirty data protected by this lock must reach the disk before the lock
    // is ceded (the consistency guarantee fencing alone cannot provide).
    flush_file(file, [this, file](Status st) {
      FileState* fs2 = find_file(file);
      if (fs2 == nullptr || !fs2->revoking) return;
      if (st.is_ok()) {
        finish_demand(file);
      } else {
        // Cannot flush (SAN fault / fenced). Keep the lock and retry; the
        // server's demand timeout will engage the lease protocol if this
        // never succeeds.
        clock_.schedule_after(sim::local_millis(500),
                              [this, file]() { process_demand(file); });
      }
    });
    return;
  }
  finish_demand(file);
}

void Client::finish_demand(FileId file) {
  FileState* fsp = find_file(file);
  if (fsp == nullptr) return;
  FileState& fs = *fsp;
  if (!fs.revoking) return;
  const LockMode target = fs.revoke_target;
  const std::uint32_t gen = fs.lock_gen;
  if (!mode_leq(fs.mode, target)) {
    fs.mode = target;
    ++fs.mode_seq;
    if (target == LockMode::kNone) {
      // Relinquishing entirely: the cache contents are no longer protected.
      cache_.invalidate_file(file);
      lease_->lock_released(file);
    }
  }
  fs.revoking = false;
  transport_.send_request(protocol::DemandDoneReq{file, fs.mode, gen, fs.lock_cookie},
                          [](const protocol::ReplyEvent&) {});
  pump_lock_requests(file);
}

// ---------------------------------------------------------------------------
// Size management

void Client::ensure_size(FileState& fs, std::uint64_t min_size, OpRef op) {
  // Fast path only when nothing is queued: letting a fresh write skip past
  // waiters parked behind an in-flight round would buffer it ahead of writes
  // that drew earlier versions under the same lock.
  if (fs.attr_known && fs.attr.size >= min_size && fs.size_waiters.empty() &&
      !fs.size_round_inflight) {
    write_sized(std::move(op), Status::ok());
    return;
  }
  fs.size_waiters.push_back(FileState::SizeWait{min_size, std::move(op)});
  if (!fs.size_round_inflight) {
    pump_size_round(fs.file);
  }
}

void Client::pump_size_round(FileId file) {
  FileState* fsp = find_file(file);
  if (fsp == nullptr) return;
  FileState& fs = *fsp;
  if (fs.size_waiters.empty()) {
    fs.size_round_inflight = false;
    return;
  }
  fs.size_round_inflight = true;
  std::uint64_t want = 0;
  for (const auto& w : fs.size_waiters) {
    want = std::max(want, w.min_size);
  }
  transport_.send_request(
      protocol::SetSizeReq{file, want, /*truncate=*/false},
      [this, file](const protocol::ReplyEvent& ev) {
        FileState* fs2p = find_file(file);
        if (fs2p == nullptr) return;
        FileState& fs2 = *fs2p;
        fs2.size_round_inflight = false;

        Status st = Status::ok();
        if (ev.outcome != protocol::ReplyOutcome::kAck) {
          st = Status{ev.outcome == protocol::ReplyOutcome::kNack ? ErrorCode::kNacked
                                                                  : ErrorCode::kTimeout};
        } else if (const auto* rep = std::get_if<protocol::AttrReply>(&ev.body)) {
          fs2.attr = rep->attr;
          fs2.extents = rep->extents;
          fs2.attr_known = true;
        } else if (const auto* err = std::get_if<protocol::ErrReply>(&ev.body)) {
          st = Status{err->code};
        } else {
          st = Status{ErrorCode::kInvalidArgument};
        }

        if (!st.is_ok()) {
          auto waiters = std::move(fs2.size_waiters);
          fs2.size_waiters.clear();
          for (auto& w : waiters) {
            write_sized(std::move(w.op), st);
          }
          pump_size_round(file);  // arrivals queued by the callbacks
          return;
        }
        // Serve the satisfied prefix strictly in arrival order; a waiter
        // queued mid-flight may need a bigger size and starts a new round.
        while (true) {
          FileState* fs3p = find_file(file);
          if (fs3p == nullptr) return;
          FileState& fs3 = *fs3p;
          if (fs3.size_waiters.empty() || !fs3.attr_known ||
              fs3.attr.size < fs3.size_waiters.front().min_size) {
            break;
          }
          OpRef w = std::move(fs3.size_waiters.front().op);
          fs3.size_waiters.erase(fs3.size_waiters.begin());
          write_sized(std::move(w), Status::ok());
        }
        pump_size_round(file);
      });
}

void Client::abort_size_rounds(ErrorCode why) {
  std::vector<OpRef> waiters;
  for (const FileId file : known_files()) {  // the callback order
    FileState& fs = *find_file(file);
    for (auto& w : fs.size_waiters) {
      waiters.push_back(std::move(w.op));
    }
    fs.size_waiters.clear();
    fs.size_round_inflight = false;
  }
  for (auto& w : waiters) {
    write_sized(std::move(w), Status{why});
  }
}

// ---------------------------------------------------------------------------
// Direct SAN data path

bool Client::block_io(const FileState& fs, std::uint64_t fb, storage::IoOp kind,
                      storage::IoRequest& io) const {
  if (!protocol::locate_block(fs.extents, fb, io.disk, io.addr)) return false;
  io.initiator = cfg_.id;
  io.op = kind;
  io.count = 1;
  io.io_key = (static_cast<std::uint64_t>(server_incarnation_) << 32) | transport_.epoch();
  return true;
}

void Client::read_direct(FileState& fs, OpRef op) {
  const std::uint64_t offset = op->offset;
  const std::uint64_t end = std::min<std::uint64_t>(fs.attr.size, offset + op->size);
  if (end <= offset) {
    op->read_done(Bytes{});
    return;
  }
  const std::uint64_t n = end - offset;
  SliceVec slices;
  if (!protocol::slice_range_into(fs.extents, cfg_.block_size, offset, n, slices)) {
    op->read_done(ErrorCode::kIoError);
    return;
  }

  const FileId file = fs.file;
  op->buf = take_buf();
  op->buf.resize(n);  // slices overwrite every byte; resize just sizes it
  op->expected = slices.size();
  // Pages fetched from disk may only enter the cache if the lock that
  // protected the fetch is STILL held, same incarnation — otherwise a fetch
  // completing after a demand invalidated this file would pollute the cache
  // with an unprotected (and soon stale) page.
  op->lock_gen = fs.lock_gen;
  for (const auto& s : slices) {
    if (BlockCache::Page* page = cache_.find(file, s.file_block)) {
      std::copy_n(page->data.begin() + s.offset_in_block, s.len,
                  op->buf.begin() + static_cast<std::ptrdiff_t>(s.buf_offset));
      read_slice_done(*op, Status::ok());
      continue;
    }
    storage::IoRequest io;
    if (!block_io(fs, s.file_block, storage::IoOp::kRead, io)) {
      read_slice_done(*op, Status{ErrorCode::kIoError});
      continue;
    }
    san_->submit(std::move(io), [this, op = op.share(), s](storage::IoResult res) {
      read_fetched(*op, s, std::move(res));
    });
  }
}

void Client::read_fetched(Op& op, const protocol::BlockSlice& s, storage::IoResult res) {
  if (op.life != gen_) return;  // completion from a previous incarnation
  if (!res.status.is_ok()) {
    read_slice_done(op, res.status);
    return;
  }
  std::copy_n(res.data.begin() + s.offset_in_block, s.len,
              op.buf.begin() + static_cast<std::ptrdiff_t>(s.buf_offset));
  const FileState* fs = find_file(op.file);
  const bool lock_intact =
      fs != nullptr && fs->lock_gen == op.lock_gen && fs->mode != LockMode::kNone;
  // Also never clobber a page that appeared (dirty) while we fetched.
  if (lock_intact && cache_.peek(op.file, s.file_block) == nullptr) {
    cache_.put(op.file, s.file_block, std::move(res.data), /*dirty=*/false);
  } else {
    recycle_buf(std::move(res.data));
  }
  read_slice_done(op, Status::ok());
}

void Client::read_slice_done(Op& op, Status st) {
  if (!op.fan_in(st)) return;
  if (!op.status.is_ok()) {
    recycle_buf(std::move(op.buf));
    op.read_done(op.status.error());
    return;
  }
  op.read_done(std::move(op.buf));
}

void Client::write_direct(FileState& fs, OpRef op) {
  SliceVec slices;
  if (!protocol::slice_range_into(fs.extents, cfg_.block_size, op->offset, op->buf.size(),
                                  slices)) {
    recycle_buf(std::move(op->buf));
    op->done(Status{ErrorCode::kIoError});
    return;
  }

  const FileId file = fs.file;
  op->expected = slices.size();
  for (const auto& s : slices) {
    const auto from = op->buf.begin() + static_cast<std::ptrdiff_t>(s.buf_offset);
    if (s.len == cfg_.block_size) {
      Bytes block = take_buf();
      block.assign(from, from + s.len);
      cache_.put(file, s.file_block, std::move(block), /*dirty=*/true);
      write_slice_done(*op, Status::ok());
      continue;
    }
    if (BlockCache::Page* page = cache_.find(file, s.file_block)) {
      std::copy_n(from, s.len, page->data.begin() + s.offset_in_block);
      page->dirty = true;
      write_slice_done(*op, Status::ok());
      continue;
    }
    // Partial write of an uncached block: read-modify-write. Counted as an
    // in-flight write so a concurrent lock demand waits for it.
    storage::IoRequest io;
    if (!block_io(fs, s.file_block, storage::IoOp::kRead, io)) {
      write_slice_done(*op, Status{ErrorCode::kIoError});
      continue;
    }
    ++fs.writes_in_flight;
    san_->submit(std::move(io), [this, op = op.share(), s](storage::IoResult res) {
      write_filled(*op, s, std::move(res));
    });
  }
}

void Client::write_filled(Op& op, const protocol::BlockSlice& s, storage::IoResult res) {
  if (op.life != gen_) return;  // completion from a previous incarnation
  FileState* fs = find_file(op.file);
  if (fs != nullptr && fs->writes_in_flight > 0) {
    --fs->writes_in_flight;
  }
  if (!res.status.is_ok()) {
    write_slice_done(op, res.status);
    return;
  }
  // Demands wait on writes_in_flight, but a lease ride-down does not: if the
  // lock changed while the fill was in flight, the dirty put would outlive
  // its serialization. (write_sized checked mode_seq just before the fill.)
  if (fs == nullptr || fs->mode_seq != op.mode_seq || fs->mode != LockMode::kExclusive) {
    recycle_buf(std::move(res.data));
    write_slice_done(op, Status{ErrorCode::kLockConflict});
    return;
  }
  Bytes block = std::move(res.data);
  std::copy_n(op.buf.begin() + static_cast<std::ptrdiff_t>(s.buf_offset), s.len,
              block.begin() + s.offset_in_block);
  cache_.put(op.file, s.file_block, std::move(block), /*dirty=*/true);
  write_slice_done(op, Status::ok());
}

void Client::write_slice_done(Op& op, Status st) {
  if (!op.fan_in(st)) return;
  recycle_buf(std::move(op.buf));  // every slice has consumed its span
  op.done(op.status);
}

// ---------------------------------------------------------------------------
// Server-shipped data path (the traditional baseline of table T5)

void Client::read_shipped(FileState& fs, OpRef op) {
  const FileId file = fs.file;
  const std::uint64_t offset = op->offset;

  // Serve entirely from cache when every covered block is cached (the shared
  // lock taken by read() protects those pages).
  const std::uint64_t end = std::min<std::uint64_t>(fs.attr.size, offset + op->size);
  if (end > offset) {
    const std::uint64_t n = end - offset;
    const std::uint32_t bs = cfg_.block_size;
    bool all_cached = true;
    for (std::uint64_t fb = offset / bs; fb <= (end - 1) / bs; ++fb) {
      if (cache_.peek(file, fb) == nullptr) {
        all_cached = false;
        break;
      }
    }
    if (all_cached) {
      Bytes out = take_buf();
      out.resize(n);
      for (std::uint64_t pos = offset; pos < end;) {
        const std::uint64_t fb = pos / bs;
        const std::uint32_t in_block = static_cast<std::uint32_t>(pos % bs);
        const std::uint32_t take =
            static_cast<std::uint32_t>(std::min<std::uint64_t>(bs - in_block, end - pos));
        const BlockCache::Page* page = cache_.find(file, fb);
        std::copy_n(page->data.begin() + in_block, take,
                    out.begin() + static_cast<std::ptrdiff_t>(pos - offset));
        pos += take;
      }
      op->read_done(std::move(out));
      return;
    }
  }

  const auto len = static_cast<std::uint32_t>(op->size);
  transport_.send_request(
      protocol::ReadDataReq{file, offset, len},
      [this, op = std::move(op)](const protocol::ReplyEvent& ev) {
        if (ev.outcome != protocol::ReplyOutcome::kAck) {
          op->read_done(ev.outcome == protocol::ReplyOutcome::kNack ? ErrorCode::kNacked
                                                                    : ErrorCode::kTimeout);
          return;
        }
        if (const auto* rep = std::get_if<protocol::DataReply>(&ev.body)) {
          const FileId file2 = op->file;
          const std::uint64_t offset2 = op->offset;
          FileState& fs2 = state_for(file2);
          // The server clamped by its own size; what came back proves the
          // file extends at least this far.
          fs2.attr.size = std::max<std::uint64_t>(fs2.attr.size, offset2 + rep->data.size());
          // Cache fully covered blocks for future hits.
          const std::uint32_t bs = cfg_.block_size;
          if (offset2 % bs == 0) {
            for (std::uint64_t off = 0; off + bs <= rep->data.size(); off += bs) {
              Bytes block = take_buf();
              block.assign(rep->data.begin() + static_cast<std::ptrdiff_t>(off),
                           rep->data.begin() + static_cast<std::ptrdiff_t>(off + bs));
              cache_.put(file2, (offset2 + off) / bs, std::move(block), /*dirty=*/false);
            }
          }
          op->read_done(rep->data);
          return;
        }
        if (const auto* err = std::get_if<protocol::ErrReply>(&ev.body)) {
          op->read_done(err->code);
          return;
        }
        op->read_done(ErrorCode::kInvalidArgument);
      });
}

void Client::write_shipped(FileState& fs, OpRef op) {
  const FileId file = fs.file;
  const std::uint64_t end = op->offset + op->size;
  // Write-through: the cached copies of the touched blocks are stale now;
  // drop them rather than patching partially covered pages (coarse but
  // simple: the whole file goes, unless the write touches no block).
  const std::uint32_t bs = cfg_.block_size;
  if (op->offset / bs <= (end > 0 ? (end - 1) / bs : 0)) {
    cache_.invalidate_file(file);
  }
  protocol::WriteDataReq req{file, op->offset, std::move(op->buf)};
  transport_.send_request(
      std::move(req), [this, op = std::move(op), end](const protocol::ReplyEvent& ev) {
        if (ev.outcome != protocol::ReplyOutcome::kAck) {
          op->done(Status{ev.outcome == protocol::ReplyOutcome::kNack ? ErrorCode::kNacked
                                                                      : ErrorCode::kTimeout});
          return;
        }
        if (const auto* err = std::get_if<protocol::ErrReply>(&ev.body)) {
          op->done(Status{err->code});
          return;
        }
        FileState& fs2 = state_for(op->file);
        fs2.attr.size = std::max(fs2.attr.size, end);
        op->done(Status::ok());
      });
}

// ---------------------------------------------------------------------------
// Flushing

void Client::flush_file(FileId file, StatusCb cb) {
  FileState* fs = find_file(file);
  if (fs == nullptr || !cache_.has_dirty(file)) {
    cb(Status::ok());
    return;
  }
  OpRef op = start_op(OpKind::kFlush, file);
  op->done = std::move(cb);
  cache_.dirty_blocks(file, op->blocks);
  op->expected = op->blocks.size();
  for (const std::uint64_t fb : op->blocks) {
    const BlockCache::Page* page = cache_.peek(file, fb);
    STANK_ASSERT(page != nullptr);
    write_block_through(*fs, op, fb, page->data);
  }
}

void Client::write_block_through(FileState& fs, const OpRef& op, std::uint64_t fb,
                                 const Bytes& data) {
  storage::IoRequest io;
  if (!block_io(fs, fb, storage::IoOp::kWrite, io)) {
    flush_block_done(*op, Status{ErrorCode::kIoError});
    return;
  }
  io.data = take_buf();  // snapshot of the page at flush time
  io.data.assign(data.begin(), data.end());
  Bytes snapshot = take_buf();  // second copy stays behind for the compare
  snapshot.assign(data.begin(), data.end());
  san_->submit(std::move(io), [this, op = op.share(), file = fs.file, fb,
                               snapshot = std::move(snapshot)](storage::IoResult res) mutable {
    if (op->life != gen_) return;  // completion from a previous incarnation
    if (res.status.is_ok()) {
      // Only mark clean if the page still holds exactly what we wrote; a
      // concurrent process write must stay dirty.
      const BlockCache::Page* page = cache_.peek(file, fb);
      if (page != nullptr && page->data == snapshot) {
        cache_.mark_clean(file, fb);
      }
    }
    recycle_buf(std::move(snapshot));
    flush_block_done(*op, res.status);
  });
}

void Client::flush_block_done(Op& op, Status st) {
  if (op.fan_in(st)) op.done(op.status);
}

void Client::flush_all(StatusCb cb) {
  OpRef op = start_op(OpKind::kFlush, FileId{});
  cache_.all_dirty(op->pages);
  if (op->pages.empty()) {
    cb(Status::ok());
    return;
  }
  op->done = std::move(cb);
  op->expected = op->pages.size();
  for (const auto& [file, fb] : op->pages) {
    FileState* fs = find_file(file);
    if (fs == nullptr) {
      flush_block_done(*op, Status{ErrorCode::kIoError});
      continue;
    }
    const BlockCache::Page* page = cache_.peek(file, fb);
    if (page == nullptr || !page->dirty) {
      flush_block_done(*op, Status::ok());
      continue;
    }
    write_block_through(*fs, op, fb, page->data);
  }
}

}  // namespace stank::client
