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

// How often a deregistered client retries RegisterReq.
constexpr sim::LocalDuration kReregisterRetry = sim::local_millis(700);

// The reply's body as a T, or null if the request failed or got another body.
template <typename T>
const T* reply_as(const protocol::ReplyEvent& ev) {
  return ev.outcome == protocol::ReplyOutcome::kAck ? std::get_if<T>(&ev.body) : nullptr;
}

// The error a failed reply reports: the server's ErrReply code, or the
// transport's verdict when no reply came.
ErrorCode reply_error(const protocol::ReplyEvent& ev) {
  if (ev.outcome != protocol::ReplyOutcome::kAck) {
    return ev.outcome == protocol::ReplyOutcome::kNack ? ErrorCode::kNacked : ErrorCode::kTimeout;
  }
  const auto* err = std::get_if<protocol::ErrReply>(&ev.body);
  return err != nullptr ? err->code : ErrorCode::kInvalidArgument;
}

// On-stack slice list: steady-state ops span a handful of blocks, so the
// inline capacity makes slicing allocation-free.
using SliceVec = SmallVec<protocol::BlockSlice, 8>;

}  // namespace

Client::Client(sim::Engine& engine, net::ControlNet& net, storage::SanFabric& san,
               sim::LocalClock local_clock, ClientConfig cfg, obs::Recorder* rec)
    : san_(&san),
      cfg_(std::move(cfg)),
      clock_(engine, local_clock),
      transport_(net, clock_, cfg_.id, cfg_.server, counters_, *this, cfg_.transport),
      cache_(cfg_.block_size),
      rec_(rec) {
  cfg_.lease.validate();
  if (rec_ != nullptr) {
    rec_->bind_engine(engine);
    transport_.set_recorder(rec_);
  }
  lease_ = core::make_client_lease(cfg_.strategy, clock_, cfg_.lease, *this, rec_, cfg_.id);
}

Client::~Client() {
  if (register_timer_ != 0) {
    clock_.cancel(register_timer_);
  }
  if (reassert_timer_ != 0) {
    clock_.cancel(reassert_timer_);
  }
}

void Client::on_ack(sim::LocalTime first_send) { lease_->renew(first_send); }

void Client::on_nack() {
  // Section 3.3: the client knows it missed a message and rides down from
  // phase 3. A strategy with no ride-down has lost the session: recover now.
  if (!lease_->on_nack()) handle_lease_expired();
}

bool Client::accept_server_msg(std::uint32_t epoch) {
  return session_.registered() && epoch == transport_.epoch() && lease_->lease_valid();
}

void Client::lease_keepalive() {
  transport_.send_request(
      protocol::KeepAliveReq{},
      [this](const protocol::ReplyEvent& ev) {
        if (ev.outcome == protocol::ReplyOutcome::kAck) lease_->keepalive_acked(ev.first_send);
      },
      /*lease_only=*/true);
}

void Client::lease_renew_object(FileId file) {
  transport_.send_request(
      protocol::RenewObjReq{file},
      [this, file](const protocol::ReplyEvent& ev) {
        if (ev.outcome == protocol::ReplyOutcome::kAck) lease_->object_renewed(file, ev.first_send);
      },
      /*lease_only=*/true);
}

void Client::lease_quiesce() { session_.admit(false); }

void Client::lease_flush() {
  flush_all([](Status) {});
}

void Client::lease_phase_changed(core::LeasePhase from, core::LeasePhase to) {
  if (static_cast<int>(from) >= static_cast<int>(core::LeasePhase::kSuspect) &&
      (to == core::LeasePhase::kActive || to == core::LeasePhase::kRenewal)) {
    // A keep-alive probe rescued an un-NACKed ride-down: the lease is valid
    // again and quiesce is over.
    session_.admit(true);
  }
  if (on_phase_change) on_phase_change(from, to);
}

void Client::lease_object_expired(FileId file) {
  // No cached page outlives its file's state, so a file never seen has none.
  if (FileState* fs = find_file(file)) perform(file, fs->lock.object_expired());
  fail_lock_waits(file, ErrorCode::kLeaseExpired);
}

void Client::start() {
  STANK_ASSERT_MSG(session_.start(), "start() is only valid once");
  transport_.start();
  register_with_server();
}

void Client::crash() {
  if (!session_.crash()) return;
  if (rec_ != nullptr) {
    rec_->record(clock_.engine().now(), cfg_.id, obs::EventKind::kCrash);
  }
  ++gen_;
  transport_.stop();
  lease_->stop();
  if (register_timer_ != 0) {
    clock_.cancel(register_timer_);
    register_timer_ = 0;
  }
  if (reassert_timer_ != 0) {
    clock_.cancel(reassert_timer_);
    reassert_timer_ = 0;
  }
  // Volatile state is gone. Callbacks of in-flight operations are dropped —
  // a crashed machine answers nobody.
  cache_.invalidate_all();
  files_.clear();
  fds_.clear();
}

void Client::restart() {
  STANK_ASSERT_MSG(session_.restart(), "restart() is only valid after crash()");
  if (rec_ != nullptr) {
    rec_->record(clock_.engine().now(), cfg_.id, obs::EventKind::kRestart, gen_);
  }
  transport_.set_epoch(0);
  transport_.start();
  register_with_server();
}

// ---------------------------------------------------------------------------
// Registration & lease lifecycle

void Client::register_with_server() {
  transport_.send_request(protocol::RegisterReq{}, [this](const protocol::ReplyEvent& ev) {
    if (const auto* rep = reply_as<protocol::RegisterReply>(ev)) {
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
      // Registered before the lease renews: a renewal anchored so far back
      // that the lease expires at once tears this session down again.
      session_.register_acked();
      session_.admit(lease_->on_registered(ev.first_send));
      if (can_reassert) {
        reassert_locks(std::exchange(pre_restart_flush_, std::nullopt));
      } else if (re_registration) {
        // Lease not even valid: too late to reassert safely — drop
        // everything. A new incarnation also numbers generations from
        // scratch.
        invalidate_everything(server_restarted);
      }
      if (on_registered) on_registered();
      return;
    }
    session_.register_failed();
    schedule_register_retry();
  });
}

void Client::schedule_register_retry() {
  if (register_timer_ != 0) return;
  register_timer_ = clock_.schedule_after(kReregisterRetry, [this]() {
    register_timer_ = 0;
    if (session_.retry()) register_with_server();
  });
}

void Client::handle_stale_session() {
  if (!session_.stale()) return;  // not registered: a registration is on its way
  // Keep the cache, the lock table and the lease: the failure is at the
  // SERVER; our contract (and dirty data) remain valid while the lease
  // lives. Outstanding requests will fail; the workload retries. The
  // RegisterReq's ACK renews the lease before its reply is handled, so note
  // now when the lease from before the restart flushes.
  pre_restart_flush_ = lease_->flush_time();
  transport_.abandon_pending();
  abort_size_rounds(ErrorCode::kStaleSession);
  register_with_server();
  schedule_register_retry();
}

void Client::reassert_locks(std::optional<sim::LocalTime> flush_at) {
  // The new incarnation numbers lock generations from scratch — for EVERY
  // file, not only the ones we reassert, or a stale pre-crash generation
  // would make us discard the new incarnation's grants and demands.
  // Ascending FileId: the send order assigns the msg ids.
  bool any = false;
  // A LockReq the old server queued (or one in flight to it) died with its
  // lock table, and reassert() drops it: those files ask again. Until the
  // grace period ends the server answers kRetryLater, and the pump retries.
  // A held lock's waiters pump once its reassertion is answered.
  std::vector<FileId> asking;
  for (const FileId file : known_files()) {
    FileLock& lock = find_file(file)->lock;
    if (lock.state() == FileLock::State::kAcquiring) asking.push_back(file);
    if (lock.reassert()) {
      send_reassert(file);
      any = true;
    }
  }
  for (const FileId file : asking) pump_lock_requests(file);
  if (reassert_timer_ != 0) {
    clock_.cancel(reassert_timer_);
    reassert_timer_ = 0;
  }
  // Without a phase 4 to flush in, nothing covers an unconfirmed lock: a
  // lost reply ends its reassertion at once.
  if (!any || !flush_at) return;
  const sim::LocalDuration wait = *flush_at - clock_.now();
  reassert_timer_ = clock_.schedule_after(std::max(wait, sim::LocalDuration{1}), [this]() {
    reassert_timer_ = 0;
    flush_reasserting();
  });
}

void Client::flush_reasserting() {
  for (const FileId file : known_files()) {
    FileState* fs = find_file(file);
    if (fs->lock.reasserting() && cache_.has_dirty(file)) write_dirty(*fs, [](Status) {});
  }
}

void Client::send_reassert(FileId file) {
  transport_.send_request(
      protocol::ReassertLockReq{file, find_file(file)->lock.mode()},
      [this, file](const protocol::ReplyEvent& ev) {
        FileState* fs = find_file(file);
        if (fs == nullptr) return;
        const auto* rep = reply_as<protocol::LockReply>(ev);
        const bool granted = rep != nullptr && rep->granted;
        if (rec_ != nullptr) {
          rec_->record(clock_.engine().now(), cfg_.id, obs::EventKind::kLockReassert,
                       file.value(), granted ? 1 : 0);
        }
        if (granted) {
          perform(file, fs->lock.reassert_granted(rep->gen, rep->cookie));
          return;
        }
        if (ev.outcome == protocol::ReplyOutcome::kAck &&
            reply_error(ev) != ErrorCode::kStaleSession) {
          // Refused: the lock (and cache) for this file are gone. Dirty
          // pages here are unprotected — drop them; the checker charges
          // this to the server-crash scenario, exactly the data-loss window
          // reassertion is meant to close.
          perform(file, fs->lock.reassert_refused());
          return;
        }
        // No answer: the server is unreachable, not refusing. Until the
        // pre-restart lease's phase 4, keep the lock and the dirty pages and
        // ask again. flush_reasserting() then writes the pages, and a reply
        // lost after that ends the reassertion as a refusal does. A stale
        // session leaves the lock to the next reassert_locks().
        if (ev.outcome != protocol::ReplyOutcome::kTimeout || !fs->lock.reasserting()) return;
        if (reassert_timer_ == 0) {
          perform(file, fs->lock.reassert_refused());
        } else if (session_.registered()) {
          send_reassert(file);
        }
      });
}

void Client::handle_lease_expired() {
  if (!session_.expire()) return;  // no lease to tear down
  before_lease_teardown();
  // A RegisterReq in flight is abandoned too: the one sent below replaces it.
  transport_.abandon_pending();
  abort_size_rounds(ErrorCode::kLeaseExpired);
  fail_all_lock_waits(ErrorCode::kLeaseExpired);
  invalidate_everything(false);
  lease_->torn_down();
  register_with_server();
  schedule_register_retry();
}

void Client::invalidate_everything(bool new_incarnation) {
  cache_.invalidate_all();
  for (auto& [file, fs] : files_) {
    fs->lock.lease_expired();
    if (new_incarnation) fs->lock.new_incarnation();
    fs->attr_known = false;
  }
}

// ---------------------------------------------------------------------------
// Gating & lookup

bool Client::lease_flushing() const {
  return flush_stops_dirtying_ && lease_->phase() >= core::LeasePhase::kFlush;
}

ErrorCode Client::gate() const {
  if (const ErrorCode why = session_.gate(); why != ErrorCode::kOk) return why;
  return lease_->admits_ops() ? ErrorCode::kOk : ErrorCode::kLeaseExpired;
}

template <typename Cb>
Client::FileState* Client::admit(Fd fd, Cb& cb) {
  if (const ErrorCode why = gate(); why != ErrorCode::kOk) {
    ++ops_rejected_;
    cb(why);
    return nullptr;
  }
  const FileId* file = fds_.find(fd);
  FileState* fs = file == nullptr ? nullptr : find_file(*file);
  if (fs == nullptr) cb(ErrorCode::kBadHandle);
  return fs;
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
  return fs == nullptr ? LockMode::kNone : fs->lock.mode();
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

void Client::release_op_pool() { std::vector<std::unique_ptr<Op>>().swap(op_pool()); }

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
  if (const ErrorCode why = gate(); why != ErrorCode::kOk) {
    ++ops_rejected_;
    cb(why);
    return;
  }
  OpRef op = start_op(OpKind::kOpen, FileId{});
  op->open_done = std::move(cb);
  transport_.send_request(
      protocol::OpenReq{path, create}, [this, op = std::move(op)](const protocol::ReplyEvent& ev) {
        const auto* rep = reply_as<protocol::OpenReply>(ev);
        if (rep == nullptr) {
          op->open_done(reply_error(ev));
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
  FileState* fs = admit(fd, cb);
  if (fs == nullptr) return;
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
  FileState* fs = admit(fd, cb);
  if (fs == nullptr) return;
  const FileId file = fs->file;
  OpRef op = start_op(OpKind::kGetattr, file);
  op->attr_done = std::move(cb);
  transport_.send_request(
      protocol::GetAttrReq{file}, [this, op = std::move(op)](const protocol::ReplyEvent& ev) {
        const auto* rep = reply_as<protocol::AttrReply>(ev);
        if (rep == nullptr) {
          op->attr_done(reply_error(ev));
          return;
        }
        FileState& fs2 = state_for(op->file);
        fs2.attr = rep->attr;
        fs2.extents = rep->extents;
        fs2.attr_known = true;
        op->attr_done(rep->attr);
      });
}

void Client::read(Fd fd, std::uint64_t offset, std::uint32_t len, ReadCb cb) {
  FileState* fs = admit(fd, cb);
  if (fs == nullptr) return;
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
  FileState* fs = admit(fd, cb);
  if (fs == nullptr) return;
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
  op->mode_seq = fs.lock.seq();
  const std::uint64_t end = op->offset + op->size;
  ensure_size(fs, end, std::move(op));
}

void Client::write_sized(OpRef op, Status st) {
  // The size round crossed the control net: the lease may have entered
  // phase 4, and the exclusive lock may have been revoked (demand, lease
  // ride-down) and even re-granted under it. Buffering now would dirty the
  // cache after the last flush, or under a serialization this write was not
  // issued in — fail and let the caller retry afresh.
  FileState* fs = find_file(op->file);
  if (st.is_ok()) {
    st = fs == nullptr ? Status{ErrorCode::kLockConflict}
                       : fs->lock.may_dirty(op->mode_seq, lease_flushing(), false);
  }
  if (!st.is_ok()) {
    op->done(st);
    return;
  }
  write_direct(*fs, std::move(op));
}

void Client::lock(Fd fd, protocol::LockMode mode, StatusCb cb) {
  FileState* fs = admit(fd, cb);
  if (fs == nullptr) return;
  OpRef op = start_op(OpKind::kLock, fs->file);
  op->done = std::move(cb);
  ensure_lock(fs->file, mode, std::move(op));
}

void Client::release(Fd fd, protocol::LockMode downgrade_to, StatusCb cb) {
  FileState* fs = admit(fd, cb);
  if (fs == nullptr) return;
  const FileId file = fs->file;
  if (fs->lock.revoking()) {
    cb(ErrorCode::kLockConflict);  // a server demand is already downgrading us
    return;
  }
  if (fs->lock.mode() <= downgrade_to) {
    cb(Status::ok());
    return;
  }

  OpRef op = start_op(OpKind::kUnlock, file);
  op->mode = downgrade_to;
  op->done = std::move(cb);
  if (fs->lock.mode() == LockMode::kExclusive && cache_.has_dirty(file)) {
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
  FileState* fs = find_file(op->file);
  if (fs == nullptr) {
    op->done(Status{ErrorCode::kShutdown});
    return;
  }
  const FileId file = fs->file;
  const LockMode to = op->mode;
  perform(file, fs->lock.downgrade(to));
  transport_.send_request(
      protocol::UnlockReq{file, to, fs->lock.gen(), fs->lock.cookie()},
      [op = std::move(op)](const protocol::ReplyEvent& ev) {
        op->done(ev.outcome == protocol::ReplyOutcome::kAck ? Status::ok()
                                                            : Status{ErrorCode::kTimeout});
      });
}

void Client::sync_all(StatusCb cb) {
  if (const ErrorCode why = gate(); why != ErrorCode::kOk) {
    cb(why);
    return;
  }
  flush_all(std::move(cb));
}

void Client::fsync(Fd fd, StatusCb cb) {
  FileState* fs = admit(fd, cb);
  if (fs == nullptr) return;
  flush_file(fs->file, std::move(cb));
}

// ---------------------------------------------------------------------------
// Locking

void Client::ensure_lock(FileId file, LockMode mode, OpRef op) {
  FileState& fs = state_for(file);
  if (fs.lock.mode() != LockMode::kNone && !lease_->lock_usable(file)) {
    perform(file, fs.lock.unusable());
  }
  if (fs.lock.admits(mode)) {
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

void Client::perform(FileId file, FileLock::Io io) {
  if ((io & FileLock::kInvalidate) != 0) cache_.invalidate_file(file);
  if ((io & FileLock::kReleased) != 0) lease_->lock_released(file);
  if ((io & FileLock::kAcquired) != 0) lease_->lock_acquired(file);
  if ((io & FileLock::kDemandDone) != 0) {
    const FileLock& lock = find_file(file)->lock;
    transport_.send_request(protocol::DemandDoneReq{file, lock.mode(), lock.gen(), lock.cookie()},
                            [](const protocol::ReplyEvent&) {});
  }
  if ((io & FileLock::kSettle) != 0) lock_state_changed(file);
  if ((io & FileLock::kRedemand) != 0) perform(file, state_for(file).lock.redemand());
  if ((io & FileLock::kRevoke) != 0) process_demand(file);
  if ((io & FileLock::kPump) != 0) pump_lock_requests(file);
}

void Client::pump_lock_requests(FileId file) {
  FileState* fs = find_file(file);
  // A revocation or reassertion in progress re-pumps when it completes.
  if (fs == nullptr || fs->lock.revoking() || fs->lock.reasserting() || fs->lock_waits.empty()) {
    return;
  }
  LockMode want = LockMode::kNone;
  for (const auto& w : fs->lock_waits) {
    want = std::max(want, w.mode);
  }
  if (want <= fs->lock.mode()) {
    lock_state_changed(file);
    return;
  }
  if (!fs->lock.request(want)) return;  // a sufficient request is already in flight
  transport_.send_request(
      protocol::LockReq{file, want}, [this, file](const protocol::ReplyEvent& ev) {
        FileState* fs2 = find_file(file);
        if (fs2 == nullptr) return;  // state discarded (crash) while in flight
        const auto* rep = reply_as<protocol::LockReply>(ev);
        if (rep != nullptr && !rep->granted) return;  // queued: a LockGrant will follow
        fs2->lock.request_done();
        if (rep != nullptr) {
          perform(file, fs2->lock.grant(rep->mode, rep->gen, rep->cookie));
          return;
        }
        const ErrorCode code = reply_error(ev);
        if (code == ErrorCode::kRetryLater || code == ErrorCode::kStaleSession) {
          // Post-restart grace period (or session refresh in flight): keep
          // the waiters and retry shortly.
          clock_.schedule_after(sim::local_millis(300), [this, file]() { pump_lock_requests(file); });
          return;
        }
        fail_lock_waits(file, code);
      });
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
    if (it->mode <= fs.lock.mode()) {
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
          perform(msg.file, state_for(msg.file).lock.demand(msg.max_mode, msg.gen));
        } else if constexpr (std::is_same_v<T, protocol::LockGrant>) {
          perform(msg.file, state_for(msg.file).lock.grant(msg.mode, msg.gen, msg.cookie));
        }
      },
      body);
}

void Client::process_demand(FileId file) {
  FileState* fs = find_file(file);
  if (fs == nullptr || !fs->lock.revoking()) return;  // resolved meanwhile (e.g. lease expiry)

  if (fs->writes_in_flight > 0) {
    // Let in-flight cache mutations land before the revocation flush.
    clock_.schedule_after(sim::local_millis(1), [this, file]() { process_demand(file); });
    return;
  }

  if (fs->lock.mode() == LockMode::kExclusive && cache_.has_dirty(file)) {
    // Dirty data protected by this lock must reach the disk before the lock
    // is ceded (the consistency guarantee fencing alone cannot provide).
    flush_file(file, [this, file](Status st) {
      FileState* fs2 = find_file(file);
      if (fs2 == nullptr || !fs2->lock.revoking()) return;
      if (st.is_ok()) {
        perform(file, fs2->lock.demand_done());
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
  perform(file, fs->lock.demand_done());
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
  FileState* fs = find_file(file);
  if (fs == nullptr) return;
  fs->size_round_inflight = !fs->size_waiters.empty();
  if (!fs->size_round_inflight) return;
  std::uint64_t want = 0;
  for (const auto& w : fs->size_waiters) {
    want = std::max(want, w.min_size);
  }
  transport_.send_request(
      protocol::SetSizeReq{file, want, /*truncate=*/false},
      [this, file](const protocol::ReplyEvent& ev) {
        FileState* fs2 = find_file(file);
        if (fs2 == nullptr) return;
        fs2->size_round_inflight = false;
        const auto* rep = reply_as<protocol::AttrReply>(ev);
        if (rep == nullptr) {
          const Status st = reply_error(ev);
          auto waiters = std::move(fs2->size_waiters);
          fs2->size_waiters.clear();
          for (auto& w : waiters) {
            write_sized(std::move(w.op), st);
          }
          pump_size_round(file);  // arrivals queued by the callbacks
          return;
        }
        fs2->attr = rep->attr;
        fs2->extents = rep->extents;
        fs2->attr_known = true;
        // Serve the satisfied prefix strictly in arrival order; a waiter
        // queued mid-flight may need a bigger size and starts a new round.
        while (fs2 != nullptr && !fs2->size_waiters.empty() && fs2->attr_known &&
               fs2->attr.size >= fs2->size_waiters.front().min_size) {
          OpRef w = std::move(fs2->size_waiters.front().op);
          fs2->size_waiters.erase(fs2->size_waiters.begin());
          write_sized(std::move(w), Status::ok());
          fs2 = find_file(file);  // the write's callback may have re-entered
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
  op->lock_gen = fs.lock.gen();
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
  // Also never clobber a page that appeared (dirty) while we fetched.
  if (fs != nullptr && fs->lock.may_cache_clean(op.lock_gen) &&
      cache_.peek(op.file, s.file_block) == nullptr) {
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
  // lock changed while the fill was in flight, or phase 4 began, the dirty
  // put would outlive its serialization or the last flush.
  const Status st = fs == nullptr ? Status{ErrorCode::kLockConflict}
                                  : fs->lock.may_dirty(op.mode_seq, lease_flushing(), true);
  if (!st.is_ok()) {
    recycle_buf(std::move(res.data));
    write_slice_done(op, st);
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
        const auto* rep = reply_as<protocol::DataReply>(ev);
        if (rep == nullptr) {
          op->read_done(reply_error(ev));
          return;
        }
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
        if (ev.outcome != protocol::ReplyOutcome::kAck ||
            std::holds_alternative<protocol::ErrReply>(ev.body)) {
          op->done(reply_error(ev));
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
  if (fs->lock.reasserting()) {
    cb(Status{ErrorCode::kLockConflict});
    return;
  }
  write_dirty(*fs, std::move(cb));
}

void Client::write_dirty(FileState& fs, StatusCb cb) {
  const FileId file = fs.file;
  OpRef op = start_op(OpKind::kFlush, file);
  op->done = std::move(cb);
  cache_.dirty_blocks(file, op->blocks);
  op->expected = op->blocks.size();
  for (const std::uint64_t fb : op->blocks) {
    const BlockCache::Page* page = cache_.peek(file, fb);
    STANK_ASSERT(page != nullptr);
    write_block_through(fs, op, fb, page->data);
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
    if (fs->lock.reasserting()) {
      flush_block_done(*op, Status{ErrorCode::kLockConflict});
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
