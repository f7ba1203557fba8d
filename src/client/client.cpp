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
// V-lease renewal point and Frangipani heartbeat period, as fractions of tau.
constexpr double kVRenewFrac = 0.5;
constexpr double kHbBeatFrac = 0.34;

// Fan-in helper for multi-block operations.
struct FanIn {
  std::size_t expected{0};
  std::size_t seen{0};
  Status status{Status::ok()};
  std::function<void(Status)> done;

  void complete(Status s) {
    if (!s.is_ok() && status.is_ok()) {
      status = s;
    }
    if (++seen == expected && done) {
      done(status);
    }
  }
};

// Combined fan state for read_direct: the (pooled) result buffer, the
// caller's callback and the fan-in counters share one allocation instead of
// a buffer shared_ptr + FanIn + a capturing done-closure.
struct ReadFan {
  Bytes buf;
  std::function<void(Result<Bytes>)> cb;
  std::size_t expected{0};
  std::size_t seen{0};
  Status status{Status::ok()};
};

// Same idea for write_direct: the caller's payload rides in the fan.
struct WriteFan {
  Bytes data;
  std::function<void(Status)> cb;
  std::size_t expected{0};
  std::size_t seen{0};
  Status status{Status::ok()};
};

// On-stack slice list: steady-state ops span a handful of blocks, so the
// inline capacity makes slicing allocation-free.
using SliceVec = SmallVec<protocol::BlockSlice, 8>;

}  // namespace

Client::Client(sim::Engine& engine, net::ControlNet& net, storage::SanFabric& san,
               sim::LocalClock local_clock, ClientConfig cfg, obs::Recorder* rec)
    : engine_(&engine),
      san_(&san),
      cfg_(std::move(cfg)),
      clock_(engine, local_clock),
      rec_(rec),
      transport_(net, clock_, cfg_.id, cfg_.server, counters_, cfg_.transport),
      cache_(cfg_.block_size, cfg_.cache_capacity_pages) {
  cfg_.lease.validate();
  if (rec_ != nullptr) {
    rec_->bind_engine(engine);
    transport_.set_recorder(rec_);
  }
  wire_transport();
  build_lease_machinery();
}

Client::~Client() {
  if (register_timer_ != 0) {
    clock_.cancel(register_timer_);
  }
  if (writeback_timer_ != 0) {
    clock_.cancel(writeback_timer_);
  }
}

void Client::wire_transport() {
  transport_.on_ack = [this](sim::LocalTime first_send) {
    if (agent_) agent_->renew(first_send);
  };
  transport_.on_nack = [this]() {
    if (agent_) {
      // Section 3.3: the client knows it missed a message; phase 3 directly.
      agent_->on_nack();
    } else {
      // Heartbeat / per-object strategies have no phased ride-down: the
      // session is gone, recover now.
      handle_lease_expired();
    }
  };
  transport_.on_stale_session = [this]() { handle_stale_session(); };
  transport_.on_server_msg = [this](const protocol::ServerBody& body) { handle_server_msg(body); };
  transport_.accept_server_msg = [this](std::uint32_t epoch) {
    if (crashed_ || !registered_) return false;
    if (epoch != transport_.epoch()) return false;
    if (agent_ && !agent_->lease_valid()) return false;
    return true;
  };
}

void Client::build_lease_machinery() {
  switch (cfg_.strategy) {
    case core::LeaseStrategy::kStorageTank: {
      core::ClientLeaseAgent::Hooks hooks;
      hooks.send_keepalive = [this]() {
        // The NULL message: no file-system or lock content, exists to be
        // ACKed (which renews via transport_.on_ack).
        transport_.send_request(protocol::KeepAliveReq{}, [](const protocol::ReplyEvent&) {},
                                /*lease_only=*/true);
      };
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
      agent_ = std::make_unique<core::ClientLeaseAgent>(clock_, cfg_.lease, std::move(hooks));
      if (rec_ != nullptr) {
        agent_->set_recorder(rec_, cfg_.id);
      }
      break;
    }
    case core::LeaseStrategy::kVLeases: {
      baselines::VLeaseClientScheduler::Hooks hooks;
      hooks.send_renew = [this](FileId file) {
        transport_.send_request(
            protocol::RenewObjReq{file},
            [this, file](const protocol::ReplyEvent& ev) {
              if (ev.outcome == protocol::ReplyOutcome::kAck && v_sched_) {
                v_sched_->renewed(file, ev.first_send);
              }
            },
            /*lease_only=*/true);
      };
      hooks.object_expired = [this](FileId file) {
        // This object's lease lapsed: its lock and cached pages are invalid.
        cache_.invalidate_file(file);
        if (FileState* fs = find_file(file)) {
          fs->mode = LockMode::kNone;
          ++fs->mode_seq;
          fs->pending_mode = LockMode::kNone;
        }
        fail_lock_waits(file, ErrorCode::kLeaseExpired);
      };
      v_sched_ = std::make_unique<baselines::VLeaseClientScheduler>(clock_, cfg_.lease.tau,
                                                                    kVRenewFrac,
                                                                    std::move(hooks));
      break;
    }
    case core::LeaseStrategy::kFrangipani: {
      baselines::HeartbeatClientScheduler::Hooks hooks;
      hooks.send_heartbeat = [this]() {
        transport_.send_request(
            protocol::KeepAliveReq{},
            [this](const protocol::ReplyEvent& ev) {
              if (ev.outcome == protocol::ReplyOutcome::kAck && hb_sched_) {
                hb_sched_->on_ack(ev.first_send);
              }
            },
            /*lease_only=*/true);
      };
      hooks.expired = [this]() { handle_lease_expired(); };
      hb_sched_ = std::make_unique<baselines::HeartbeatClientScheduler>(
          clock_, cfg_.lease.tau, kHbBeatFrac, std::move(hooks));
      break;
    }
  }
}

void Client::start() {
  STANK_ASSERT(!started_);
  started_ = true;
  transport_.start();
  register_with_server();
  if (cfg_.writeback_interval.ns > 0) {
    writeback_timer_ = clock_.schedule_after(cfg_.writeback_interval,
                                             [this]() { writeback_tick(); });
  }
}

void Client::writeback_tick() {
  writeback_timer_ = 0;
  if (crashed_) return;
  if (registered_ && accepting_ && cache_.dirty_count() > 0) {
    flush_all([](Status) {});
  }
  writeback_timer_ =
      clock_.schedule_after(cfg_.writeback_interval, [this]() { writeback_tick(); });
}

void Client::enforce_cache_limit() {
  while (cache_.over_capacity()) {
    if (cache_.evict_clean_lru().has_value()) {
      continue;
    }
    // Every page is dirty: flush the least-recently-used dirty page's file,
    // then try again — dropping dirty data would be a silent lost update.
    auto od = cache_.oldest_dirty();
    if (!od) break;
    flush_file(od->first, [this](Status st) {
      if (st.is_ok()) enforce_cache_limit();
    });
    break;
  }
}

void Client::crash() {
  if (crashed_) return;
  if (rec_ != nullptr) {
    rec_->record(clock_.engine().now(), cfg_.id, obs::EventKind::kCrash);
  }
  crashed_ = true;
  ++gen_;
  transport_.stop();
  if (agent_) agent_->deactivate();
  if (hb_sched_) hb_sched_->stop();
  if (v_sched_) v_sched_->clear();
  if (register_timer_ != 0) {
    clock_.cancel(register_timer_);
    register_timer_ = 0;
  }
  if (writeback_timer_ != 0) {
    clock_.cancel(writeback_timer_);
    writeback_timer_ = 0;
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
  if (cfg_.writeback_interval.ns > 0 && writeback_timer_ == 0) {
    writeback_timer_ = clock_.schedule_after(cfg_.writeback_interval,
                                             [this]() { writeback_tick(); });
  }
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
        const bool can_reassert =
            re_registration && (agent_ == nullptr || agent_->lease_valid());
        server_incarnation_ = rep->incarnation;
        registered_ = true;
        if (agent_) {
          if (agent_->lease_valid() && !agent_->nack_latched()) {
            agent_->renew(ev.first_send);
          } else {
            // NACK-latched or expired: the successful registration opened a
            // FRESH contract (new epoch at the server), so the old lease's
            // quiesce discipline no longer applies. renew() would refuse
            // while latched and the client would expire moments after
            // resuming service, dropping writes accepted in the window.
            // Anchor the new lease at the RegisterReq's first send (t_C1).
            agent_->restart(ev.first_send);
          }
          // A retried RegisterReq can anchor so far back that the lease is
          // already in ride-down; resuming service then would buffer dirty
          // data inside the flush window and lose it at expiry. Stay
          // quiesced — the keep-alive probe re-opens service on rescue.
          accepting_ = agent_->fs_ops_allowed();
        } else {
          accepting_ = true;
        }
        if (hb_sched_) {
          if (hb_sched_->running()) hb_sched_->stop();
          hb_sched_->start();
        }
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
                  rec_->record(engine_->now(), cfg_.id, obs::EventKind::kLockReassert,
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
            rec_->record(engine_->now(), cfg_.id, obs::EventKind::kLockReassert,
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
  if (hb_sched_ && hb_sched_->running()) hb_sched_->stop();
  if (v_sched_) v_sched_->clear();
  if (on_lease_expired) on_lease_expired();
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

core::LeasePhase Client::lease_phase() const {
  return agent_ ? agent_->phase() : core::LeasePhase::kNoLease;
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
  // Frangipani-style lease: validity is checked on every operation (a
  // heartbeat-tick-only check would serve stale cache in the gap between
  // true expiry and the next tick).
  if (hb_sched_ && !hb_sched_->lease_valid(clock_.now())) {
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
// Public file API

void Client::open(const std::string& path, bool create, std::function<void(Result<Fd>)> cb) {
  ErrorCode why;
  if (!gate(why)) {
    ++ops_rejected_;
    cb(why);
    return;
  }
  transport_.send_request(
      protocol::OpenReq{path, create}, [this, cb = std::move(cb)](const protocol::ReplyEvent& ev) {
        if (ev.outcome != protocol::ReplyOutcome::kAck) {
          cb(ev.outcome == protocol::ReplyOutcome::kNack ? ErrorCode::kNacked
                                                         : ErrorCode::kTimeout);
          return;
        }
        if (const auto* err = std::get_if<protocol::ErrReply>(&ev.body)) {
          cb(err->code);
          return;
        }
        const auto* rep = std::get_if<protocol::OpenReply>(&ev.body);
        if (rep == nullptr) {
          cb(ErrorCode::kInvalidArgument);
          return;
        }
        FileState& fs = state_for(rep->file);
        fs.attr = rep->attr;
        fs.extents = rep->extents;
        fs.attr_known = true;
        fs.last_validate = clock_.now();
        ++fs.open_count;
        const Fd fd = next_fd_++;
        fds_.insert(fd, rep->file);
        ++ops_completed_;
        cb(fd);
      });
}

void Client::close(Fd fd, std::function<void(Status)> cb) {
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
  transport_.send_request(protocol::CloseReq{file},
                          [this, cb = std::move(cb)](const protocol::ReplyEvent& ev) {
                            ++ops_completed_;
                            cb(ev.outcome == protocol::ReplyOutcome::kAck
                                   ? Status::ok()
                                   : Status{ErrorCode::kTimeout});
                          });
}

void Client::getattr(Fd fd, std::function<void(Result<protocol::FileAttr>)> cb) {
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
  transport_.send_request(
      protocol::GetAttrReq{file},
      [this, file, cb = std::move(cb)](const protocol::ReplyEvent& ev) {
        if (ev.outcome != protocol::ReplyOutcome::kAck) {
          cb(ev.outcome == protocol::ReplyOutcome::kNack ? ErrorCode::kNacked
                                                         : ErrorCode::kTimeout);
          return;
        }
        if (const auto* rep = std::get_if<protocol::AttrReply>(&ev.body)) {
          FileState& fs2 = state_for(file);
          fs2.attr = rep->attr;
          fs2.extents = rep->extents;
          fs2.attr_known = true;
          fs2.last_validate = clock_.now();
          ++ops_completed_;
          cb(rep->attr);
          return;
        }
        if (const auto* err = std::get_if<protocol::ErrReply>(&ev.body)) {
          cb(err->code);
          return;
        }
        cb(ErrorCode::kInvalidArgument);
      });
}

void Client::read(Fd fd, std::uint64_t offset, std::uint32_t len,
                  std::function<void(Result<Bytes>)> cb) {
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

  if (cfg_.coherence == CoherenceMode::kNfsPoll) {
    maybe_revalidate(*fs, [this, file, offset, len, cb = std::move(cb)](Status st) {
      if (!st.is_ok()) {
        cb(st.error());
        return;
      }
      FileState& fs2 = state_for(file);
      if (cfg_.data_path == DataPath::kServerShipped) {
        read_shipped(fs2, offset, len, std::move(cb));
      } else {
        read_direct(fs2, offset, len, std::move(cb));
      }
    });
    return;
  }

  ensure_lock(file, LockMode::kShared, [this, file, offset, len, cb = std::move(cb)](Status st) {
    if (!st.is_ok()) {
      cb(st.error());
      return;
    }
    FileState& fs2 = state_for(file);
    if (cfg_.data_path == DataPath::kServerShipped) {
      read_shipped(fs2, offset, len, std::move(cb));
    } else {
      read_direct(fs2, offset, len, std::move(cb));
    }
  });
}

void Client::write(Fd fd, std::uint64_t offset, Bytes data, std::function<void(Status)> cb) {
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

  if (cfg_.coherence == CoherenceMode::kNfsPoll ||
      cfg_.data_path == DataPath::kServerShipped) {
    // Traditional/NFS path: ship the write; the server grows the file.
    write_shipped(*fs, offset, std::move(data), std::move(cb));
    return;
  }

  ensure_lock(file, LockMode::kExclusive,
              [this, file, offset, data = std::move(data), cb = std::move(cb)](Status st) mutable {
                if (!st.is_ok()) {
                  cb(st);
                  return;
                }
                FileState& fs2 = state_for(file);
                const std::uint64_t seq = fs2.mode_seq;
                const std::uint64_t end = offset + data.size();
                ensure_size(fs2, end,
                            [this, file, offset, seq, data = std::move(data),
                             cb = std::move(cb)](Status st2) mutable {
                              if (!st2.is_ok()) {
                                cb(st2);
                                return;
                              }
                              // The size round crossed the control net; the
                              // exclusive lock may have been revoked (demand,
                              // lease ride-down) and even re-granted under it.
                              // Buffering now would dirty the cache under a
                              // serialization this write was not issued in —
                              // fail and let the caller retry afresh.
                              FileState* fs3 = find_file(file);
                              if (fs3 == nullptr || fs3->mode_seq != seq ||
                                  fs3->mode != LockMode::kExclusive || fs3->revoking) {
                                cb(Status{ErrorCode::kLockConflict});
                                return;
                              }
                              write_direct(*fs3, offset, std::move(data), std::move(cb));
                            });
              });
}

void Client::lock(Fd fd, protocol::LockMode mode, std::function<void(Status)> cb) {
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
  ensure_lock(fs->file, mode, std::move(cb));
}

void Client::release(Fd fd, protocol::LockMode downgrade_to, std::function<void(Status)> cb) {
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

  if (fs->mode == LockMode::kExclusive && cache_.has_dirty(file)) {
    flush_file(file, [this, file, downgrade_to, cb = std::move(cb)](Status st) mutable {
      if (!st.is_ok()) {
        // Keep the lock — dirty data must not be orphaned — but tell the
        // caller the release did not happen.
        cb(st);
        return;
      }
      do_unlock(file, downgrade_to, std::move(cb));
    });
    return;
  }
  // Fast path (shared lock, or exclusive with a clean cache): no flush, no
  // shared_ptr dance, no allocation.
  do_unlock(file, downgrade_to, std::move(cb));
}

void Client::do_unlock(FileId file, LockMode downgrade_to, std::function<void(Status)> cb) {
  FileState* fsp = find_file(file);
  if (fsp == nullptr) {
    cb(Status{ErrorCode::kShutdown});
    return;
  }
  FileState& fs = *fsp;
  fs.mode = downgrade_to;
  ++fs.mode_seq;
  if (downgrade_to == LockMode::kNone) {
    cache_.invalidate_file(file);
    if (v_sched_) v_sched_->object_released(file);
  }
  transport_.send_request(protocol::UnlockReq{file, downgrade_to, fs.lock_gen, fs.lock_cookie},
                          [cb = std::move(cb)](const protocol::ReplyEvent& ev) {
                            cb(ev.outcome == protocol::ReplyOutcome::kAck
                                   ? Status::ok()
                                   : Status{ErrorCode::kTimeout});
                          });
}

void Client::sync_all(std::function<void(Status)> cb) {
  ErrorCode why;
  if (!gate(why)) {
    cb(why);
    return;
  }
  flush_all(std::move(cb));
}

void Client::fsync(Fd fd, std::function<void(Status)> cb) {
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

void Client::ensure_lock(FileId file, LockMode mode, std::function<void(Status)> cb) {
  FileState& fs = state_for(file);
  // Per-object (V-lease) strategy: the lock is only usable while its lease
  // lives. Checked on EVERY operation, not only at scheduler ticks, so an
  // expired object can never serve stale cache in the detection gap.
  if (v_sched_ && fs.mode != LockMode::kNone &&
      !v_sched_->object_valid(file, clock_.now())) {
    cache_.invalidate_file(file);
    fs.mode = LockMode::kNone;
    ++fs.mode_seq;
  }
  // An exclusive request must not overtake an in-progress revocation: a page
  // dirtied between the revocation flush and the downgrade would survive
  // under an insufficient lock.
  const bool blocked_by_revoke = fs.revoking && mode == LockMode::kExclusive;
  if (mode_leq(mode, fs.mode) && !blocked_by_revoke) {
    cb(Status::ok());
    return;
  }
  if (rec_ != nullptr) {
    // Lock-grant latency span: queued-acquire to callback (cache hits above
    // are free and would only dilute the percentiles).
    const sim::SimTime start = clock_.engine().now();
    cb = [this, start, inner = std::move(cb)](Status st) {
      rec_->span(obs::SpanKind::kLockAcquire, (clock_.engine().now() - start).millis());
      inner(st);
    };
  }
  fs.lock_waits.push_back(LockWait{mode, std::move(cb)});
  pump_lock_requests(file);
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
  if (v_sched_) v_sched_->object_acquired(file);
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
    w.cb(Status::ok());
  }
}

void Client::fail_lock_waits(FileId file, ErrorCode code) {
  FileState* fs = find_file(file);
  if (fs == nullptr || fs->lock_waits.empty()) return;
  SmallVec<LockWait, 2> failed = std::move(fs->lock_waits);
  for (auto& w : failed) {
    w.cb(Status{code});
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
    w.cb(Status{code});
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
      if (v_sched_) v_sched_->object_released(file);
    }
  }
  fs.revoking = false;
  transport_.send_request(protocol::DemandDoneReq{file, fs.mode, gen, fs.lock_cookie},
                          [](const protocol::ReplyEvent&) {});
  pump_lock_requests(file);
}

// ---------------------------------------------------------------------------
// Size management

void Client::ensure_size(FileState& fs, std::uint64_t min_size, std::function<void(Status)> cb) {
  // Fast path only when nothing is queued: letting a fresh write skip past
  // waiters parked behind an in-flight round would buffer it ahead of writes
  // that drew earlier versions under the same lock.
  if (fs.attr_known && fs.attr.size >= min_size && fs.size_waiters.empty() &&
      !fs.size_round_inflight) {
    cb(Status::ok());
    return;
  }
  fs.size_waiters.push_back(FileState::SizeWait{min_size, std::move(cb)});
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
            w.cb(st);
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
          auto cb = std::move(fs3.size_waiters.front().cb);
          fs3.size_waiters.erase(fs3.size_waiters.begin());
          cb(Status::ok());
        }
        pump_size_round(file);
      });
}

void Client::abort_size_rounds(ErrorCode why) {
  std::vector<std::function<void(Status)>> cbs;
  for (const FileId file : known_files()) {  // the callback order
    FileState& fs = *find_file(file);
    for (auto& w : fs.size_waiters) {
      cbs.push_back(std::move(w.cb));
    }
    fs.size_waiters.clear();
    fs.size_round_inflight = false;
  }
  for (auto& cb : cbs) {
    cb(Status{why});
  }
}

// ---------------------------------------------------------------------------
// Direct SAN data path

void Client::fetch_block(FileState& fs, std::uint64_t fb, std::function<void(Result<Bytes>)> cb) {
  DiskId disk;
  storage::BlockAddr addr;
  if (!protocol::locate_block(fs.extents, fb, disk, addr)) {
    cb(ErrorCode::kIoError);
    return;
  }
  storage::IoRequest io;
  io.initiator = cfg_.id;
  io.disk = disk;
  io.op = storage::IoOp::kRead;
  io.addr = addr;
  io.count = 1;
  io.io_key = (static_cast<std::uint64_t>(server_incarnation_) << 32) | transport_.epoch();
  const std::uint32_t gen = gen_;
  san_->submit(std::move(io), [this, gen, cb = std::move(cb)](storage::IoResult res) {
    if (gen != gen_) return;  // completion from a previous incarnation
    if (!res.status.is_ok()) {
      cb(res.status.error());
      return;
    }
    cb(std::move(res.data));
  });
}

void Client::read_direct(FileState& fs, std::uint64_t offset, std::uint32_t len,
                         std::function<void(Result<Bytes>)> cb) {
  const std::uint64_t size = fs.attr.size;
  const std::uint64_t end = std::min<std::uint64_t>(size, offset + len);
  if (end <= offset) {
    ++ops_completed_;
    cb(Bytes{});
    return;
  }
  const std::uint64_t n = end - offset;
  SliceVec slices;
  if (!protocol::slice_range_into(fs.extents, cfg_.block_size, offset, n, slices)) {
    cb(ErrorCode::kIoError);
    return;
  }

  const FileId file = fs.file;
  auto fan = std::make_shared<ReadFan>();
  fan->buf = take_buf();
  fan->buf.resize(n);  // slices overwrite every byte; resize just sizes it
  fan->cb = std::move(cb);
  fan->expected = slices.size();
  auto complete = [this, fan](Status st) {
    if (!st.is_ok() && fan->status.is_ok()) fan->status = st;
    if (++fan->seen != fan->expected) return;
    if (!fan->status.is_ok()) {
      recycle_buf(std::move(fan->buf));
      fan->cb(fan->status.error());
      return;
    }
    ++ops_completed_;
    enforce_cache_limit();
    fan->cb(std::move(fan->buf));
  };

  // Pages fetched from disk may only enter the cache if the lock that
  // protected the fetch is STILL held, same incarnation — otherwise a fetch
  // completing after a demand invalidated this file would pollute the cache
  // with an unprotected (and soon stale) page.
  const std::uint32_t fetch_gen = fs.lock_gen;
  for (const auto& s : slices) {
    if (BlockCache::Page* page = cache_.find(file, s.file_block)) {
      std::copy_n(page->data.begin() + s.offset_in_block, s.len,
                  fan->buf.begin() + static_cast<std::ptrdiff_t>(s.buf_offset));
      complete(Status::ok());
      continue;
    }
    fetch_block(fs, s.file_block, [this, file, s, fan, fetch_gen, complete](Result<Bytes> res) {
      if (!res.ok()) {
        complete(Status{res.error()});
        return;
      }
      std::copy_n(res.value().begin() + s.offset_in_block, s.len,
                  fan->buf.begin() + static_cast<std::ptrdiff_t>(s.buf_offset));
      const FileState* fs2 = find_file(file);
      const bool lock_intact =
          fs2 != nullptr && fs2->lock_gen == fetch_gen && fs2->mode != LockMode::kNone;
      const bool cacheable =
          cfg_.coherence == CoherenceMode::kNfsPoll ? true : lock_intact;
      // Also never clobber a page that appeared (dirty) while we fetched.
      if (cacheable && cache_.peek(file, s.file_block) == nullptr) {
        cache_.put(file, s.file_block, std::move(res).value(), /*dirty=*/false);
      } else {
        recycle_buf(std::move(res).value());
      }
      complete(Status::ok());
    });
  }
}

void Client::write_direct(FileState& fs, std::uint64_t offset, Bytes data,
                          std::function<void(Status)> cb) {
  SliceVec slices;
  if (!protocol::slice_range_into(fs.extents, cfg_.block_size, offset, data.size(), slices)) {
    recycle_buf(std::move(data));
    cb(Status{ErrorCode::kIoError});
    return;
  }

  const FileId file = fs.file;
  auto fan = std::make_shared<WriteFan>();
  fan->data = std::move(data);
  fan->cb = std::move(cb);
  fan->expected = slices.size();
  auto complete = [this, fan](Status st) {
    if (!st.is_ok() && fan->status.is_ok()) fan->status = st;
    if (++fan->seen != fan->expected) return;
    if (fan->status.is_ok()) ++ops_completed_;
    enforce_cache_limit();
    recycle_buf(std::move(fan->data));  // every slice has consumed its span
    fan->cb(fan->status);
  };

  for (const auto& s : slices) {
    if (s.len == cfg_.block_size) {
      Bytes block = take_buf();
      block.assign(fan->data.begin() + static_cast<std::ptrdiff_t>(s.buf_offset),
                   fan->data.begin() + static_cast<std::ptrdiff_t>(s.buf_offset + s.len));
      cache_.put(file, s.file_block, std::move(block), /*dirty=*/true);
      complete(Status::ok());
      continue;
    }
    if (BlockCache::Page* page = cache_.find(file, s.file_block)) {
      std::copy_n(fan->data.begin() + static_cast<std::ptrdiff_t>(s.buf_offset), s.len,
                  page->data.begin() + s.offset_in_block);
      page->dirty = true;
      complete(Status::ok());
      continue;
    }
    // Partial write of an uncached block: read-modify-write. Counted as an
    // in-flight write so a concurrent lock demand waits for it.
    ++fs.writes_in_flight;
    const std::uint64_t seq = fs.mode_seq;
    fetch_block(fs, s.file_block, [this, file, s, seq, fan, complete](Result<Bytes> res) {
      FileState* fs2 = find_file(file);
      if (fs2 != nullptr && fs2->writes_in_flight > 0) {
        --fs2->writes_in_flight;
      }
      if (!res.ok()) {
        complete(Status{res.error()});
        return;
      }
      // Demands wait on writes_in_flight, but a lease ride-down does not:
      // if the lock changed while the fill was in flight, the dirty put
      // would outlive its serialization.
      if (fs2 == nullptr || fs2->mode_seq != seq || fs2->mode != LockMode::kExclusive) {
        recycle_buf(std::move(res).value());
        complete(Status{ErrorCode::kLockConflict});
        return;
      }
      Bytes block = std::move(res).value();
      std::copy_n(fan->data.begin() + static_cast<std::ptrdiff_t>(s.buf_offset), s.len,
                  block.begin() + s.offset_in_block);
      cache_.put(file, s.file_block, std::move(block), /*dirty=*/true);
      complete(Status::ok());
    });
  }
}

// ---------------------------------------------------------------------------
// Server-shipped data path (traditional / NFS baselines)

void Client::read_shipped(FileState& fs, std::uint64_t offset, std::uint32_t len,
                          std::function<void(Result<Bytes>)> cb) {
  const FileId file = fs.file;

  // Serve entirely from cache when possible (NFS semantics: the cache is
  // trusted while the attributes are fresh — possibly stale data).
  const std::uint64_t end = std::min<std::uint64_t>(fs.attr.size, offset + len);
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
      ++ops_completed_;
      cb(std::move(out));
      return;
    }
  }

  transport_.send_request(
      protocol::ReadDataReq{file, offset, len},
      [this, file, offset, cb = std::move(cb)](const protocol::ReplyEvent& ev) {
        if (ev.outcome != protocol::ReplyOutcome::kAck) {
          cb(ev.outcome == protocol::ReplyOutcome::kNack ? ErrorCode::kNacked
                                                         : ErrorCode::kTimeout);
          return;
        }
        if (const auto* rep = std::get_if<protocol::DataReply>(&ev.body)) {
          FileState& fs2 = state_for(file);
          // The server clamped by its own size; what came back proves the
          // file extends at least this far.
          fs2.attr.size = std::max<std::uint64_t>(fs2.attr.size, offset + rep->data.size());
          // Cache fully covered blocks for future hits (NFS-style caching).
          const std::uint32_t bs = cfg_.block_size;
          if (offset % bs == 0) {
            for (std::uint64_t off = 0; off + bs <= rep->data.size(); off += bs) {
              Bytes block = take_buf();
              block.assign(rep->data.begin() + static_cast<std::ptrdiff_t>(off),
                           rep->data.begin() + static_cast<std::ptrdiff_t>(off + bs));
              cache_.put(file, (offset + off) / bs, std::move(block), /*dirty=*/false);
            }
          }
          ++ops_completed_;
          cb(rep->data);
          return;
        }
        if (const auto* err = std::get_if<protocol::ErrReply>(&ev.body)) {
          cb(err->code);
          return;
        }
        cb(ErrorCode::kInvalidArgument);
      });
}

void Client::write_shipped(FileState& fs, std::uint64_t offset, Bytes data,
                           std::function<void(Status)> cb) {
  const FileId file = fs.file;
  const std::uint64_t end = offset + data.size();
  // Write-through: the cached copies of the touched blocks are stale now;
  // drop them rather than patching partially covered pages.
  const std::uint32_t bs = cfg_.block_size;
  for (std::uint64_t fb = offset / bs; fb <= (end > 0 ? (end - 1) / bs : 0); ++fb) {
    cache_.invalidate_file(file);  // coarse but simple: whole-file drop
    break;
  }
  transport_.send_request(
      protocol::WriteDataReq{file, offset, std::move(data)},
      [this, file, end, cb = std::move(cb)](const protocol::ReplyEvent& ev) {
        if (ev.outcome != protocol::ReplyOutcome::kAck) {
          cb(Status{ev.outcome == protocol::ReplyOutcome::kNack ? ErrorCode::kNacked
                                                                : ErrorCode::kTimeout});
          return;
        }
        if (const auto* err = std::get_if<protocol::ErrReply>(&ev.body)) {
          cb(Status{err->code});
          return;
        }
        FileState& fs2 = state_for(file);
        fs2.attr.size = std::max(fs2.attr.size, end);
        ++ops_completed_;
        cb(Status::ok());
      });
}

// ---------------------------------------------------------------------------
// Flushing

void Client::flush_file(FileId file, std::function<void(Status)> cb) {
  FileState* fsp = find_file(file);
  if (fsp == nullptr) {
    cb(Status::ok());
    return;
  }
  FileState& fs = *fsp;
  auto dirty = cache_.dirty_blocks(file);
  if (dirty.empty()) {
    cb(Status::ok());
    return;
  }

  auto fan = std::make_shared<FanIn>();
  fan->expected = dirty.size();
  fan->done = std::move(cb);  // same signature — no wrapping closure needed

  for (std::uint64_t fb : dirty) {
    const BlockCache::Page* page = cache_.peek(file, fb);
    STANK_ASSERT(page != nullptr);
    write_block_through(fs, fb, page->data, [fan](Status st) { fan->complete(st); });
  }
}

void Client::write_block_through(FileState& fs, std::uint64_t fb, const Bytes& data,
                                 std::function<void(Status)> cb) {
  DiskId disk;
  storage::BlockAddr addr;
  if (!protocol::locate_block(fs.extents, fb, disk, addr)) {
    cb(Status{ErrorCode::kIoError});
    return;
  }
  storage::IoRequest io;
  io.initiator = cfg_.id;
  io.disk = disk;
  io.op = storage::IoOp::kWrite;
  io.addr = addr;
  io.count = 1;
  io.io_key = (static_cast<std::uint64_t>(server_incarnation_) << 32) | transport_.epoch();
  io.data = take_buf();  // snapshot of the page at flush time
  io.data.assign(data.begin(), data.end());

  const FileId file = fs.file;
  const std::uint32_t gen = gen_;
  Bytes snapshot = take_buf();  // second copy stays behind for the compare
  snapshot.assign(data.begin(), data.end());
  san_->submit(std::move(io),
               [this, gen, file, fb, snapshot = std::move(snapshot),
                cb = std::move(cb)](storage::IoResult res) mutable {
                 if (gen != gen_) return;
                 if (res.status.is_ok()) {
                   // Only mark clean if the page still holds exactly what we
                   // wrote; a concurrent process write must stay dirty.
                   const BlockCache::Page* page = cache_.peek(file, fb);
                   if (page != nullptr && page->data == snapshot) {
                     cache_.mark_clean(file, fb);
                   }
                 }
                 recycle_buf(std::move(snapshot));
                 cb(res.status);
               });
}

void Client::flush_all(std::function<void(Status)> cb) {
  auto dirty = cache_.all_dirty();
  if (dirty.empty()) {
    cb(Status::ok());
    return;
  }
  auto fan = std::make_shared<FanIn>();
  fan->expected = dirty.size();
  fan->done = std::move(cb);
  for (const auto& [file, fb] : dirty) {
    FileState* fs = find_file(file);
    if (fs == nullptr) {
      fan->complete(Status{ErrorCode::kIoError});
      continue;
    }
    const BlockCache::Page* page = cache_.peek(file, fb);
    if (page == nullptr || !page->dirty) {
      fan->complete(Status::ok());
      continue;
    }
    write_block_through(*fs, fb, page->data, [fan](Status st) { fan->complete(st); });
  }
}

// ---------------------------------------------------------------------------
// NFS attribute polling

void Client::maybe_revalidate(FileState& fs, std::function<void(Status)> cb) {
  const sim::LocalTime now = clock_.now();
  if (fs.attr_known && now - fs.last_validate <= cfg_.attr_timeout) {
    cb(Status::ok());
    return;
  }
  const FileId file = fs.file;
  const std::uint64_t old_mtime = fs.attr.mtime_ns;
  transport_.send_request(
      protocol::GetAttrReq{file},
      [this, file, old_mtime, cb = std::move(cb)](const protocol::ReplyEvent& ev) {
        if (ev.outcome != protocol::ReplyOutcome::kAck) {
          cb(Status{ev.outcome == protocol::ReplyOutcome::kNack ? ErrorCode::kNacked
                                                                : ErrorCode::kTimeout});
          return;
        }
        if (const auto* rep = std::get_if<protocol::AttrReply>(&ev.body)) {
          FileState& fs2 = state_for(file);
          if (fs2.attr_known && rep->attr.mtime_ns != old_mtime) {
            // File changed on the server: NFS semantics discard the cache.
            cache_.invalidate_file(file);
          }
          fs2.attr = rep->attr;
          fs2.extents = rep->extents;
          fs2.attr_known = true;
          fs2.last_validate = clock_.now();
          cb(Status::ok());
          return;
        }
        if (const auto* err = std::get_if<protocol::ErrReply>(&ev.body)) {
          cb(Status{err->code});
          return;
        }
        cb(Status{ErrorCode::kInvalidArgument});
      });
}

}  // namespace stank::client
