#include "server/server.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/assert.hpp"
#include "core/lease_math.hpp"
#include "protocol/layout.hpp"

namespace stank::server {

using protocol::ServerTransport;

Server::Server(sim::Engine& engine, net::ControlNet& net, storage::SanFabric& san,
               sim::LocalClock local_clock, ServerConfig cfg, obs::Recorder* rec)
    : engine_(&engine),
      net_(&net),
      san_(&san),
      cfg_(std::move(cfg)),
      clock_(engine, local_clock),
      rec_(rec),
      transport_(net, clock_, cfg_.id, counters_, *this, cfg_.transport) {
  cfg_.lease.validate();
  if (rec_ != nullptr) {
    rec_->bind_engine(engine);
    transport_.set_recorder(rec_);
    locks_.set_recorder(rec_);
  }
  STANK_ASSERT_MSG(!cfg_.data_disks.empty(), "server needs at least one data disk");
  for (DiskId d : cfg_.data_disks) {
    allocators_.push_back(std::make_unique<BlockAllocator>(d, san_->disk(d).capacity()));
  }

  lease_ = make_lease();
}

std::unique_ptr<core::ServerLease> Server::make_lease() {
  return core::make_server_lease(cfg_.strategy, clock_, cfg_.lease, counters_, *this, rec_,
                                 cfg_.id);
}

void Server::lease_steal(NodeId client) {
  if (cfg_.recovery == RecoveryMode::kLeaseAndFence) {
    fence_client(client);
  } else {
    do_steal(client);
  }
}

std::vector<FileId> Server::lease_held_files(NodeId client) const {
  return locks_.files_of(client);
}

const core::ServerLeaseAuthority& Server::authority() const {
  const auto* authority = dynamic_cast<const core::ServerLeaseAuthority*>(lease_.get());
  STANK_ASSERT_MSG(authority != nullptr, core::to_string(cfg_.strategy));
  return *authority;
}

Server::~Server() {
  if (started_) {
    stop();
  }
}

void Server::start() {
  STANK_ASSERT(!started_);
  started_ = true;
  transport_.set_incarnation(incarnation_);
  transport_.start();
}

void Server::stop() {
  if (!started_) return;
  started_ = false;
  transport_.stop();
  for (auto& [holder, timers] : demand_timers_) {
    for (DemandTimer& dt : timers) {
      clock_.cancel(dt.timer);
    }
  }
  demand_timers_.clear();
}

// ---------------------------------------------------------------------------
// Request dispatch

bool Server::may_ack(NodeId client) const {
  const Session* s = clients_.find(client);
  return (s == nullptr || s->state() != Session::State::kBarred) && lease_->may_ack(client);
}

void Server::handle_request(NodeId client, std::uint32_t epoch,
                            const protocol::RequestBody& body, ServerTransport::Responder r) {
  if (std::holds_alternative<protocol::RegisterReq>(body)) {
    handle_register(client, r);
    return;
  }

  // "The server can neither acknowledge the message, which would renew the
  // client lease, nor execute a transaction on the client's behalf." (3.3)
  if (!may_ack(client)) {
    if (cfg_.nack_suspect) {
      r.nack();
    }
    // else: silent-ignore ablation — the client keeps retrying blindly.
    return;
  }
  const Session* session = clients_.find(client);

  if (session == nullptr || session->epoch() == 0) {
    // No session at all. After a restart that is the normal state for every
    // pre-crash client: tell it to re-register and reassert (section 6)
    // rather than NACKing it into cache invalidation.
    if (incarnation_ > 1) {
      r.ack(protocol::ErrReply{ErrorCode::kStaleSession});
    } else {
      r.nack();
    }
    return;
  }
  if (session->epoch() != epoch) {
    // Stale epoch within a known session: the client is out of sync.
    r.nack();
    return;
  }

  std::visit(
      [&](const auto& req) {
        using T = std::decay_t<decltype(req)>;
        if constexpr (std::is_same_v<T, protocol::OpenReq>) {
          handle_open(client, req, r);
        } else if constexpr (std::is_same_v<T, protocol::CloseReq>) {
          ++counters_.transactions;
          r.ack(protocol::OkReply{});
        } else if constexpr (std::is_same_v<T, protocol::LockReq>) {
          handle_lock(client, req, r);
        } else if constexpr (std::is_same_v<T, protocol::UnlockReq>) {
          handle_unlock(client, req, r);
        } else if constexpr (std::is_same_v<T, protocol::DemandDoneReq>) {
          handle_demand_done(client, req, r);
        } else if constexpr (std::is_same_v<T, protocol::GetAttrReq>) {
          ++counters_.transactions;
          const Inode* inode = metadata_.find(req.file);
          if (inode == nullptr) {
            r.ack(protocol::ErrReply{ErrorCode::kNotFound});
          } else {
            r.ack(protocol::AttrReply{inode->attr, inode->extents});
          }
        } else if constexpr (std::is_same_v<T, protocol::SetSizeReq>) {
          handle_setsize(client, req, r);
        } else if constexpr (std::is_same_v<T, protocol::KeepAliveReq>) {
          // The paper's NULL message. For Storage Tank the server does
          // nothing lease-related here — the transport-level ACK is the
          // renewal. Frangipani's server must update its lease table.
          lease_->on_keepalive(client);
          r.ack(protocol::OkReply{});
        } else if constexpr (std::is_same_v<T, protocol::RenewObjReq>) {
          lease_->on_renew_object(client, req.file);
          r.ack(protocol::OkReply{});
        } else if constexpr (std::is_same_v<T, protocol::ReadDataReq>) {
          handle_read_data(client, req, r);
        } else if constexpr (std::is_same_v<T, protocol::WriteDataReq>) {
          handle_write_data(client, req, r);
        } else if constexpr (std::is_same_v<T, protocol::ReassertLockReq>) {
          handle_reassert(client, req, r);
        } else if constexpr (std::is_same_v<T, protocol::RegisterReq>) {
          // handled above
        }
      },
      body);
}

void Server::handle_register(NodeId client, ServerTransport::Responder r) {
  // A fence -> steal for this client is still in flight (a disk has not
  // acked its fence yet). Admitting a new session now would let the pending
  // do_steal() land on the FRESH session's locks — the client would write
  // under locks the server just handed to someone else. Make it retry
  // registration until the steal completes, and refuse before the lease is
  // asked: its try_reregister() would clear the failed standing, and with it
  // the ACK gate, while the steal is still pending.
  if (const Session* s = clients_.find(client);
      s != nullptr && s->state() == Session::State::kFencing) {
    r.nack();
    return;
  }
  if (!lease_->try_reregister(client)) {
    // Conservative protocol: the timer must run out first.
    r.nack();
    return;
  }
  Session& session = clients_[client];
  const bool admitted = session.reregister();
  STANK_ASSERT(admitted);
  const std::uint32_t epoch = session.epoch();
  lease_->on_registered(client);
  unfence_client(client, epoch);
  ++counters_.transactions;
  if (rec_ != nullptr) {
    rec_->record(engine_->now(), client, obs::EventKind::kRegister, epoch);
  }
  r.ack(protocol::RegisterReply{epoch, incarnation_});
}

void Server::handle_open(NodeId client, const protocol::OpenReq& req,
                         ServerTransport::Responder r) {
  (void)client;
  ++counters_.transactions;
  auto res = metadata_.open(req.path, req.create);
  if (!res.ok()) {
    r.ack(protocol::ErrReply{res.error()});
    return;
  }
  const Inode* inode = metadata_.find(res.value());
  STANK_ASSERT(inode != nullptr);
  r.ack(protocol::OpenReply{inode->id, inode->attr, inode->extents});
}

void Server::handle_lock(NodeId client, const protocol::LockReq& req,
                         ServerTransport::Responder r) {
  ++counters_.transactions;
  if (metadata_.find(req.file) == nullptr) {
    r.ack(protocol::ErrReply{ErrorCode::kNotFound});
    return;
  }
  if (req.mode == protocol::LockMode::kNone) {
    r.ack(protocol::ErrReply{ErrorCode::kInvalidArgument});
    return;
  }

  if (in_grace()) {
    // No fresh locks while reassertions may still arrive: a grant now could
    // conflict with a lock the previous incarnation had given out.
    r.ack(protocol::ErrReply{ErrorCode::kRetryLater});
    return;
  }
  demand_scratch_.clear();
  const auto outcome = locks_.acquire(client, req.file, req.mode, demand_scratch_);
  if (outcome == LockManager::AcquireOutcome::kQueued) {
    for (const auto& d : demand_scratch_) {
      issue_demand(d);
    }
    r.ack(protocol::LockReply{false, req.mode, 0});
    return;
  }
  if (outcome == LockManager::AcquireOutcome::kAlreadyHeld) {
    // The holder asked for a mode no stronger than what it has — typically a
    // reordered or retransmitted request overtaken by a stronger grant.
    // Answer idempotently with the held mode under the CURRENT generation.
    // Bumping here would let the reply masquerade as a newer, weaker grant
    // and silently downgrade the client's stronger (possibly dirty) holding.
    const GrantState gs = grant_state(client, req.file);
    r.ack(protocol::LockReply{true, locks_.mode_of(client, req.file), gs.gen, gs.cookie});
    return;
  }
  ++counters_.lock_grants;
  // A fresh grant supersedes any outstanding demand against this client's
  // previous incarnation of the lock.
  const GrantState gs = issue_grant(client, req.file);
  cancel_demand_timer(client, req.file);
  lease_->on_grant(client, req.file);
  r.ack(protocol::LockReply{true, req.mode, gs.gen, gs.cookie});
}

void Server::handle_unlock(NodeId client, const protocol::UnlockReq& req,
                           ServerTransport::Responder r) {
  release(client, req.file, req.gen, req.cookie, req.downgrade_to, /*complies=*/false);
  r.ack(protocol::OkReply{});
}

void Server::handle_demand_done(NodeId client, const protocol::DemandDoneReq& req,
                                ServerTransport::Responder r) {
  release(client, req.file, req.gen, req.cookie, req.new_mode, /*complies=*/true);
  r.ack(protocol::OkReply{});
}

void Server::release(NodeId client, FileId file, std::uint32_t gen, std::uint64_t cookie,
                     protocol::LockMode mode, bool complies) {
  ++counters_.transactions;
  const GrantState gs = grant_state(client, file);
  // A wrong generation names a superseded lock incarnation: a newer grant
  // crossed this request in flight, and the client learns the new state from
  // it. The right generation with a wrong grant cookie comes from a sender
  // that never received the grant it names (forged or corrupted): acting on
  // it would free a lock whose grant is still in flight to the real holder.
  // For a compliance, the real holder's (carrying the cookie) settles the
  // demand; failing that, the demand timer escalates to suspect -> fence +
  // steal.
  if (gen != gs.gen || cookie != gs.cookie) return;
  update_scratch_.clear();
  locks_.set_mode(client, file, mode, update_scratch_);
  if (mode == protocol::LockMode::kNone) {
    lease_->on_release(client, file);
  }
  if (complies) {
    // Stop the compliance clock only once no demand remains outstanding
    // against this holder (a deeper demand may have been issued meanwhile).
    // Before the update: a grant it delivers to this holder cancels the
    // timer again.
    if (!locks_.demanded_mode(client, file).has_value()) {
      cancel_demand_timer(client, file);
    } else {
      arm_demand_timer(client, file);
    }
  }
  apply_update(update_scratch_);
}

void Server::handle_setsize(NodeId client, const protocol::SetSizeReq& req,
                            ServerTransport::Responder r) {
  (void)client;
  ++counters_.transactions;
  Inode* inode = metadata_.find(req.file);
  if (inode == nullptr) {
    r.ack(protocol::ErrReply{ErrorCode::kNotFound});
    return;
  }
  if (req.new_size > inode->attr.size) {
    Status st = grow_file(*inode, req.new_size);
    if (!st.is_ok()) {
      r.ack(protocol::ErrReply{st.error()});
      return;
    }
    inode->attr.size = req.new_size;
    metadata_.touch(*inode, now_ns());
  } else if (req.new_size < inode->attr.size) {
    if (!req.truncate) {
      // Grow-only request against an already-larger file: no-op; the reply
      // refreshes the client's stale attributes.
      r.ack(protocol::AttrReply{inode->attr, inode->extents});
      return;
    }
    shrink_file(*inode, req.new_size);
    inode->attr.size = req.new_size;
    metadata_.touch(*inode, now_ns());
  }
  r.ack(protocol::AttrReply{inode->attr, inode->extents});
}

void Server::handle_reassert(NodeId client, const protocol::ReassertLockReq& req,
                             ServerTransport::Responder r) {
  ++counters_.transactions;
  if (!in_grace()) {
    // Reassertion outside the grace window is not honored: the lock may
    // already have been granted elsewhere.
    r.ack(protocol::ErrReply{ErrorCode::kInvalidArgument});
    return;
  }
  if (metadata_.find(req.file) == nullptr || req.mode == protocol::LockMode::kNone) {
    r.ack(protocol::ErrReply{ErrorCode::kInvalidArgument});
    return;
  }
  // If the pre-crash state was legal, concurrent reassertions are mutually
  // compatible; an incompatible one indicates divergence and is refused
  // (that client must invalidate the file).
  demand_scratch_.clear();
  if (locks_.acquire(client, req.file, req.mode, demand_scratch_) ==
      LockManager::AcquireOutcome::kQueued) {
    // No other waiters can exist during grace, so the cancel cannot unblock
    // anyone; its update is discarded.
    update_scratch_.clear();
    locks_.cancel_waiter(client, req.file, update_scratch_);
    r.ack(protocol::ErrReply{ErrorCode::kLockConflict});
    return;
  }
  ++counters_.lock_grants;
  const GrantState gs = issue_grant(client, req.file);
  lease_->on_grant(client, req.file);
  r.ack(protocol::LockReply{true, req.mode, gs.gen, gs.cookie});
}

bool Server::in_grace() const {
  return incarnation_ > 1 && clock_.now() < grace_until_;
}

void Server::crash() {
  if (!started_) return;
  if (rec_ != nullptr) {
    rec_->record(engine_->now(), cfg_.id, obs::EventKind::kCrash);
  }
  stop();  // drops transport, timers
  // Volatile state is gone. Metadata, the allocator and the incarnation
  // counter live on the server's private persistent storage.
  locks_ = LockManager{};
  locks_.set_recorder(rec_);
  clients_.clear();
  grants_.clear();
  // Lease state is volatile too; the old object cancels its timers as it goes.
  lease_ = make_lease();
}

void Server::restart() {
  STANK_ASSERT_MSG(!started_, "restart() requires a crashed/stopped server");
  ++incarnation_;
  const sim::LocalDuration grace = cfg_.recovery_grace.ns > 0
                                       ? cfg_.recovery_grace
                                       : core::server_wait(cfg_.lease.tau, cfg_.lease.epsilon);
  grace_until_ = clock_.now() + grace;
  if (rec_ != nullptr) {
    rec_->record(engine_->now(), cfg_.id, obs::EventKind::kRestart, incarnation_);
  }
  start();
}

// ---------------------------------------------------------------------------
// Data shipping (traditional client/server baseline; NFS mode)

namespace {

// Fan-in helper: fires `done` once after `expected` completions, reporting
// the first error seen.
struct FanIn {
  std::size_t expected{0};
  std::size_t seen{0};
  Status status{Status::ok()};
  MoveFn<void(Status)> done;

  void complete(Status s) {
    if (!s.is_ok() && status.is_ok()) {
      status = s;
    }
    if (++seen == expected && done) {
      done(status);
    }
  }
};

}  // namespace

void Server::handle_read_data(NodeId client, const protocol::ReadDataReq& req,
                              ServerTransport::Responder r) {
  (void)client;
  ++counters_.transactions;
  Inode* inode = metadata_.find(req.file);
  if (inode == nullptr) {
    r.ack(protocol::ErrReply{ErrorCode::kNotFound});
    return;
  }
  const std::uint64_t end = std::min<std::uint64_t>(inode->attr.size, req.offset + req.len);
  const std::uint64_t len = end > req.offset ? end - req.offset : 0;
  auto buf = std::make_shared<Bytes>(len, 0);
  if (len == 0) {
    counters_.server_data_bytes += 0;
    r.ack(protocol::DataReply{*buf});
    return;
  }

  bool ok = false;
  auto slices = protocol::slice_range(inode->extents, cfg_.block_size, req.offset, len, ok);
  if (!ok) {
    r.ack(protocol::ErrReply{ErrorCode::kIoError});
    return;
  }

  auto fan = std::make_shared<FanIn>();
  fan->expected = slices.size();
  fan->done = [this, r, buf, len](Status st) {
    if (!st.is_ok()) {
      r.ack(protocol::ErrReply{st.error()});
      return;
    }
    counters_.server_data_bytes += len;
    r.ack(protocol::DataReply{*buf});
  };
  for (const auto& s : slices) {
    storage::IoRequest io;
    io.initiator = cfg_.id;
    io.disk = s.disk;
    io.op = storage::IoOp::kRead;
    io.addr = s.addr;
    io.count = 1;
    san_->submit(std::move(io), [fan, buf, s](storage::IoResult res) {
      if (res.status.is_ok()) {
        std::copy_n(res.data.begin() + s.offset_in_block, s.len,
                    buf->begin() + static_cast<std::ptrdiff_t>(s.buf_offset));
      }
      fan->complete(res.status);
    });
  }
}

void Server::handle_write_data(NodeId client, const protocol::WriteDataReq& req,
                               ServerTransport::Responder r) {
  (void)client;
  ++counters_.transactions;
  Inode* inode = metadata_.find(req.file);
  if (inode == nullptr) {
    r.ack(protocol::ErrReply{ErrorCode::kNotFound});
    return;
  }
  const std::uint64_t new_end = req.offset + req.data.size();
  if (new_end > inode->attr.size) {
    Status st = grow_file(*inode, new_end);
    if (!st.is_ok()) {
      r.ack(protocol::ErrReply{st.error()});
      return;
    }
    inode->attr.size = new_end;
  }
  metadata_.touch(*inode, now_ns());

  bool ok = false;
  auto slices =
      protocol::slice_range(inode->extents, cfg_.block_size, req.offset, req.data.size(), ok);
  if (!ok) {
    r.ack(protocol::ErrReply{ErrorCode::kIoError});
    return;
  }

  auto fan = std::make_shared<FanIn>();
  fan->expected = slices.size();
  const std::uint64_t len = req.data.size();
  fan->done = [this, r, len](Status st) {
    if (!st.is_ok()) {
      r.ack(protocol::ErrReply{st.error()});
      return;
    }
    counters_.server_data_bytes += len;
    r.ack(protocol::OkReply{});
  };

  auto data = std::make_shared<Bytes>(req.data);
  for (const auto& s : slices) {
    auto write_block = [this, fan, s](Bytes block) {
      storage::IoRequest io;
      io.initiator = cfg_.id;
      io.disk = s.disk;
      io.op = storage::IoOp::kWrite;
      io.addr = s.addr;
      io.count = 1;
      io.data = std::move(block);
      san_->submit(std::move(io),
                   [fan](storage::IoResult res) { fan->complete(res.status); });
    };

    if (s.len == cfg_.block_size) {
      Bytes block(data->begin() + static_cast<std::ptrdiff_t>(s.buf_offset),
                  data->begin() + static_cast<std::ptrdiff_t>(s.buf_offset + s.len));
      write_block(std::move(block));
    } else {
      // Partial block: read-modify-write at the server.
      storage::IoRequest io;
      io.initiator = cfg_.id;
      io.disk = s.disk;
      io.op = storage::IoOp::kRead;
      io.addr = s.addr;
      io.count = 1;
      san_->submit(std::move(io),
                   [fan, s, data, write_block](storage::IoResult res) mutable {
                     if (!res.status.is_ok()) {
                       fan->complete(res.status);
                       return;
                     }
                     Bytes block = std::move(res.data);
                     std::copy_n(data->begin() + static_cast<std::ptrdiff_t>(s.buf_offset), s.len,
                                 block.begin() + s.offset_in_block);
                     write_block(std::move(block));
                   });
    }
  }
}

// ---------------------------------------------------------------------------
// Locking plumbing

void Server::apply_update(const LockManager::Update& upd) {
  for (const auto& g : upd.grants) {
    deliver_grant(g);
  }
  for (const auto& d : upd.demands) {
    issue_demand(d);
  }
}

void Server::issue_demand(const LockManager::Demand& d) {
  ++counters_.lock_demands;
  const std::uint32_t gen = grant_state(d.holder, d.file).gen;
  transport_.send_server_msg(
      d.holder, session_epoch(d.holder), protocol::LockDemand{d.file, d.max_mode, gen},
      [this, d, gen](bool delivered) {
        if (!delivered) {
          on_delivery_failure(d.holder);
          return;
        }
        if (gen != grant_state(d.holder, d.file).gen) {
          return;  // a grant superseded this demand while it was in flight
        }
        if (!locks_.demanded_mode(d.holder, d.file).has_value()) {
          // Compliance already arrived (it can overtake the transport-level
          // ACK of the demand itself): nothing left to time out.
          return;
        }
        arm_demand_timer(d.holder, d.file);
      });
}

void Server::arm_demand_timer(NodeId holder, FileId file) {
  const sim::TimerId timer =
      clock_.schedule_after(cfg_.demand_timeout, [this, holder, file]() {
        cancel_demand_timer(holder, file);  // drop the fired timer's record
        on_delivery_failure(holder);
      });
  auto& timers = demand_timers_[holder];
  for (DemandTimer& dt : timers) {
    if (dt.file == file) {
      clock_.cancel(dt.timer);
      dt.timer = timer;
      return;
    }
  }
  timers.push_back(DemandTimer{file, timer});
}

Server::GrantState Server::grant_state(NodeId client, FileId file) const {
  const GrantState* gs = grants_.find(DemandKey{client, file});
  return gs == nullptr ? GrantState{} : *gs;
}

Server::GrantState Server::issue_grant(NodeId client, FileId file) {
  // splitmix64 of a private sequence; incarnation folded in so cookies never
  // repeat across server reboots. Stands in for a CSPRNG (see server.hpp).
  std::uint64_t z = (++cookie_seq_ + (static_cast<std::uint64_t>(incarnation_) << 48)) +
                    0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  if (z == 0) z = 1;  // 0 means "no cookie issued"
  GrantState& gs = grants_[DemandKey{client, file}];
  ++gs.gen;
  gs.cookie = z;
  return gs;
}

void Server::deliver_grant(const LockManager::Grant& g) {
  ++counters_.lock_grants;
  const GrantState gs = issue_grant(g.client, g.file);
  cancel_demand_timer(g.client, g.file);
  lease_->on_grant(g.client, g.file);
  transport_.send_server_msg(g.client, session_epoch(g.client),
                             protocol::LockGrant{g.file, g.mode, gs.gen, gs.cookie},
                             [this, g](bool delivered) {
                               if (!delivered) {
                                 on_delivery_failure(g.client);
                               }
                             });
}

void Server::cancel_demand_timer(NodeId holder, FileId file) {
  auto* timers = demand_timers_.find(holder);
  if (timers == nullptr) return;
  for (DemandTimer& dt : *timers) {
    if (dt.file == file) {
      clock_.cancel(dt.timer);
      timers->swap_erase(&dt);
      break;
    }
  }
  if (timers->empty()) {
    demand_timers_.erase(holder);
  }
}

void Server::cancel_demand_timers(NodeId holder) {
  auto* timers = demand_timers_.find(holder);
  if (timers == nullptr) return;
  for (DemandTimer& dt : *timers) {
    clock_.cancel(dt.timer);
  }
  demand_timers_.erase(holder);
}

// ---------------------------------------------------------------------------
// Recovery

void Server::inject_delivery_failure(NodeId client) { on_delivery_failure(client); }

Result<FileId> Server::preallocate(const std::string& path, std::uint64_t size) {
  auto res = metadata_.open(path, /*create=*/true);
  if (!res.ok()) {
    return res;
  }
  Inode* inode = metadata_.find(res.value());
  STANK_ASSERT(inode != nullptr);
  if (size > inode->attr.size) {
    Status st = grow_file(*inode, size);
    if (!st.is_ok()) {
      return st.error();
    }
    inode->attr.size = size;
    metadata_.touch(*inode, now_ns());
  }
  return res;
}

void Server::on_delivery_failure(NodeId client) {
  if (const Session* s = clients_.find(client); s != nullptr && s->recovering()) {
    return;  // fencing, or already stolen: recovery needs no second start
  }
  switch (cfg_.recovery) {
    case RecoveryMode::kNoRecovery:
      return;
    case RecoveryMode::kNaiveSteal:
      do_steal(client);
      return;
    case RecoveryMode::kFenceOnly:
      fence_client(client);
      return;
    case RecoveryMode::kLeaseOnly:
    case RecoveryMode::kLeaseAndFence:
      lease_->on_delivery_failure(client);  // idempotent
      return;
  }
}

void Server::fence_client(NodeId client) {
  if (!clients_[client].fence()) return;
  ++counters_.fences_issued;
  if (rec_ != nullptr) {
    rec_->record(engine_->now(), client, obs::EventKind::kFence);
  }
  fence_round(client);
}

void Server::fence_round(NodeId client) {
  auto fan = std::make_shared<FanIn>();
  fan->expected = cfg_.data_disks.size();
  fan->done = [this, client](Status st) {
    if (st.is_ok()) {
      do_steal(client);
      return;
    }
    // A disk that did not acknowledge the fence is NOT fenced. Stealing the
    // locks anyway would hand them to a new holder while the old one's SAN
    // path to that disk may still be live — a partitioned-but-alive (or
    // byzantine) holder could keep writing under them, which is exactly the
    // corruption the fence exists to rule out. Hold the steal and retry
    // until a round completes on every disk: availability of this client's
    // locks is sacrificed for safety, never the other way around.
    ++counters_.fence_retries;
    const std::uint32_t inc = incarnation_;
    clock_.schedule_after(sim::local_millis(100), [this, client, inc]() {
      // A crash/restart dropped the whole fence context (a new incarnation
      // re-fences from scratch).
      const Session* s = clients_.find(client);
      if (!started_ || incarnation_ != inc || s == nullptr ||
          s->state() != Session::State::kFencing) {
        return;
      }
      fence_round(client);
    });
  };
  for (DiskId d : cfg_.data_disks) {
    san_->submit_admin(storage::AdminRequest{cfg_.id, d, storage::AdminOp::kFence, client},
                       [fan](Status st) { fan->complete(st); });
  }
}

void Server::unfence_client(NodeId client, std::uint32_t epoch) {
  // Only fencing recovery modes ever touch the disks' fence state (the
  // lease-only baseline must not get fencing semantics through the back
  // door).
  if (cfg_.recovery != RecoveryMode::kFenceOnly &&
      cfg_.recovery != RecoveryMode::kLeaseAndFence) {
    return;
  }
  // Sent unconditionally within those modes: the server keeps no list of
  // whom it fenced (a crash would forget it anyway), but fences persist at
  // the disks; re-registration must clear them. The unfence installs the
  // client's NEW registration key — (incarnation << 32) | epoch, since
  // epoch numbers alone repeat across server reboots — so commands any
  // earlier session left crawling through the SAN stay locked out forever.
  const std::uint64_t key = (static_cast<std::uint64_t>(incarnation_) << 32) | epoch;
  if (rec_ != nullptr) {
    rec_->record(engine_->now(), client, obs::EventKind::kUnfence, key);
  }
  for (DiskId d : cfg_.data_disks) {
    san_->submit_admin(
        storage::AdminRequest{cfg_.id, d, storage::AdminOp::kUnfence, client, key},
        [](Status) {});
  }
}

void Server::do_steal(NodeId client) {
  if (!clients_[client].steal()) return;
  transport_.cancel_server_msgs(client);
  cancel_demand_timers(client);

  affected_scratch_.clear();
  update_scratch_.clear();
  locks_.steal_all(client, affected_scratch_, update_scratch_);
  counters_.lock_steals += affected_scratch_.size();
  for (FileId f : affected_scratch_) {
    ++grants_[DemandKey{client, f}].gen;  // in-flight compliance from the victim is now stale
  }
  // The steal is recorded where the locks actually move: after the fence
  // round (kLeaseAndFence, kFenceOnly) and in every recovery mode.
  if (rec_ != nullptr) {
    rec_->record(engine_->now(), cfg_.id, obs::EventKind::kLockSteal, client.value(),
                 affected_scratch_.size());
  }
  lease_->on_steal(client);
  apply_update(update_scratch_);
}

// ---------------------------------------------------------------------------
// Helpers

bool Server::session_valid(NodeId client) const {
  const Session* s = clients_.find(client);
  return s != nullptr && s->valid();
}

std::uint32_t Server::session_epoch(NodeId client) const {
  const Session* s = clients_.find(client);
  return s == nullptr ? 0 : s->epoch();
}

std::size_t Server::lease_state_bytes() const { return lease_->state_bytes(); }

std::uint64_t Server::now_ns() const { return static_cast<std::uint64_t>(clock_.now().ns); }

BlockAllocator* Server::allocator_with_space(std::uint64_t blocks) {
  for (auto& a : allocators_) {
    if (a->free_blocks() >= blocks) {
      return a.get();
    }
  }
  return nullptr;
}

Status Server::grow_file(Inode& inode, std::uint64_t new_size) {
  const std::uint64_t needed = (new_size + cfg_.block_size - 1) / cfg_.block_size;
  const std::uint64_t have = inode.allocated_blocks();
  if (needed <= have) {
    return Status::ok();
  }
  BlockAllocator* alloc = allocator_with_space(needed - have);
  if (alloc == nullptr) {
    return ErrorCode::kNoSpace;
  }
  auto extents = alloc->allocate(needed - have);
  STANK_ASSERT(extents.ok());
  for (auto& e : extents.value()) {
    inode.extents.push_back(e);
  }
  return Status::ok();
}

void Server::shrink_file(Inode& inode, std::uint64_t new_size) {
  const std::uint64_t needed = (new_size + cfg_.block_size - 1) / cfg_.block_size;
  std::uint64_t have = inode.allocated_blocks();
  while (have > needed && !inode.extents.empty()) {
    protocol::Extent& last = inode.extents.back();
    const std::uint64_t excess = have - needed;
    if (last.count <= excess) {
      have -= last.count;
      for (auto& a : allocators_) {
        if (a->disk() == last.disk) {
          a->release({last});
          break;
        }
      }
      inode.extents.pop_back();
    } else {
      const std::uint32_t trim = static_cast<std::uint32_t>(excess);
      protocol::Extent freed{last.disk, last.start + last.count - trim, trim};
      last.count -= trim;
      have -= trim;
      for (auto& a : allocators_) {
        if (a->disk() == freed.disk) {
          a->release({freed});
          break;
        }
      }
    }
  }
}

}  // namespace stank::server
