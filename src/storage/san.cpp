#include "storage/san.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/byte_pool.hpp"

namespace stank::storage {

SanFabric::SanFabric(sim::Engine& engine, sim::Rng rng) : engine_(&engine), rng_(rng) {}

VirtualDisk& SanFabric::add_disk(DiskId id, BlockAddr capacity_blocks, std::uint32_t block_size) {
  auto [it, inserted] =
      disks_.emplace(id, std::make_unique<VirtualDisk>(id, capacity_blocks, block_size));
  STANK_ASSERT_MSG(inserted, "duplicate disk id");
  return *it->second;
}

VirtualDisk& SanFabric::disk(DiskId id) {
  auto it = disks_.find(id);
  STANK_ASSERT_MSG(it != disks_.end(), "unknown disk");
  return *it->second;
}

const VirtualDisk& SanFabric::disk(DiskId id) const {
  auto it = disks_.find(id);
  STANK_ASSERT_MSG(it != disks_.end(), "unknown disk");
  return *it->second;
}

sim::Duration SanFabric::service_delay(NodeId initiator) {
  sim::Duration d = kLatency + sim::Duration{rng_.uniform_int(0, kJitter.ns)};
  auto it = initiator_delay_.find(initiator);
  if (it != initiator_delay_.end()) {
    d += it->second;
  }
  return d;
}

std::uint32_t SanFabric::park(IoRequest req, IoCallback cb) {
  std::uint32_t slot = free_slot_;
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(inflight_.size());
    inflight_.emplace_back();
  } else {
    free_slot_ = inflight_[slot].next_free;
  }
  InFlight& f = inflight_[slot];
  f.req = std::move(req);
  f.cb = std::move(cb);
  return slot;
}

SanFabric::InFlight SanFabric::unpark(std::uint32_t slot) {
  InFlight& f = inflight_[slot];
  InFlight out{std::move(f.req), std::move(f.cb)};
  f.next_free = free_slot_;
  free_slot_ = slot;
  return out;
}

void SanFabric::submit(IoRequest req, IoCallback cb) {
  STANK_ASSERT(cb != nullptr);
  ++stats_.ios_submitted;

  if (!reach_.can_reach(req.initiator, req.disk)) {
    // Partitioned: the command is lost before it reaches the disk.
    ++stats_.ios_failed_partition;
    recycle_buf(std::move(req.data));
    const std::uint32_t slot = park(IoRequest{}, std::move(cb));
    engine_->schedule_after(kErrorTimeout, [this, slot]() { fail_lost(slot); });
    return;
  }

  const sim::Duration delay = service_delay(req.initiator);
  const std::uint32_t slot = park(std::move(req), std::move(cb));
  engine_->schedule_after(delay, [this, slot]() { complete(slot); });
}

void SanFabric::fail_lost(std::uint32_t slot) {
  InFlight f = unpark(slot);
  f.cb(IoResult{Status{ErrorCode::kIoError}, {}});
}

void SanFabric::complete(std::uint32_t slot) {
  InFlight f = unpark(slot);
  IoRequest& req = f.req;
  // A partition that formed while the command was in flight also kills it.
  if (!reach_.can_reach(req.initiator, req.disk)) {
    ++stats_.ios_failed_partition;
    recycle_buf(std::move(req.data));
    f.cb(IoResult{Status{ErrorCode::kIoError}, {}});
    return;
  }
  auto it = disks_.find(req.disk);
  STANK_ASSERT_MSG(it != disks_.end(), "I/O to unknown disk");
  IoResult result = it->second->execute(req);
  ++stats_.ios_completed;
  if (result.status.is_ok()) {
    stats_.bytes_transferred += req.op == IoOp::kWrite ? req.data.size() : result.data.size();
    if (on_io) {
      on_io(req, result, engine_->now());
    }
  } else if (result.status.error() == ErrorCode::kFenced) {
    ++stats_.ios_failed_fenced;
  }
  // The disk copied a write payload into its blocks; the buffer is ours.
  recycle_buf(std::move(req.data));
  f.cb(std::move(result));
}

void SanFabric::submit_admin(AdminRequest req, AdminCallback cb) {
  STANK_ASSERT(cb != nullptr);
  ++stats_.admin_ops;

  if (!reach_.can_reach(req.requester, req.disk)) {
    engine_->schedule_after(kErrorTimeout,
                            [cb = std::move(cb)]() mutable { cb(Status{ErrorCode::kIoError}); });
    return;
  }

  const sim::Duration delay = service_delay(req.requester);
  engine_->schedule_after(delay, [this, req, cb = std::move(cb)]() mutable {
    if (!reach_.can_reach(req.requester, req.disk)) {
      cb(Status{ErrorCode::kIoError});
      return;
    }
    auto it = disks_.find(req.disk);
    STANK_ASSERT_MSG(it != disks_.end(), "admin to unknown disk");
    if (req.op == AdminOp::kFence) {
      it->second->fence(req.target);
    } else {
      it->second->unfence(req.target, req.new_key);
    }
    cb(Status::ok());
  });
}

}  // namespace stank::storage
