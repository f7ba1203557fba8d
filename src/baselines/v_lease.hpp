// V-system-style per-object leases (Gray & Cheriton 1989), as the paper's
// section 4 characterizes them: "a client holds one lease for every data
// object that it can write ... the renewal has a message cost".
//
// Server side: a lease table with one entry per (client, object), renewed by
// explicit RenewObj messages — memory and computation proportional to the
// number of cached objects, in contrast to the Storage Tank authority's
// zero-state design.
//
// Client side: a scheduler that re-sends a renewal for every held object at
// a fixed fraction of tau — message cost proportional to cache size, even
// when the client is otherwise active.
#pragma once

#include <map>
#include <unordered_map>
#include <utility>

#include "baselines/lease_table.hpp"

namespace stank::baselines {

// Server-side per-object lease table.
class VLeaseTable : public LeaseTable {
 public:
  using LeaseTable::LeaseTable;

  // Grant or renew the lease on (client, object); every call is lease work
  // the server must perform.
  void renew(NodeId client, FileId object, sim::LocalTime now) {
    ++counters_->lease_ops;
    table_[{client, object}] = now + cfg_.tau;
  }

  void drop(NodeId client, FileId object) {
    ++counters_->lease_ops;
    table_.erase({client, object});
  }

  void drop_client(NodeId client) override {
    ++counters_->lease_ops;
    for (auto it = table_.begin(); it != table_.end();) {
      if (it->first.first == client) {
        it = table_.erase(it);
      } else {
        ++it;
      }
    }
  }

  [[nodiscard]] bool valid(NodeId client, FileId object, sim::LocalTime now) const {
    auto it = table_.find({client, object});
    return it != table_.end() && now < it->second;
  }

  // When may the server safely steal this object's lock: the recorded lease
  // expiry scaled by the clock bound.
  [[nodiscard]] sim::LocalTime steal_time(NodeId client, FileId object, sim::LocalTime now,
                                          double eps) const {
    auto it = table_.find({client, object});
    if (it == table_.end()) {
      return now;  // no lease: steal immediately
    }
    const sim::LocalDuration remaining =
        it->second > now ? it->second - now : sim::LocalDuration{0};
    return now + remaining * (1.0 + eps);
  }

  [[nodiscard]] std::size_t entries() const { return table_.size(); }
  [[nodiscard]] std::size_t state_bytes() const override {
    return table_.size() *
           (sizeof(std::pair<std::pair<NodeId, FileId>, sim::LocalTime>) + 3 * sizeof(void*));
  }

  // A grant starts the object's lease; RenewObj messages extend it.
  void on_grant(NodeId client, FileId file) override { renew(client, file, clock_->now()); }
  void on_renew_object(NodeId client, FileId file) override {
    renew(client, file, clock_->now());
  }
  void on_release(NodeId client, FileId file) override { drop(client, file); }
  // Waits out the latest-expiring lease among the objects the client holds.
  void on_delivery_failure(NodeId client) override;

 private:
  void wait_over(NodeId client) override;

  std::map<std::pair<NodeId, FileId>, sim::LocalTime> table_;
};

// Client-side renewal scheduler: one renewal stream per held object.
class VLeaseClientScheduler final : public core::ClientLease {
 public:
  // Sends each renewal through owner.lease_renew_object(); an object whose
  // lease lapsed without a successful renewal goes to
  // owner.lease_object_expired(): the client must invalidate that object
  // and drop its lock.
  VLeaseClientScheduler(sim::NodeClock& clock, sim::LocalDuration tau, double renew_frac,
                        Owner& owner);
  ~VLeaseClientScheduler() override;

  // The client obtained (lock on) this object; lease starts now.
  void object_acquired(FileId object);
  void object_released(FileId object);
  // A renewal ACK arrived for this object; t_send is the renewal's first
  // transmission time.
  void object_renewed(FileId object, sim::LocalTime t_send) override;
  void stop() override;

  bool on_registered(sim::LocalTime /*t_c1*/) override { return true; }
  void lock_acquired(FileId file) override { object_acquired(file); }
  void lock_released(FileId file) override { object_released(file); }
  // The lock is only usable while its object's lease lives; untracked
  // objects report invalid.
  [[nodiscard]] bool lock_usable(FileId file) const override {
    auto it = objects_.find(file);
    return it != objects_.end() && clock_->now() < it->second.lease_start + tau_;
  }

  [[nodiscard]] std::size_t tracked_objects() const { return objects_.size(); }
  [[nodiscard]] std::uint64_t renewals_sent() const { return renewals_sent_; }

 private:
  struct Entry {
    sim::LocalTime lease_start;
    sim::TimerId timer{0};
  };

  void arm(FileId object);
  void tick(FileId object);

  sim::NodeClock* clock_;
  sim::LocalDuration tau_;
  double renew_frac_;
  Owner* owner_;
  std::unordered_map<FileId, Entry> objects_;
  std::uint64_t renewals_sent_{0};
};

}  // namespace stank::baselines
