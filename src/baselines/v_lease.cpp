#include "baselines/v_lease.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace stank::baselines {

void VLeaseTable::on_delivery_failure(NodeId client) {
  const sim::LocalTime now = clock_->now();
  sim::LocalTime steal_at = now;
  for (FileId f : owner_->lease_held_files(client)) {
    steal_at = std::max(steal_at, steal_time(client, f, now, cfg_.epsilon));
  }
  wait_until(client, steal_at);
}

void VLeaseTable::wait_over(NodeId client) {
  const sim::LocalTime now = clock_->now();
  for (FileId f : owner_->lease_held_files(client)) {
    if (valid(client, f, now)) {
      on_delivery_failure(client);  // renewed meanwhile: wait out the new expiry
      return;
    }
  }
  owner_->lease_steal(client);
}

VLeaseClientScheduler::VLeaseClientScheduler(sim::NodeClock& clock, sim::LocalDuration tau,
                                             double renew_frac, Owner& owner)
    : clock_(&clock), tau_(tau), renew_frac_(renew_frac), owner_(&owner) {
  STANK_ASSERT(renew_frac > 0.0 && renew_frac < 1.0);
}

VLeaseClientScheduler::~VLeaseClientScheduler() { stop(); }

void VLeaseClientScheduler::object_acquired(FileId object) {
  auto [it, inserted] = objects_.emplace(object, Entry{clock_->now(), 0});
  if (!inserted) {
    it->second.lease_start = clock_->now();
    clock_->cancel(it->second.timer);
  }
  arm(object);
}

void VLeaseClientScheduler::object_released(FileId object) {
  auto it = objects_.find(object);
  if (it == objects_.end()) return;
  clock_->cancel(it->second.timer);
  objects_.erase(it);
}

void VLeaseClientScheduler::object_renewed(FileId object, sim::LocalTime t_send) {
  auto it = objects_.find(object);
  if (it == objects_.end()) return;
  if (t_send <= it->second.lease_start) return;
  it->second.lease_start = t_send;
  clock_->cancel(it->second.timer);
  arm(object);
}

void VLeaseClientScheduler::stop() {
  for (auto& [object, e] : objects_) {
    clock_->cancel(e.timer);
  }
  objects_.clear();
}

void VLeaseClientScheduler::arm(FileId object) {
  Entry& e = objects_.at(object);
  const sim::LocalTime renew_at = e.lease_start + tau_ * renew_frac_;
  const sim::LocalTime now = clock_->now();
  sim::LocalDuration delay = renew_at > now ? renew_at - now : sim::LocalDuration{1};
  e.timer = clock_->schedule_after(delay, [this, object]() { tick(object); });
}

void VLeaseClientScheduler::tick(FileId object) {
  auto it = objects_.find(object);
  if (it == objects_.end()) return;
  const sim::LocalTime now = clock_->now();
  if (now >= it->second.lease_start + tau_) {
    // Lease lapsed: renewal attempts failed for a full period.
    objects_.erase(it);
    owner_->lease_object_expired(object);
    return;
  }
  ++renewals_sent_;
  owner_->lease_renew_object(object);
  // Re-arm a retry at a fraction of the remaining window, floored so retry
  // events cannot pile up geometrically as the expiry approaches.
  Entry& e = objects_.at(object);
  const sim::LocalTime expiry = e.lease_start + tau_;
  sim::LocalDuration delay = (expiry - now) / std::int64_t{4};
  const sim::LocalDuration floor = tau_ / std::int64_t{16};
  if (delay < floor) delay = floor;
  e.timer = clock_->schedule_after(delay, [this, object]() { tick(object); });
}

}  // namespace stank::baselines
