#include "core/server_lease_authority.hpp"

#include "common/assert.hpp"

namespace stank::core {

ServerLeaseAuthority::ServerLeaseAuthority(sim::NodeClock& clock, LeaseConfig cfg,
                                           metrics::Counters& counters, Owner& owner)
    : clock_(&clock), cfg_(cfg), counters_(&counters), owner_(&owner) {
  cfg_.validate();
}

ServerLeaseAuthority::~ServerLeaseAuthority() {
  for (auto& [node, e] : entries_) {
    if (e.timer != 0) {
      clock_->cancel(e.timer);
    }
  }
}

void ServerLeaseAuthority::on_delivery_failure(NodeId client) {
  if (entries_.contains(client)) {
    return;  // already suspect or failed
  }
  ++counters_->lease_ops;
  Entry e;
  e.standing = ClientStanding::kSuspect;
  // Wait tau(1+eps) on OUR clock; rate synchronization guarantees that is at
  // least tau on the client's clock, so its lease has expired by the time
  // the timer fires.
  const sim::LocalDuration wait = server_wait(cfg_.tau, cfg_.epsilon);
  e.timer = clock_->schedule_after(wait, [this, client]() { fire(client); });
  entries_.insert(client, e);
  if (rec_ != nullptr) {
    const sim::SimTime t = clock_->engine().now();
    rec_->record(t, self_, obs::EventKind::kStandingChange, client.value(),
                 static_cast<std::uint64_t>(ClientStanding::kSuspect));
    rec_->record(t, self_, obs::EventKind::kStealTimerArm, client.value(),
                 static_cast<std::uint64_t>(wait.ns));
  }
}

void ServerLeaseAuthority::fire(NodeId client) {
  Entry* e = entries_.find(client);
  STANK_ASSERT(e != nullptr);
  STANK_ASSERT(e->standing == ClientStanding::kSuspect);
  ++counters_->lease_ops;
  e->timer = 0;
  e->standing = ClientStanding::kFailed;
  e->failed_at = clock_->now();
  if (rec_ != nullptr) {
    rec_->record(clock_->engine().now(), self_, obs::EventKind::kStandingChange, client.value(),
                 static_cast<std::uint64_t>(ClientStanding::kFailed));
  }
  owner_->lease_steal(client);
}

bool ServerLeaseAuthority::may_ack(NodeId client) const {
  return !entries_.contains(client);
}

ClientStanding ServerLeaseAuthority::standing(NodeId client) const {
  const Entry* e = entries_.find(client);
  return e == nullptr ? ClientStanding::kGood : e->standing;
}

bool ServerLeaseAuthority::try_reregister(NodeId client) {
  Entry* e = entries_.find(client);
  if (e == nullptr) {
    return true;  // nothing held against this client
  }
  ++counters_->lease_ops;
  if (e->standing == ClientStanding::kSuspect) {
    return false;  // wait out the full tau(1+eps)
  }
  if (rec_ != nullptr) {
    // Steal-to-reassert recovery: how long the client's data sat fenced
    // before it came back.
    rec_->span(obs::SpanKind::kStealRecovery, (clock_->now() - e->failed_at).millis());
    rec_->record(clock_->engine().now(), self_, obs::EventKind::kStandingChange, client.value(),
                 static_cast<std::uint64_t>(ClientStanding::kGood));
  }
  entries_.erase(client);
  return true;
}

std::size_t ServerLeaseAuthority::state_bytes() const {
  // Honest accounting of the per-client lease footprint: one flat-table slot
  // per tracked client (no bucket pointers to charge).
  return entries_.size() * (sizeof(NodeId) + sizeof(Entry));
}

std::size_t ServerLeaseAuthority::suspect_count() const {
  std::size_t n = 0;
  for (const auto& [node, e] : entries_) {
    if (e.standing == ClientStanding::kSuspect) ++n;
  }
  return n;
}

std::size_t ServerLeaseAuthority::failed_count() const {
  std::size_t n = 0;
  for (const auto& [node, e] : entries_) {
    if (e.standing == ClientStanding::kFailed) ++n;
  }
  return n;
}

}  // namespace stank::core
