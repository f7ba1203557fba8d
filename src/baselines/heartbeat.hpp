// Frangipani-style leasing (Thekkath, Mann, Lee 1997), as the paper's
// section 5 characterizes it: "Frangipani uses heartbeats and loosely
// synchronized clocks ... Also, Frangipani stores lease information at the
// locking authority, rather than having a passive authority."
//
// Server side: a per-client lease table renewed by heartbeats — the server
// does lease work on EVERY heartbeat of EVERY client, all the time.
//
// Client side: an unconditional heartbeat every tau * beat_frac, active or
// idle; no piggybacking on regular traffic.
#pragma once

#include <unordered_map>

#include "baselines/lease_table.hpp"

namespace stank::baselines {

// Server-side per-client heartbeat lease table.
class HeartbeatTable : public LeaseTable {
 public:
  using LeaseTable::LeaseTable;

  void renew(NodeId client, sim::LocalTime now) {
    ++counters_->lease_ops;
    table_[client] = now + cfg_.tau;
  }

  void drop(NodeId client) {
    ++counters_->lease_ops;
    table_.erase(client);
  }

  [[nodiscard]] bool valid(NodeId client, sim::LocalTime now) const {
    auto it = table_.find(client);
    return it != table_.end() && now < it->second;
  }

  // Earliest safe steal time for the client's locks, given the clock bound.
  [[nodiscard]] sim::LocalTime steal_time(NodeId client, sim::LocalTime now, double eps) const {
    auto it = table_.find(client);
    if (it == table_.end()) {
      return now;
    }
    const sim::LocalDuration remaining =
        it->second > now ? it->second - now : sim::LocalDuration{0};
    return now + remaining * (1.0 + eps);
  }

  [[nodiscard]] std::size_t entries() const { return table_.size(); }
  [[nodiscard]] std::size_t state_bytes() const override {
    return table_.size() * (sizeof(NodeId) + sizeof(sim::LocalTime) + 2 * sizeof(void*));
  }

  // Registration counts as the first heartbeat.
  void on_registered(NodeId client) override { renew(client, clock_->now()); }
  void on_keepalive(NodeId client) override { renew(client, clock_->now()); }
  void on_delivery_failure(NodeId client) override {
    wait_until(client, steal_time(client, clock_->now(), cfg_.epsilon));
  }
  void drop_client(NodeId client) override { drop(client); }

 private:
  // A heartbeat that arrived during the wait proves the client alive.
  void wait_over(NodeId client) override {
    if (!valid(client, clock_->now())) owner_->lease_steal(client);
  }

  std::unordered_map<NodeId, sim::LocalTime> table_;
};

// Client-side heartbeat loop with local expiry detection.
class HeartbeatClientScheduler final : public core::ClientLease {
 public:
  // Sends each heartbeat through owner.lease_keepalive(); no ACK within tau
  // calls owner.handle_lease_expired(): the client must consider its lease
  // lost and discard its cache and locks.
  HeartbeatClientScheduler(sim::NodeClock& clock, sim::LocalDuration tau, double beat_frac,
                           Owner& owner);
  ~HeartbeatClientScheduler() override;

  void start();
  void stop() override;
  // A heartbeat first sent at t_send was ACKed: the lease now runs from it.
  void keepalive_acked(sim::LocalTime t_send) override;

  // Every registration restarts the heartbeat loop.
  bool on_registered(sim::LocalTime /*t_c1*/) override {
    stop();
    start();
    return true;
  }
  // Real Frangipani checks lease validity on every operation, not only at
  // heartbeat ticks; the client consults this before serving from cache.
  [[nodiscard]] bool admits_ops() const override {
    return running_ && clock_->now() < lease_start_ + tau_;
  }

  [[nodiscard]] bool running() const { return running_; }

 private:
  void beat();

  sim::NodeClock* clock_;
  sim::LocalDuration tau_;
  double beat_frac_;
  Owner* owner_;
  bool running_{false};
  sim::LocalTime lease_start_{};
  sim::TimerId timer_{0};
};

}  // namespace stank::baselines
