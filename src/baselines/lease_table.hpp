// What the two baseline servers share: both record the leases they grant,
// so after a delivery failure the server waits out the recorded lease
// (stretched by 1+eps), re-checks it, and only then steals. One wait per
// client, who may not re-register while it runs.
#pragma once

#include "common/flat_map.hpp"
#include "core/lease_seam.hpp"

namespace stank::baselines {

class LeaseTable : public core::ServerLease {
 public:
  LeaseTable(sim::NodeClock& clock, core::LeaseConfig cfg, metrics::Counters& counters,
             Owner& owner)
      : clock_(&clock), cfg_(cfg), counters_(&counters), owner_(&owner) {}
  ~LeaseTable() override {
    for (auto& [client, timer] : waits_) clock_->cancel(timer);
  }

  [[nodiscard]] bool try_reregister(NodeId client) override { return !waits_.contains(client); }
  // The client's locks were stolen: its wait and its recorded leases go.
  void on_steal(NodeId client) override {
    if (const sim::TimerId* timer = waits_.find(client); timer != nullptr) {
      clock_->cancel(*timer);
      waits_.erase(client);
    }
    drop_client(client);
  }
  virtual void drop_client(NodeId client) = 0;

 protected:
  // Starts the client's wait unless one runs; wait_over(client) runs at
  // steal_at (at least 1 ns from now).
  void wait_until(NodeId client, sim::LocalTime steal_at) {
    if (waits_.contains(client)) return;
    ++counters_->lease_ops;
    const sim::LocalTime now = clock_->now();
    const sim::LocalDuration delay = steal_at > now ? steal_at - now : sim::LocalDuration{1};
    waits_.insert(client, clock_->schedule_after(delay, [this, client]() {
      waits_.erase(client);
      wait_over(client);
    }));
  }
  virtual void wait_over(NodeId client) = 0;

  sim::NodeClock* clock_;
  core::LeaseConfig cfg_;
  metrics::Counters* counters_;
  Owner* owner_;

 private:
  FlatMap<NodeId, sim::TimerId> waits_;
};

}  // namespace stank::baselines
