#include "baselines/heartbeat.hpp"

#include "common/assert.hpp"

namespace stank::baselines {

HeartbeatClientScheduler::HeartbeatClientScheduler(sim::NodeClock& clock, sim::LocalDuration tau,
                                                   double beat_frac, Owner& owner)
    : clock_(&clock), tau_(tau), beat_frac_(beat_frac), owner_(&owner) {
  STANK_ASSERT(beat_frac > 0.0 && beat_frac < 1.0);
}

HeartbeatClientScheduler::~HeartbeatClientScheduler() { stop(); }

void HeartbeatClientScheduler::start() {
  STANK_ASSERT(!running_);
  running_ = true;
  lease_start_ = clock_->now();
  beat();
}

void HeartbeatClientScheduler::stop() {
  if (!running_) return;
  running_ = false;
  if (timer_ != 0) {
    clock_->cancel(timer_);
    timer_ = 0;
  }
}

void HeartbeatClientScheduler::keepalive_acked(sim::LocalTime t_send) {
  if (!running_) return;
  if (t_send > lease_start_) {
    lease_start_ = t_send;
  }
}

void HeartbeatClientScheduler::beat() {
  if (!running_) return;
  const sim::LocalTime now = clock_->now();
  if (now >= lease_start_ + tau_) {
    running_ = false;
    timer_ = 0;
    owner_->handle_lease_expired();
    return;
  }
  owner_->lease_keepalive();
  timer_ = clock_->schedule_after(tau_ * beat_frac_, [this]() {
    timer_ = 0;
    beat();
  });
}

}  // namespace stank::baselines
