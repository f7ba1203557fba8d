#include "core/client_lease_agent.hpp"

#include "common/assert.hpp"

namespace stank::core {

ClientLeaseAgent::ClientLeaseAgent(sim::NodeClock& clock, LeaseConfig cfg, Owner& owner)
    : clock_(&clock), cfg_(cfg), owner_(&owner) {
  cfg_.validate();
}

ClientLeaseAgent::~ClientLeaseAgent() { cancel_timers(); }

sim::LocalTime ClientLeaseAgent::boundary(double frac) const {
  return lease_start_ + cfg_.tau * frac;
}

void ClientLeaseAgent::cancel_timers() {
  if (boundary_timer_ != 0) {
    clock_->cancel(boundary_timer_);
    boundary_timer_ = 0;
  }
  if (keepalive_timer_ != 0) {
    clock_->cancel(keepalive_timer_);
    keepalive_timer_ = 0;
  }
}

void ClientLeaseAgent::restart(sim::LocalTime t_c1) {
  nack_latched_ = false;
  lease_start_ = t_c1;
  // Enter the phase the new lease is actually in (the ACK may arrive well
  // after the request was sent) and arm the next boundary.
  cancel_timers();
  phase_ = LeasePhase::kNoLease;
  arm_boundary_timer();
}

void ClientLeaseAgent::renew(sim::LocalTime t_c1) {
  if (phase_ == LeasePhase::kNoLease || phase_ == LeasePhase::kExpired) {
    // NoLease: the owning client calls restart() explicitly on registration.
    // Expired: the lease contract has lapsed; only re-registration revives it.
    return;
  }
  if (nack_latched_) {
    // A NACK means the server has disavowed us: the ride-down must complete
    // and a stray ACK (e.g. a cached server reply) must not resurrect the
    // lease. Without a NACK, suspect/flush were entered purely on local
    // timeout, and an ACK anchored at t_c1 proves the server heard us then —
    // the theorem 3.1 argument covers the extension regardless of phase.
    return;
  }
  if (t_c1 <= lease_start_) {
    return;  // would not extend the current lease
  }
  lease_start_ = t_c1;
  ++renewals_;
  if (rec_ != nullptr) {
    rec_->record(clock_->engine().now(), self_, obs::EventKind::kLeaseRenew,
                 static_cast<std::uint64_t>(t_c1.ns));
  }
  cancel_timers();
  arm_boundary_timer();
}

bool ClientLeaseAgent::on_nack() {
  ++nacks_seen_;
  if (phase_ == LeasePhase::kNoLease || phase_ == LeasePhase::kExpired) {
    return true;
  }
  nack_latched_ = true;
  if (static_cast<int>(phase_) < static_cast<int>(LeasePhase::kSuspect)) {
    // "The client ... knows its cache to be invalid and enters phase 3 of
    // the lease interval directly."
    cancel_timers();
    arm_boundary_timer();
  } else if (keepalive_timer_ != 0) {
    // Already riding down on timeout and still probing for a rescue: the
    // NACK ends that — renewal is disabled until restart().
    clock_->cancel(keepalive_timer_);
    keepalive_timer_ = 0;
  }
  return true;
}

bool ClientLeaseAgent::on_registered(sim::LocalTime t_c1) {
  if (lease_valid() && !nack_latched_) {
    renew(t_c1);
  } else {
    // NACK-latched or expired: the successful registration opened a FRESH
    // contract (new epoch at the server), so the old lease's quiesce
    // discipline no longer applies. renew() would refuse while latched and
    // the client would expire moments after resuming service, dropping
    // writes accepted in the window. Anchor the new lease at the
    // RegisterReq's first send (t_C1).
    restart(t_c1);
  }
  // A retried RegisterReq can anchor so far back that the lease is already
  // in ride-down; resuming service then would buffer dirty data inside the
  // flush window and lose it at expiry. Stay quiesced — the keep-alive
  // probe re-opens service on rescue.
  return fs_ops_allowed();
}

void ClientLeaseAgent::deactivate() {
  cancel_timers();
  const LeasePhase old = phase_;
  phase_ = LeasePhase::kNoLease;
  if (old != phase_) {
    note_phase(old, phase_);
    owner_->lease_phase_changed(old, phase_);
  }
}

void ClientLeaseAgent::arm_boundary_timer() {
  const sim::LocalTime now = clock_->now();

  LeasePhase target;
  sim::LocalTime next;
  if (now < boundary(cfg_.phase2_frac)) {
    target = LeasePhase::kActive;
    next = boundary(cfg_.phase2_frac);
  } else if (now < boundary(cfg_.phase3_frac)) {
    target = LeasePhase::kRenewal;
    next = boundary(cfg_.phase3_frac);
  } else if (now < boundary(LeaseConfig::kPhase4Frac)) {
    target = LeasePhase::kSuspect;
    next = boundary(LeaseConfig::kPhase4Frac);
  } else if (now < lease_expiry()) {
    target = LeasePhase::kFlush;
    next = lease_expiry();
  } else {
    target = LeasePhase::kExpired;
    next = now;  // unused
  }

  // A latched NACK pins the client at phase 3 or beyond.
  if (nack_latched_ && static_cast<int>(target) < static_cast<int>(LeasePhase::kSuspect)) {
    target = LeasePhase::kSuspect;
    next = boundary(LeaseConfig::kPhase4Frac);
    if (next <= now) {
      next = now + sim::LocalDuration{1};
    }
  }

  enter(target);
  if (target == LeasePhase::kExpired) {
    return;
  }

  sim::LocalDuration delay = next - now;
  if (delay.ns < 1) {
    delay = sim::LocalDuration{1};
  }
  boundary_timer_ = clock_->schedule_after(delay, [this]() {
    boundary_timer_ = 0;
    arm_boundary_timer();
  });
}

void ClientLeaseAgent::enter(LeasePhase p) {
  if (p == phase_) {
    return;
  }
  const LeasePhase old = phase_;
  phase_ = p;
  note_phase(old, p);
  owner_->lease_phase_changed(old, p);

  // Keep-alives run from phase 2 until the ride-down is latched: a suspect
  // or flushing client that has NOT been NACKed keeps trying to renew, and a
  // late ACK rescues the lease (see renew()).
  if (keepalive_timer_ != 0) {
    clock_->cancel(keepalive_timer_);
    keepalive_timer_ = 0;
  }

  switch (p) {
    case LeasePhase::kActive:
    case LeasePhase::kNoLease:
      break;
    case LeasePhase::kRenewal:
      keepalive_tick();
      break;
    case LeasePhase::kSuspect:
      owner_->lease_quiesce();
      if (!nack_latched_) keepalive_tick();
      break;
    case LeasePhase::kFlush:
      owner_->lease_flush();
      if (!nack_latched_) keepalive_tick();
      break;
    case LeasePhase::kExpired:
      ++expiries_;
      owner_->handle_lease_expired();
      break;
  }
}

void ClientLeaseAgent::note_phase(LeasePhase old, LeasePhase now) {
  if (rec_ == nullptr) {
    return;
  }
  const sim::SimTime t = clock_->engine().now();
  switch (old) {
    case LeasePhase::kActive: rec_->span(obs::SpanKind::kPhaseActive, (t - phase_since_).millis()); break;
    case LeasePhase::kRenewal: rec_->span(obs::SpanKind::kPhaseRenewal, (t - phase_since_).millis()); break;
    case LeasePhase::kSuspect: rec_->span(obs::SpanKind::kPhaseSuspect, (t - phase_since_).millis()); break;
    case LeasePhase::kFlush: rec_->span(obs::SpanKind::kPhaseFlush, (t - phase_since_).millis()); break;
    case LeasePhase::kNoLease:
    case LeasePhase::kExpired: break;
  }
  phase_since_ = t;
  rec_->record(t, self_, obs::EventKind::kLeasePhase, static_cast<std::uint64_t>(old),
               static_cast<std::uint64_t>(now));
  if (now == LeasePhase::kExpired) {
    rec_->record(t, self_, obs::EventKind::kLeaseExpire);
  }
}

void ClientLeaseAgent::keepalive_tick() {
  const bool renewing = phase_ == LeasePhase::kRenewal;
  const bool riding_down_unlatched =
      (phase_ == LeasePhase::kSuspect || phase_ == LeasePhase::kFlush) &&
      !nack_latched_;
  if (!renewing && !riding_down_unlatched) {
    return;
  }
  ++keepalives_sent_;
  if (rec_ != nullptr) {
    rec_->record(clock_->engine().now(), self_, obs::EventKind::kKeepaliveSend);
  }
  owner_->lease_keepalive();
  keepalive_timer_ = clock_->schedule_after(LeaseConfig::kKeepaliveRetry, [this]() {
    keepalive_timer_ = 0;
    keepalive_tick();
  });
}

}  // namespace stank::core
