// The client side of the Storage Tank lease protocol: the four-phase lease
// interval of Figure 4.
//
//   phase 1  lease valid        — serve FS requests; any ACK renews
//   phase 2  renewal period     — still serving; actively send keep-alives
//   phase 3  lease suspect      — quiesce: no new FS requests
//   phase 4  expected failure   — flush all dirty data to the SAN
//   expiry                      — cache invalid, locks ceded; must re-register
//
// A NACK from the server (section 3.3) means the client missed a message:
// it skips straight to phase 3, stops trying to renew, and rides the
// remaining phases into recovery. Suspect/flush entered purely on local
// timeout are NOT latched: the client keeps probing with keep-alives, and a
// late ACK rescues the lease (the theorem 3.1 bound on the extension holds
// regardless of which phase the ACK lands in).
//
// All times are measured on the client's own clock; the agent never sees
// global simulation time. The agent reports to its client through a
// ClientLease::Owner and sends its keep-alive through the same owner
// (lease_keepalive()); the keep-alive's ACK renews like any other ACK, so
// keepalive_acked() has nothing left to do.
#pragma once

#include "core/lease_seam.hpp"

namespace stank::core {

// The Storage Tank lease (Figure 4).
class ClientLeaseAgent final : public ClientLease {
 public:
  ClientLeaseAgent(sim::NodeClock& clock, LeaseConfig cfg, Owner& owner);
  ~ClientLeaseAgent() override;

  // Opportunistic renewal (section 3.1): an ACK arrived for a request whose
  // first transmission left at t_c1 (client clock). The new lease covers
  // [t_c1, t_c1 + tau) — measured from the SEND, not the ACK receipt.
  // Ignored while expired, and while NACK-latched: a client that knows it
  // missed a message "forgoes sending messages to acquire a lease". An
  // un-latched suspect/flush (entered on timeout alone) IS renewable — the
  // ACK proves the server heard us at t_c1 and the safety bound carries.
  void renew(sim::LocalTime t_c1) override;

  // The server NACKed one of our requests: jump directly to phase 3.
  bool on_nack() override;

  // Registration: renew the lease, or open a fresh one when the old one is
  // NACK-latched or over. Admits FS requests only in phases 1 and 2.
  bool on_registered(sim::LocalTime t_c1) override;

  // Recovery finished (re-registered under a fresh epoch, first lease comes
  // from the RegisterReq's ACK at t_c1).
  void restart(sim::LocalTime t_c1);

  // Voluntary teardown (clean shutdown / crash simulation).
  void deactivate();
  void stop() override { deactivate(); }
  // The agent expired itself before the client tore down: nothing to stop.
  void torn_down() override {}

  [[nodiscard]] LeasePhase phase() const override { return phase_; }
  // FS requests are admitted only in phases 1 and 2.
  [[nodiscard]] bool fs_ops_allowed() const {
    return phase_ == LeasePhase::kActive || phase_ == LeasePhase::kRenewal;
  }
  [[nodiscard]] bool lease_valid() const override {
    return phase_ == LeasePhase::kActive || phase_ == LeasePhase::kRenewal ||
           phase_ == LeasePhase::kSuspect || phase_ == LeasePhase::kFlush;
  }

  [[nodiscard]] std::optional<sim::LocalTime> flush_time() const override {
    if (!lease_valid()) return std::nullopt;
    return boundary(LeaseConfig::kPhase4Frac);
  }

  [[nodiscard]] sim::LocalTime lease_start() const { return lease_start_; }
  [[nodiscard]] sim::LocalTime lease_expiry() const { return lease_start_ + cfg_.tau; }

  // Counters for T1/F4.
  [[nodiscard]] std::uint64_t renewals() const { return renewals_; }
  [[nodiscard]] std::uint64_t keepalives_sent() const { return keepalives_sent_; }
  [[nodiscard]] std::uint64_t expiries() const { return expiries_; }
  [[nodiscard]] std::uint64_t nacks_seen() const { return nacks_seen_; }

  [[nodiscard]] const LeaseConfig& config() const { return cfg_; }

  // Attaches the flight recorder. The agent does not otherwise know which
  // node it serves, so the owner names it here. Phase transitions become
  // typed events and per-phase residencies become spans.
  void set_recorder(obs::Recorder* rec, NodeId self) {
    rec_ = rec;
    self_ = self;
    if (rec_ != nullptr) {
      phase_since_ = clock_->engine().now();
    }
  }

 private:
  void enter(LeasePhase p);
  // Records the phase transition and closes the residency span of the phase
  // being left. No-op when detached.
  void note_phase(LeasePhase old, LeasePhase now);
  void arm_boundary_timer();
  void cancel_timers();
  // From phase 2: sends one keep-alive NULL message through the owner,
  // repeated every LeaseConfig::kKeepaliveRetry until the phase ends or an
  // ACK arrives.
  void keepalive_tick();
  // Local time at which the current lease crosses into the given fraction.
  [[nodiscard]] sim::LocalTime boundary(double frac) const;

  sim::NodeClock* clock_;
  LeaseConfig cfg_;
  Owner* owner_;
  obs::Recorder* rec_{nullptr};
  NodeId self_{};
  sim::SimTime phase_since_{};  // residency-span anchor while rec_ attached

  LeasePhase phase_{LeasePhase::kNoLease};
  sim::LocalTime lease_start_{};
  sim::TimerId boundary_timer_{0};
  sim::TimerId keepalive_timer_{0};
  // Set by on_nack(): renewal is disabled until restart().
  bool nack_latched_{false};

  std::uint64_t renewals_{0};
  std::uint64_t keepalives_sent_{0};
  std::uint64_t expiries_{0};
  std::uint64_t nacks_seen_{0};
};
// Every Storage Tank client holds one; see ClientTransport's size pin.
static_assert(sizeof(ClientLeaseAgent) <= 152);

}  // namespace stank::core
