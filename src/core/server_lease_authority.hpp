// The passive server side of the lease protocol.
//
// "The key feature of the server's protocol is that it retains no state
// about client leases. During normal operation, the server merely grants
// locks and ignores leasing altogether." (section 3)
//
// Only a delivery error creates state here: the client is marked suspect, a
// timer of tau(1+eps) — measured on the server's own clock — is started, and
// from that instant no ACK may reach that client. When the timer fires, the
// client's lease has provably expired (Theorem 3.1) and the owner steals.
// After the steal the client stays in a "failed" state, NACKed on every
// request except re-registration.
#pragma once

#include "common/flat_map.hpp"
#include "core/lease_math.hpp"
#include "core/lease_seam.hpp"

namespace stank::core {

enum class ClientStanding : std::uint8_t {
  kGood = 0,    // no lease state exists for this client (the normal case)
  kSuspect,     // delivery failure observed; expiry timer running
  kFailed,      // locks stolen; awaiting re-registration
};

// Asks its owner for lease_steal() only.
class ServerLeaseAuthority final : public ServerLease {
 public:
  ServerLeaseAuthority(sim::NodeClock& clock, LeaseConfig cfg, metrics::Counters& counters,
                       Owner& owner);
  ~ServerLeaseAuthority() override;

  // A message requiring a client ACK exhausted its retries. Starts the
  // tau(1+eps) timer unless one is already running or the client is already
  // failed. This is the ONLY entry point that creates lease state.
  void on_delivery_failure(NodeId client) override;

  // The transport's ACK gate: false while suspect or failed.
  [[nodiscard]] bool may_ack(NodeId client) const override;

  [[nodiscard]] ClientStanding standing(NodeId client) const;
  [[nodiscard]] bool is_suspect(NodeId client) const {
    return standing(client) == ClientStanding::kSuspect;
  }
  [[nodiscard]] bool is_failed(NodeId client) const {
    return standing(client) == ClientStanding::kFailed;
  }

  // Re-registration: clears the failed state. Returns false (and does
  // nothing) while the timer still runs: a suspect client always waits out
  // the full tau(1+eps), since only then has its lease provably expired.
  [[nodiscard]] bool try_reregister(NodeId client) override;

  // Memory devoted to lease bookkeeping right now. The paper's claim is that
  // this is zero during failure-free operation.
  [[nodiscard]] std::size_t state_bytes() const override;
  [[nodiscard]] std::size_t suspect_count() const;
  [[nodiscard]] std::size_t failed_count() const;

  [[nodiscard]] const LeaseConfig& config() const { return cfg_; }

  // Attaches the flight recorder; `self` is the server's own node id (the
  // authority otherwise has no identity). Standing changes become typed
  // events; steal -> successful re-registration becomes a recovery span.
  void set_recorder(obs::Recorder* rec, NodeId self) {
    rec_ = rec;
    self_ = self;
  }

 private:
  struct Entry {
    ClientStanding standing{ClientStanding::kSuspect};
    sim::TimerId timer{0};
    // When the steal happened (server clock); anchors the steal-to-reassert
    // recovery span. Only meaningful in the kFailed standing.
    sim::LocalTime failed_at{};
  };

  void fire(NodeId client);

  sim::NodeClock* clock_;
  LeaseConfig cfg_;
  metrics::Counters* counters_;
  Owner* owner_;
  obs::Recorder* rec_{nullptr};
  NodeId self_{};
  // Empty during normal operation — that emptiness IS the paper's claim,
  // and bench T2 asserts it.
  FlatMap<NodeId, Entry> entries_;
};

}  // namespace stank::core
