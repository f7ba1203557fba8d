// The lease-strategy seam: a Client holds one ClientLease and a Server one
// ServerLease, built from the configured LeaseStrategy by the factories
// below, and neither asks which strategy it runs. Storage Tank's protocol is
// ClientLeaseAgent + ServerLeaseAuthority; the V-lease and Frangipani
// comparisons implement the same interfaces in baselines/. Each side's lease
// reports to, and sends its lease-only messages through, one owner interface
// (ClientLease::Owner, ServerLease::Owner): a pointer per node rather than a
// table of callbacks, and no dependency on the protocol layer.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/strong_id.hpp"
#include "core/lease_config.hpp"
#include "metrics/counters.hpp"
#include "obs/recorder.hpp"
#include "sim/clock.hpp"

namespace stank::core {

enum class LeasePhase : std::uint8_t {
  kNoLease = 0,  // never registered, or post-expiry awaiting re-register
  kActive = 1,   // phase 1
  kRenewal = 2,  // phase 2
  kSuspect = 3,  // phase 3
  kFlush = 4,    // phase 4
  kExpired = 5,  // lease over; recovery (re-register) pending
};

[[nodiscard]] constexpr const char* to_string(LeasePhase p) {
  switch (p) {
    case LeasePhase::kNoLease: return "no-lease";
    case LeasePhase::kActive: return "active";
    case LeasePhase::kRenewal: return "renewal";
    case LeasePhase::kSuspect: return "suspect";
    case LeasePhase::kFlush: return "flush";
    case LeasePhase::kExpired: return "expired";
  }
  return "?";
}

class ClientLease {
 public:
  // What a lease may ask of its client (client::Client). Each strategy calls
  // the methods its protocol has.
  class Owner {
   public:
    // Sends one lease-only keep-alive (the NULL message); its ACK comes back
    // through keepalive_acked().
    virtual void lease_keepalive() = 0;
    // Sends one lease-only renewal of the file's per-object lease; its ACK
    // comes back through object_renewed().
    virtual void lease_renew_object(FileId file) = 0;
    // Phase 3 entered: stop admitting new FS requests; drain in-flight ones.
    virtual void lease_quiesce() = 0;
    // Phase 4 entered: write all dirty cache contents to shared storage.
    virtual void lease_flush() = 0;
    // Lease expired: invalidate the cache, cede all locks, begin recovery.
    virtual void handle_lease_expired() = 0;
    // A per-object lease expired: that object's lock and cached pages are
    // invalid.
    virtual void lease_object_expired(FileId file) = 0;
    // Observer for traces/metrics.
    virtual void lease_phase_changed(LeasePhase from, LeasePhase to) = 0;

   protected:
    ~Owner() = default;
  };

  ClientLease() = default;
  ClientLease(const ClientLease&) = delete;
  ClientLease& operator=(const ClientLease&) = delete;
  virtual ~ClientLease() = default;

  // Any request first sent at t_c1 was ACKed (opportunistic renewal).
  virtual void renew(sim::LocalTime /*t_c1*/) {}
  // The owner's lease_keepalive() first sent at t_c1 was ACKed.
  virtual void keepalive_acked(sim::LocalTime /*t_c1*/) {}
  // The owner's lease_renew_object(file) first sent at t_c1 was ACKed.
  virtual void object_renewed(FileId /*file*/, sim::LocalTime /*t_c1*/) {}
  // A NACK arrived; false means no ride-down: tear the session down now.
  virtual bool on_nack() { return false; }
  // Server pushes are accepted, and locks reasserted, only while true.
  [[nodiscard]] virtual bool lease_valid() const { return true; }
  // When the current lease's phase 4 begins, on the client's clock; none for
  // a strategy without one.
  [[nodiscard]] virtual std::optional<sim::LocalTime> flush_time() const { return std::nullopt; }
  // A RegisterReq first sent at t_c1 was ACKed; returns whether FS requests
  // may be admitted.
  virtual bool on_registered(sim::LocalTime t_c1) = 0;
  // Checked on EVERY op and lock use, not only at timer ticks, so a lapsed
  // lease never serves stale cache in the detection gap.
  [[nodiscard]] virtual bool admits_ops() const { return true; }
  [[nodiscard]] virtual bool lock_usable(FileId /*file*/) const { return true; }
  virtual void lock_acquired(FileId /*file*/) {}
  virtual void lock_released(FileId /*file*/) {}
  // Crash: cancel every timer; the lease sends nothing more.
  virtual void stop() = 0;
  // The client tore its session down (expiry, or a NACK with no ride-down).
  virtual void torn_down() { stop(); }
  [[nodiscard]] virtual LeasePhase phase() const { return LeasePhase::kNoLease; }
};

class ServerLease {
 public:
  // What a lease may ask of its server (server::Server).
  class Owner {
   public:
    // The client's lease is provably over: steal its locks, fence it,
    // redistribute.
    virtual void lease_steal(NodeId client) = 0;
    // The files the client holds locks on.
    [[nodiscard]] virtual std::vector<FileId> lease_held_files(NodeId client) const = 0;

   protected:
    ~Owner() = default;
  };

  ServerLease() = default;
  ServerLease(const ServerLease&) = delete;
  ServerLease& operator=(const ServerLease&) = delete;
  virtual ~ServerLease() = default;

  // The transport's ACK gate; requests are NACKed while it is false.
  [[nodiscard]] virtual bool may_ack(NodeId /*client*/) const { return true; }
  // A RegisterReq arrived; false refuses it (a steal is still pending).
  [[nodiscard]] virtual bool try_reregister(NodeId client) = 0;
  virtual void on_registered(NodeId /*client*/) {}
  virtual void on_keepalive(NodeId /*client*/) {}
  virtual void on_renew_object(NodeId /*client*/, FileId /*file*/) {}
  virtual void on_grant(NodeId /*client*/, FileId /*file*/) {}
  // The client dropped its lock on the file entirely.
  virtual void on_release(NodeId /*client*/, FileId /*file*/) {}
  // A message requiring the client's ACK exhausted its retries.
  virtual void on_delivery_failure(NodeId client) = 0;
  virtual void on_steal(NodeId /*client*/) {}  // by whichever recovery mode
  // Memory devoted to lease bookkeeping right now.
  [[nodiscard]] virtual std::size_t state_bytes() const = 0;
};

// Defined in baselines/lease_factory.cpp, the one module that knows every
// strategy. The lease reports to, and sends through, `owner`, which must
// outlive it. `self` names the node to the recorder, which may be null.
std::unique_ptr<ClientLease> make_client_lease(LeaseStrategy strategy, sim::NodeClock& clock,
                                               const LeaseConfig& cfg,
                                               ClientLease::Owner& owner, obs::Recorder* rec,
                                               NodeId self);
std::unique_ptr<ServerLease> make_server_lease(LeaseStrategy strategy, sim::NodeClock& clock,
                                               const LeaseConfig& cfg,
                                               metrics::Counters& counters,
                                               ServerLease::Owner& owner, obs::Recorder* rec,
                                               NodeId self);

}  // namespace stank::core
