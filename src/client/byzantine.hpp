// Composable client misbehaviors and the ByzantineClient that performs them.
//
// The paper's safety argument (section 2/6) trusts exactly two parties: the
// server and the fence list at the network-attached disks. Clients and the
// network are untrusted. Each flag below makes a client violate one protocol
// obligation an honest client keeps; tools/fuzz_safety composes them and the
// split verdict in src/verify/ checks that HONEST clients stay safe
// regardless (DESIGN.md §13).
//
// These are protocol-level lies — late I/O under a superseded registration,
// timestamp lies, ignored quiesce/revocation, replayed datagrams, forged
// claims. Arbitrary data-plane forgery under a live, valid registration
// (a registered EX holder writing garbage it never buffered) is out of
// scope: per-initiator fencing cannot distinguish it from legitimate I/O,
// and no lease protocol could (DESIGN.md §13, "limits of the model").
#pragma once

#include <cstdint>
#include <vector>

#include "client/client.hpp"

namespace stank::client {

struct ByzantineSpec {
  // Renew the lease from `first_send + skew` instead of the true first
  // transmission time — the lie-about-time attack on the renewal math.
  bool lie_send_time{false};
  double send_time_skew_s{0.0};
  // Ignore the agent's quiesce: keep accepting fs ops and keep renewing off
  // their ACKs instead of going quiet, and ignore NACKs entirely.
  bool defy_quiesce{false};
  // At lease expiry, snapshot the dirty cache and keep re-submitting it to
  // the SAN under the (now superseded) registration key, forever.
  bool write_after_expiry{false};
  // Transport-ACK lock demands but never flush, downgrade, or answer with
  // DemandDoneReq — the revocation stalls on this client.
  bool ack_without_release{false};
  // Record server-initiated datagrams off the wire and re-inject captured
  // ones from dead sessions (old epoch / old server incarnation) later.
  bool replay_old_session{false};
  // Periodically send UnlockReq / DemandDoneReq for locks and generations
  // this client was never granted.
  bool forge_lock_claims{false};

  [[nodiscard]] bool any() const { return mask() != 0; }

  // Bitmask form for replay files and shrinkers (send_time_skew_s rides
  // separately: it is a continuous parameter, not a behavior).
  enum : std::uint32_t {
    kLieSendTime = 1u << 0,
    kDefyQuiesce = 1u << 1,
    kWriteAfterExpiry = 1u << 2,
    kAckWithoutRelease = 1u << 3,
    kReplayOldSession = 1u << 4,
    kForgeLockClaims = 1u << 5,
    kAllBehaviors = (1u << 6) - 1,
  };

  [[nodiscard]] std::uint32_t mask() const {
    return (lie_send_time ? kLieSendTime : 0u) | (defy_quiesce ? kDefyQuiesce : 0u) |
           (write_after_expiry ? kWriteAfterExpiry : 0u) |
           (ack_without_release ? kAckWithoutRelease : 0u) |
           (replay_old_session ? kReplayOldSession : 0u) |
           (forge_lock_claims ? kForgeLockClaims : 0u);
  }

  [[nodiscard]] static ByzantineSpec from_mask(std::uint32_t m, double skew_s = 0.0) {
    return {.lie_send_time = (m & kLieSendTime) != 0,
            .send_time_skew_s = skew_s,
            .defy_quiesce = (m & kDefyQuiesce) != 0,
            .write_after_expiry = (m & kWriteAfterExpiry) != 0,
            .ack_without_release = (m & kAckWithoutRelease) != 0,
            .replay_old_session = (m & kReplayOldSession) != 0,
            .forge_lock_claims = (m & kForgeLockClaims) != 0};
  }
};

// A real Client with a few screws removed: each behavior subverts one
// obligation, by overriding the transport- or lease-owner method that keeps
// it (skipping or bending the honest call) or by a timed attack of its own.
class ByzantineClient final : public Client {
 public:
  ByzantineClient(sim::Engine& engine, net::ControlNet& net, storage::SanFabric& san,
                  sim::LocalClock local_clock, ClientConfig cfg, ByzantineSpec spec,
                  obs::Recorder* rec = nullptr);
  ~ByzantineClient() override { cancel_timers(); }

  // The honest lifecycle first, then the attack timers.
  void start() override {
    Client::start();
    arm_timers();
  }
  void crash() override;
  void restart() override {
    Client::restart();
    arm_timers();
  }

  // How often the timed attacks fired (datagrams re-injected, claims forged).
  [[nodiscard]] std::uint64_t datagrams_replayed() const { return datagrams_replayed_; }
  [[nodiscard]] std::uint64_t claims_forged() const { return claims_forged_; }

 private:
  struct RogueWrite {
    DiskId disk;
    storage::BlockAddr addr{0};
    Bytes data;
  };
  struct CapturedDatagram {
    std::uint32_t epoch{0};
    std::uint32_t incarnation{0};
    Bytes bytes;
  };

  // The owner methods a behavior perturbs; each calls the honest one unless
  // its behavior is on.
  void on_ack(sim::LocalTime first_send) override;
  void on_nack() override;
  void handle_server_msg(const protocol::ServerBody& body) override;
  void wiretap_server_msg(const Bytes& datagram) override;
  void lease_quiesce() override;
  void lease_flush() override;

  void before_lease_teardown() override {
    if (spec_.write_after_expiry) snapshot_rogue_writes();
  }
  void snapshot_rogue_writes();
  void rogue_flush_tick();
  void replay_tick();
  void forge_tick();
  void arm_timers();
  void cancel_timers();
  // Tiny deterministic generator for the forged/replayed message choices,
  // client-local so runs stay reproducible without the scenario RNG.
  std::uint32_t next_rand();

  storage::SanFabric* san_;
  ByzantineSpec spec_;
  std::vector<RogueWrite> rogue_writes_;
  std::uint64_t rogue_io_key_{0};  // captured at expiry; never re-keyed
  std::uint32_t rogue_rounds_left_{0};
  std::vector<CapturedDatagram> captured_;  // bounded ring of server msgs
  std::size_t captured_next_{0};
  sim::TimerId rogue_timer_{0};
  sim::TimerId replay_timer_{0};
  sim::TimerId forge_timer_{0};
  std::uint32_t rng_state_;
  std::uint64_t datagrams_replayed_{0};
  std::uint64_t claims_forged_{0};
};

}  // namespace stank::client
