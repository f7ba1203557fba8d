// The factories declared in core/lease_seam.hpp. Each baseline's
// lease-only messages and their ACK wiring live here, next to its scheduler.
#include "baselines/heartbeat.hpp"
#include "baselines/v_lease.hpp"
#include "common/assert.hpp"
#include "core/client_lease_agent.hpp"
#include "core/server_lease_authority.hpp"
#include "protocol/client_transport.hpp"

namespace stank::core {

namespace {

// V-lease renewal point and Frangipani heartbeat period, as fractions of tau.
constexpr double kVRenewFrac = 0.5;
constexpr double kHbBeatFrac = 0.34;

// Sends a lease-only request; `acked` gets its first-send time on an ACK.
template <typename F>
void send_lease_only(protocol::ClientTransport& transport, protocol::RequestBody body,
                     F acked) {
  transport.send_request(
      std::move(body),
      [acked](const protocol::ReplyEvent& ev) {
        if (ev.outcome == protocol::ReplyOutcome::kAck) acked(ev.first_send);
      },
      /*lease_only=*/true);
}

// The Storage Tank lease over a client transport. The keep-alive is the NULL
// message: no file-system or lock content, it exists to be ACKed (which
// renews through the transport's owner, like any other ACK).
class StorageTankLease final : public ClientLeaseAgent {
 public:
  StorageTankLease(protocol::ClientTransport& transport, sim::NodeClock& clock,
                   const LeaseConfig& cfg, ClientLease::Owner& owner)
      : ClientLeaseAgent(clock, cfg, owner), transport_(&transport) {}

 private:
  void send_keepalive() override {
    send_lease_only(*transport_, protocol::KeepAliveReq{}, [](sim::LocalTime) {});
  }

  protocol::ClientTransport* transport_;
};

}  // namespace

std::unique_ptr<ClientLease> make_client_lease(LeaseStrategy strategy,
                                               protocol::ClientTransport& transport,
                                               sim::NodeClock& clock, const LeaseConfig& cfg,
                                               ClientLease::Owner& owner, obs::Recorder* rec,
                                               NodeId self) {
  switch (strategy) {
    case LeaseStrategy::kStorageTank: {
      auto agent = std::make_unique<StorageTankLease>(transport, clock, cfg, owner);
      agent->set_recorder(rec, self);
      return agent;
    }
    case LeaseStrategy::kVLeases: {
      auto sched = std::make_unique<baselines::VLeaseClientScheduler>(
          clock, cfg.tau, kVRenewFrac, baselines::VLeaseClientScheduler::Hooks{});
      sched->hooks().send_renew = [&transport, s = sched.get()](FileId file) {
        send_lease_only(transport, protocol::RenewObjReq{file},
                        [s, file](sim::LocalTime t) { s->renewed(file, t); });
      };
      sched->hooks().object_expired = [&owner](FileId file) { owner.lease_object_expired(file); };
      return sched;
    }
    case LeaseStrategy::kFrangipani: {
      auto sched = std::make_unique<baselines::HeartbeatClientScheduler>(
          clock, cfg.tau, kHbBeatFrac, baselines::HeartbeatClientScheduler::Hooks{});
      sched->hooks().send_heartbeat = [&transport, s = sched.get()]() {
        send_lease_only(transport, protocol::KeepAliveReq{},
                        [s](sim::LocalTime t) { s->on_ack(t); });
      };
      sched->hooks().expired = [&owner]() { owner.handle_lease_expired(); };
      return sched;
    }
  }
  STANK_UNREACHABLE("unknown lease strategy");
}

std::unique_ptr<ServerLease> make_server_lease(LeaseStrategy strategy, sim::NodeClock& clock,
                                               const LeaseConfig& cfg,
                                               metrics::Counters& counters,
                                               ServerLease::Hooks hooks, obs::Recorder* rec,
                                               NodeId self) {
  switch (strategy) {
    case LeaseStrategy::kStorageTank: {
      auto authority =
          std::make_unique<ServerLeaseAuthority>(clock, cfg, counters, std::move(hooks));
      authority->set_recorder(rec, self);
      return authority;
    }
    case LeaseStrategy::kVLeases:
      return std::make_unique<baselines::VLeaseTable>(clock, cfg, counters, std::move(hooks));
    case LeaseStrategy::kFrangipani:
      return std::make_unique<baselines::HeartbeatTable>(clock, cfg, counters,
                                                         std::move(hooks));
  }
  STANK_UNREACHABLE("unknown lease strategy");
}

}  // namespace stank::core
