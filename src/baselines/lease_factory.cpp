// The factories declared in core/lease_seam.hpp: the one module that knows
// every strategy.
#include "baselines/heartbeat.hpp"
#include "baselines/v_lease.hpp"
#include "common/assert.hpp"
#include "core/client_lease_agent.hpp"
#include "core/server_lease_authority.hpp"

namespace stank::core {

namespace {

// V-lease renewal point and Frangipani heartbeat period, as fractions of tau.
constexpr double kVRenewFrac = 0.5;
constexpr double kHbBeatFrac = 0.34;

}  // namespace

std::unique_ptr<ClientLease> make_client_lease(LeaseStrategy strategy, sim::NodeClock& clock,
                                               const LeaseConfig& cfg,
                                               ClientLease::Owner& owner, obs::Recorder* rec,
                                               NodeId self) {
  switch (strategy) {
    case LeaseStrategy::kStorageTank: {
      auto agent = std::make_unique<ClientLeaseAgent>(clock, cfg, owner);
      agent->set_recorder(rec, self);
      return agent;
    }
    case LeaseStrategy::kVLeases:
      return std::make_unique<baselines::VLeaseClientScheduler>(clock, cfg.tau, kVRenewFrac,
                                                                owner);
    case LeaseStrategy::kFrangipani:
      return std::make_unique<baselines::HeartbeatClientScheduler>(clock, cfg.tau, kHbBeatFrac,
                                                                   owner);
  }
  STANK_UNREACHABLE("unknown lease strategy");
}

std::unique_ptr<ServerLease> make_server_lease(LeaseStrategy strategy, sim::NodeClock& clock,
                                               const LeaseConfig& cfg,
                                               metrics::Counters& counters,
                                               ServerLease::Owner& owner, obs::Recorder* rec,
                                               NodeId self) {
  switch (strategy) {
    case LeaseStrategy::kStorageTank: {
      auto authority = std::make_unique<ServerLeaseAuthority>(clock, cfg, counters, owner);
      authority->set_recorder(rec, self);
      return authority;
    }
    case LeaseStrategy::kVLeases:
      return std::make_unique<baselines::VLeaseTable>(clock, cfg, counters, owner);
    case LeaseStrategy::kFrangipani:
      return std::make_unique<baselines::HeartbeatTable>(clock, cfg, counters, owner);
  }
  STANK_UNREACHABLE("unknown lease strategy");
}

}  // namespace stank::core
