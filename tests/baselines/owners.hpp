// Lease owners for the baseline tests: the client owner records what a
// scheduler asks of its client; the server owner backs a table whose tests
// pass times explicitly and never reach a steal.
#pragma once

#include <vector>

#include "core/lease_seam.hpp"

namespace stank::baselines {

struct RecordingOwner final : core::ClientLease::Owner {
  int keepalives{0};
  int expiries{0};
  std::vector<FileId> renewals;  // one entry per lease_renew_object()
  std::vector<FileId> expired;   // one entry per lease_object_expired()

  void lease_keepalive() override { ++keepalives; }
  void lease_renew_object(FileId file) override { renewals.push_back(file); }
  void handle_lease_expired() override { ++expiries; }
  void lease_object_expired(FileId file) override { expired.push_back(file); }
  void lease_quiesce() override {}
  void lease_flush() override {}
  void lease_phase_changed(core::LeasePhase /*from*/, core::LeasePhase /*to*/) override {}
};

// The tables' steal timers run on a clock.
struct TableClock final : core::ServerLease::Owner {
  sim::Engine engine;
  sim::NodeClock clock{engine, sim::LocalClock(1.0)};

  void lease_steal(NodeId /*client*/) override {}
  [[nodiscard]] std::vector<FileId> lease_held_files(NodeId /*client*/) const override {
    return {};
  }
};

}  // namespace stank::baselines
