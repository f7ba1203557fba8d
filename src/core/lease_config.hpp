// Lease protocol parameters.
#pragma once

#include <cstdint>

#include "common/assert.hpp"
#include "sim/time.hpp"

namespace stank::core {

// Which lease machinery maintains the client/server contract during normal
// operation (the paper's sections 4 & 5 comparisons).
enum class LeaseStrategy : std::uint8_t {
  kStorageTank,  // single implicit lease, opportunistic renewal, passive server
  kVLeases,      // per-object leases with explicit renewals (V system)
  kFrangipani,   // single lease, heartbeats, stateful server
};

[[nodiscard]] constexpr const char* to_string(LeaseStrategy s) {
  switch (s) {
    case LeaseStrategy::kStorageTank: return "storage-tank";
    case LeaseStrategy::kVLeases: return "v-leases";
    case LeaseStrategy::kFrangipani: return "frangipani";
  }
  return "?";
}

struct LeaseConfig {
  // The contracted lease period tau, as counted on either party's own clock
  // (the contract is in local units; rate synchronization bounds the
  // cross-clock error).
  sim::LocalDuration tau{sim::local_seconds(10)};

  // Clock rate synchronization bound epsilon: an interval of length t on one
  // clock measures within (t/(1+eps), t(1+eps)) on another.
  double epsilon{1e-4};

  // Phase boundaries as fractions of tau (Figure 4).
  //  [0, phase2_frac)            phase 1: lease valid, passive renewal
  //  [phase2_frac, phase3_frac)  phase 2: active keep-alive renewal
  //  [phase3_frac, kPhase4Frac)  phase 3: suspect — quiesce FS activity
  //  [kPhase4Frac, 1)            phase 4: expected failure — flush dirty data
  double phase2_frac{0.50};
  double phase3_frac{0.75};
  static constexpr double kPhase4Frac = 0.85;

  // How often a phase-2 client re-sends its keep-alive NULL message.
  static constexpr sim::LocalDuration kKeepaliveRetry = sim::local_millis(500);

  void validate() const {
    STANK_ASSERT(tau.ns > 0);
    STANK_ASSERT(epsilon >= 0.0);
    STANK_ASSERT(phase2_frac > 0.0 && phase2_frac < phase3_frac);
    STANK_ASSERT(phase3_frac < kPhase4Frac);
  }
};

}  // namespace stank::core
