// Reusable synchronization barrier for the sharded simulation engine.
//
// The window loop synchronizes K shard workers twice per simulated window
// (200us, the ControlNet lookahead), so a conservative parallel run crosses
// the barrier ten thousand times per simulated second. std::barrier's
// completion-function machinery and futex round trips are measurable at that
// rate; this barrier spins briefly (windows are short, the other workers are
// usually already arriving) and then yields, so it degrades gracefully when
// workers outnumber cores.
//
// Memory ordering: arrive_and_wait() is a full rendezvous — every write a
// participant made before arriving happens-before every read any participant
// makes after leaving. That ordering is what makes the lock-free SPSC
// mailboxes safe: producers fill them strictly before the barrier, consumers
// drain them strictly after.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <thread>

#include "common/assert.hpp"

namespace stank::rt {

class Barrier {
 public:
  // Per-participant wait accounting, filled by arrive_and_wait(WaitStats*).
  // Strictly thread-local: each worker passes its own instance and the
  // owner folds them only after the workers have joined, so there is no
  // sharing to order. Padded to a cache line anyway — the stats commonly
  // live in an array indexed by worker.
  struct alignas(64) WaitStats {
    std::uint64_t waits{0};          // rendezvous crossed
    std::uint64_t last_arrivals{0};  // times this participant arrived last
    std::uint64_t spin_rounds{0};    // completed kSpinLimit spin bursts
    std::uint64_t yields{0};         // sched_yield calls while waiting
    std::uint64_t wait_ns{0};        // total wall time inside the barrier
    // log2 wait-time buckets: bucket b counts waits in [2^(b-1), 2^b) ns.
    std::array<std::uint64_t, 32> wait_ns_buckets{};

    void reset() { *this = WaitStats{}; }
  };

  explicit Barrier(std::uint32_t participants) : participants_(participants) {
    STANK_ASSERT_MSG(participants > 0, "barrier needs at least one participant");
  }

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  void arrive_and_wait() { arrive_and_wait(nullptr); }

  // With ws == nullptr this is the original untimed path: the null check is
  // the one untaken branch dark instrumentation is allowed. With stats the
  // wait is clocked (two steady_clock reads) and spin/yield behavior is
  // counted — same spin/yield policy, so arming never changes scheduling.
  void arrive_and_wait(WaitStats* ws) {
    if (participants_ == 1) return;  // single worker: every window is a no-op
    using clock = std::chrono::steady_clock;
    clock::time_point t0;
    if (ws != nullptr) t0 = clock::now();
    const std::uint64_t phase = phase_.load(std::memory_order_relaxed);
    // The release on the last arrival publishes this worker's writes; the
    // acquire in the spin loop (and in the fetch_add itself) pulls in every
    // other worker's writes from the previous phase.
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == participants_) {
      arrived_.store(0, std::memory_order_relaxed);
      phase_.fetch_add(1, std::memory_order_acq_rel);
      if (ws != nullptr) {
        ++ws->last_arrivals;
        note_wait(*ws, t0);
      }
      return;
    }
    // Spin a little first — at dense event rates the other shards arrive
    // within a microsecond — then yield so an oversubscribed machine (more
    // workers than cores) does not burn whole scheduler quanta.
    if (ws == nullptr) {
      for (std::uint32_t spins = 0; phase_.load(std::memory_order_acquire) == phase;) {
        if (++spins >= kSpinLimit) {
          std::this_thread::yield();
          spins = 0;
        }
      }
      return;
    }
    for (std::uint32_t spins = 0; phase_.load(std::memory_order_acquire) == phase;) {
      if (++spins >= kSpinLimit) {
        ++ws->spin_rounds;
        ++ws->yields;
        std::this_thread::yield();
        spins = 0;
      }
    }
    note_wait(*ws, t0);
  }

  [[nodiscard]] std::uint32_t participants() const { return participants_; }

 private:
  static constexpr std::uint32_t kSpinLimit = 4096;

  static void note_wait(WaitStats& ws, std::chrono::steady_clock::time_point t0) {
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    ++ws.waits;
    ws.wait_ns += ns;
    const unsigned width = static_cast<unsigned>(std::bit_width(ns));
    ws.wait_ns_buckets[width < ws.wait_ns_buckets.size()
                           ? width
                           : ws.wait_ns_buckets.size() - 1] += 1;
  }

  const std::uint32_t participants_;
  std::atomic<std::uint32_t> arrived_{0};
  std::atomic<std::uint64_t> phase_{0};
};

}  // namespace stank::rt
