// Sharded parallel discrete-event engine.
//
// Partitions the simulated node population across K shards, each owning a
// full serial Engine (its own event queue, clock and — by construction of
// the fabrics above it — its own RNG streams). Shards advance concurrently
// under conservative time-window synchronization: simulated time is cut into
// windows, every shard runs its own events for the window with no
// cross-shard interaction, and at the window barrier cross-shard traffic is
// exchanged through the registered ShardExchange (per-(src,dst) SPSC
// mailboxes in net::ShardedNet). The scheme is safe iff no event on one
// shard can affect another shard within the same window, i.e. the window is
// no longer than the minimum cross-shard propagation delay. The window is
// therefore not a knob: it IS the exchange's lookahead (the ControlNet base
// latency, 200us by default), read at the start of every run_until. With no
// exchange the shards cannot interact, and one window spans the whole
// run_until. The exchange asserts the contract per datagram.
//
// Determinism contract:
//  * A fixed (seed, K, NetConfig) run is bit-identical regardless of
//    worker-thread count: shard execution within a window touches only
//    shard-local state, mailboxes are single-producer/single-consumer with
//    the barrier providing the ordering, and co-timed cross-shard arrivals
//    are merged in (arrival time, source shard, source sequence) order at
//    the barrier. Worker count only changes which OS thread runs a shard,
//    never what the shard computes.
//  * K = 1 runs the same window loop on one worker (parallel_for runs it
//    inline, a one-party barrier returns at once) and reproduces the serial
//    engine byte for byte: cutting run_until() at window edges executes the
//    same events in the same (time, seq) order, so the consistency checker,
//    replay corpus and serial tests stay valid.
//
// Idle windows are skipped deterministically: at each barrier every worker
// computes the same global earliest-pending-event time (from a plain array
// each worker partially filled before the barrier) and jumps the window base
// forward over gaps where no shard has work. Sparse phases therefore cost
// O(events), not O(simulated time / window).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/counters.hpp"
#include "rt/barrier.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace stank::sim {

// Cross-shard input source, implemented by the sharded fabrics (ShardedNet).
// deliver() runs once per (shard, window barrier), on the worker thread that
// owns dst_shard, strictly after every shard finished running the window and
// strictly before any shard starts the next one.
class ShardExchange {
 public:
  virtual ~ShardExchange() = default;
  // Must schedule all pending cross-shard input destined for dst_shard onto
  // that shard's engine. Everything scheduled must lie at or beyond
  // window_end — the conservative lookahead contract.
  virtual void deliver(unsigned dst_shard, SimTime window_end) = 0;
  // Minimum cross-shard propagation delay: the engine's window length.
  // Must be positive; may change between run_until calls.
  [[nodiscard]] virtual Duration lookahead() const = 0;
};

class ShardedEngine {
 public:
  struct Config {
    unsigned shards{1};
    // Worker threads for run_until (0 = hardware_concurrency), capped at the
    // shard count. Affects wall-clock only, never results.
    unsigned threads{0};
  };

  explicit ShardedEngine(Config cfg);
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  [[nodiscard]] unsigned shard_count() const { return static_cast<unsigned>(shards_.size()); }
  [[nodiscard]] Engine& shard(unsigned s) { return *shards_[s]; }
  [[nodiscard]] const Engine& shard(unsigned s) const { return *shards_[s]; }
  // The window the next run_until uses: the exchange's lookahead, or
  // unbounded (one window per run_until) when no exchange is registered.
  [[nodiscard]] Duration window() const {
    return exchange_ != nullptr ? exchange_->lookahead() : Duration{Engine::kNever.ns};
  }

  // The synchronized window frontier: every shard has run to at least here.
  [[nodiscard]] SimTime now() const { return frontier_; }

  void set_exchange(ShardExchange* x) { exchange_ = x; }

  // -- telemetry (optional; dark by default) -------------------------------
  // When armed, the window loop feeds per-shard counters — events/window,
  // executed and idle-skipped windows, a load-imbalance gauge, and the
  // barrier's wait-time histogram — into the registry. Counters are written
  // only by each shard's owning worker and read only at barrier-protected
  // points, so arming adds zero atomics, zero engine events, and zero RNG
  // draws: an armed run is bit-identical to a dark one (the digest tests
  // pin this). set_telemetry() registers the counters; call it before the
  // registry's freeze().
  struct Telemetry {
    obs::Counters* counters{nullptr};
    // Snapshot cadence in executed windows; 0 disables snapshots. On a
    // snapshot window every worker takes one extra barrier pair; worker 0
    // refreshes the imbalance gauge and runs on_snapshot in between.
    std::uint64_t snapshot_every_windows{0};
    // Runs on worker 0 with every other worker parked at the barrier: all
    // shard state is happens-before-visible and safe to read. Must not
    // schedule engine events (that would break the determinism digest).
    std::function<void(SimTime window_end)> on_snapshot;
  };
  void set_telemetry(Telemetry tel);

  // Advances every shard to `horizon` under window synchronization, with
  // the window read from window() once at the start of the call. With one
  // shard the result is exactly Engine::run_until on the lone shard.
  void run_until(SimTime horizon);

  [[nodiscard]] std::uint64_t events_executed() const;
  [[nodiscard]] std::size_t events_pending() const;

 private:
  struct TelemetryIds {
    obs::Counters::Id events;           // kSum, per shard
    obs::Counters::Id windows;          // kMax (every shard runs every window)
    obs::Counters::Id idle_windows;     // kSum, recorded into shard 0
    obs::Counters::Id idle_ns;          // kSum, recorded into shard 0
    obs::Counters::Id imbalance;        // kMax, permille of max/mean shard events
    obs::Counters::Id barrier_waits;    // kSum, per worker
    obs::Counters::Id barrier_last;     // kSum: arrivals that never waited
    obs::Counters::Id barrier_spins;    // kSum: completed spin bursts
    obs::Counters::Id barrier_yields;   // kSum
    obs::Counters::Id barrier_wait_ns;  // kSum: total ns inside the barrier
    obs::Counters::HistId barrier_wait_hist;
  };

  void run_windows(SimTime horizon, std::int64_t w, unsigned workers);
  void snapshot_tick(SimTime window_end);
  void fold_wait_stats(unsigned workers);

  Config cfg_;
  std::vector<std::unique_ptr<Engine>> shards_;
  // Per-shard next-pending-event time, refreshed at each barrier. Written by
  // the shard's owning worker before the exchange barrier, read by every
  // worker after it — the barrier is the synchronization.
  std::vector<std::int64_t> next_event_ns_;
  ShardExchange* exchange_{nullptr};
  SimTime frontier_{};

  Telemetry tel_;
  TelemetryIds tel_ids_;
  // Per-shard events_executed at the last window accounting / snapshot.
  // Written only by the shard's owner (fixed s ≡ worker mod workers
  // assignment) resp. worker 0 between the snapshot barriers.
  std::vector<std::uint64_t> tel_prev_events_;
  std::vector<std::uint64_t> tel_snap_events_;
  // Per-worker barrier stats, folded into the registry after the join.
  std::vector<rt::Barrier::WaitStats> tel_wait_;
};

}  // namespace stank::sim
