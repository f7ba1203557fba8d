// Sharded parallel discrete-event engine.
//
// Partitions the simulated node population across K shards, each owning a
// full serial Engine (its own event queue, clock and — by construction of
// the fabrics above it — its own RNG streams). Shards advance concurrently
// under conservative synchronization with no global barrier: simulated time
// is cut into sub-windows of g = ⌊L/2⌋, where L is the registered
// ShardExchange's lookahead (the ControlNet base latency, 200us by default,
// read at the start of every run_until), and each shard publishes a
// progress counter as it finishes one. A shard starts sub-window n once
// every shard has finished n−2. It first takes in exactly the cross-shard
// traffic the other shards sent during n−2 (per-(src,dst) mailbox rings in
// net::ShardedNet), then runs its own events to the sub-window end with no
// cross-shard interaction. That is safe because a datagram sent during
// n−2 arrives at or after start(n−2) + L ≥ start(n): it can never land in
// the past of the shard that takes it in. So a shard waits only when it is
// two sub-windows ahead of the slowest shard, never for the slowest shard
// to catch up with a common edge. With no exchange the shards cannot
// interact, and one sub-window spans the whole run_until. The exchange
// asserts the lookahead contract per datagram.
//
// Determinism contract:
//  * A fixed (seed, K, NetConfig) run is bit-identical regardless of
//    worker-thread count: shard execution within a sub-window touches only
//    shard-local state, a mailbox slot has one producer and one consumer,
//    the progress counters order the slot's writes before its drain, and
//    cross-shard arrivals are merged in (arrival time, source shard, source
//    sequence) order when a shard takes them in. Worker count only changes
//    which OS thread runs a shard and how far ahead it may run, never what
//    the shard computes.
//  * K = 1 runs the same loop on one worker (parallel_for runs it inline,
//    and every progress wait is already satisfied) and reproduces the serial
//    engine byte for byte: cutting run_until() at sub-window edges executes
//    the same events in the same (time, seq) order, so the consistency
//    checker, replay corpus and serial tests stay valid.
//
// Idle gaps are skipped deterministically: after each sub-window every shard
// publishes the earliest time it can next act (its next pending event, or
// an arrival it posted that is not yet taken in), and every worker computes
// the same jump over gaps where no shard has work, from sub-windows ≤ n−2
// only. Sparse phases therefore cost O(events), not O(simulated time / g).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/counters.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace stank::sim {

// Cross-shard input source, implemented by the sharded fabrics (ShardedNet).
// open() and earliest_posted() run on the worker thread that owns the shard;
// flush() runs on the caller's thread with no worker running.
class ShardExchange {
 public:
  virtual ~ShardExchange() = default;
  // Opens sub-window `sub` (numbered from 0 in each run_until) on `shard`,
  // before the shard runs it: schedules onto the shard's engine everything
  // the other shards posted to it during sub-window `sub − 2` (nothing for
  // sub < 2), and directs what `shard` posts from now on to sub-window
  // `sub`. Everything scheduled must lie at or beyond `start`, the
  // sub-window's first instant — the conservative lookahead contract. The
  // engine guarantees that every shard has finished `sub − 2` and that no
  // shard has started `sub + 2`.
  virtual void open(unsigned shard, std::uint64_t sub, SimTime start) = 0;
  // The earliest arrival time `shard` posted since its last open(), or
  // Engine::kNever. Feeds the idle-gap skip.
  [[nodiscard]] virtual SimTime earliest_posted(unsigned shard) const = 0;
  // Called once at the start of every run_until, before any worker runs:
  // schedules every datagram still in a mailbox (posted in the previous
  // call's last two sub-windows, or between calls) onto its destination
  // shard. Each lies at or beyond `now`, the engine's frontier.
  virtual void flush(SimTime now) = 0;
  // Minimum cross-shard propagation delay L; the engine's sub-window is
  // ⌊L/2⌋. Must be at least 2 ns; may change between run_until calls.
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
  // The lookahead L the next run_until uses (it runs sub-windows of L/2):
  // the exchange's lookahead, or unbounded (one sub-window per run_until)
  // when no exchange is registered.
  [[nodiscard]] Duration window() const {
    return exchange_ != nullptr ? exchange_->lookahead() : Duration{Engine::kNever.ns};
  }

  // The synchronized frontier: every shard has run to at least here.
  [[nodiscard]] SimTime now() const { return frontier_; }

  void set_exchange(ShardExchange* x) { exchange_ = x; }

  // -- telemetry (optional; dark by default) -------------------------------
  // When armed, the loop feeds per-shard counters — events/sub-window,
  // executed and idle-skipped sub-windows, a load-imbalance gauge, and the
  // time workers spend waiting for other shards' progress — into the
  // registry. Counters are written only by each shard's owning worker and
  // read only at points the progress counters order after those writes, so
  // arming adds zero engine events and zero RNG draws: an armed run is
  // bit-identical to a dark one (the digest tests pin this).
  // set_telemetry() registers the counters; call it before the registry's
  // freeze().
  struct Telemetry {
    obs::Counters* counters{nullptr};
    // Snapshot cadence in executed sub-windows; 0 disables snapshots. After
    // a snapshot sub-window every other worker parks until worker 0 has
    // seen every shard finish it, refreshed the imbalance gauge and run
    // on_snapshot.
    std::uint64_t snapshot_every_windows{0};
    // Runs on worker 0 with every other worker parked: all shard state is
    // happens-before-visible and safe to read. Must not schedule engine
    // events (that would break the determinism digest).
    std::function<void(SimTime window_end)> on_snapshot;
  };
  void set_telemetry(Telemetry tel);

  // Advances every shard to `horizon`, with the lookahead read from
  // window() once at the start of the call. With one shard the result is
  // exactly Engine::run_until on the lone shard.
  void run_until(SimTime horizon);

  [[nodiscard]] std::uint64_t events_executed() const;
  [[nodiscard]] std::size_t events_pending() const;

 private:
  struct TelemetryIds {
    obs::Counters::Id events;         // kSum, per shard
    obs::Counters::Id windows;        // kMax (every shard runs every sub-window)
    obs::Counters::Id idle_windows;   // kSum, recorded into shard 0
    obs::Counters::Id idle_ns;        // kSum, recorded into shard 0
    obs::Counters::Id imbalance;      // kMax, permille of max/mean shard events
    obs::Counters::Id waits;          // kSum, per worker: progress checks
    obs::Counters::Id wait_yields;    // kSum: yields after a spin burst
    obs::Counters::Id wait_ns;        // kSum: total ns spent waiting
    obs::Counters::HistId wait_hist;  // per-check wait time
  };

  // Per-worker accounting of the time spent waiting for other shards'
  // progress. Strictly thread-local: each worker fills its own instance
  // and the owner folds them after the workers have joined.
  struct alignas(64) WaitStats {
    std::uint64_t waits{0};    // progress checks (satisfied or not)
    std::uint64_t yields{0};   // sched_yield calls, one per kSpinLimit polls
    std::uint64_t wait_ns{0};  // total wall time spent waiting
    // log2 wait-time buckets: bucket b counts waits in [2^(b-1), 2^b) ns.
    std::array<std::uint64_t, 32> wait_ns_buckets{};
  };

  // One shard's published progress, on its own cache line. `done` counts
  // the sub-windows the shard has finished in this run_until; the release
  // store that bumps it publishes everything the shard wrote during the
  // sub-window (its mailbox slot, its counter bank, `next_ns`). next_ns is
  // a ring by sub-window mod 4: the earliest time the shard can next act
  // after finishing that sub-window. A reader at sub-window n reads slot
  // n−2 while the writer is at most at n+1, so the four slots never alias.
  struct alignas(64) Progress {
    std::atomic<std::uint64_t> done{0};
    std::array<std::int64_t, 4> next_ns{};
    // Earliest arrival posted in the shard's previous sub-window; owner only.
    std::int64_t posted_prev_ns{Engine::kNever.ns};
  };

  void run_subwindows(SimTime start, SimTime horizon, std::int64_t g, unsigned workers);
  // Blocks until every shard has finished at least `n` sub-windows. `seen`
  // is the worker's cached lower bound of that minimum.
  void wait_for_progress(std::uint64_t n, std::uint64_t& seen, WaitStats* ws) const;
  void wait_for_gate(std::uint64_t n, WaitStats* ws) const;
  // Spins, then yields, until ready() holds; ready() does the acquire loads.
  template <typename Ready>
  static void spin_until(Ready ready, WaitStats* ws);
  // Jumps `from` forward on its g-grid to the edge at or before the earlier
  // of `earliest` and the last instant before `horizon`; `from` itself when
  // something can happen at or before it.
  [[nodiscard]] static std::int64_t skip_idle(std::int64_t from, std::int64_t earliest,
                                              std::int64_t horizon, std::int64_t g);
  void note_idle(std::int64_t from, std::int64_t to, std::int64_t g);
  void snapshot_tick(SimTime window_end);
  void fold_wait_stats(unsigned workers);

  Config cfg_;
  std::vector<std::unique_ptr<Engine>> shards_;
  std::unique_ptr<Progress[]> progress_;
  // Snapshot rendezvous: worker 0 stores the number of sub-windows run so
  // far once its snapshot is done; the other workers wait for it.
  alignas(64) std::atomic<std::uint64_t> snapshot_gate_{0};
  ShardExchange* exchange_{nullptr};
  SimTime frontier_{};

  Telemetry tel_;
  TelemetryIds tel_ids_;
  // Per-shard events_executed at the last sub-window accounting / snapshot.
  // Written only by the shard's owner (fixed s ≡ worker mod workers
  // assignment) resp. worker 0 while the others are parked.
  std::vector<std::uint64_t> tel_prev_events_;
  std::vector<std::uint64_t> tel_snap_events_;
  // Per-worker wait stats, folded into the registry after the join.
  std::vector<WaitStats> tel_wait_;
};

}  // namespace stank::sim
