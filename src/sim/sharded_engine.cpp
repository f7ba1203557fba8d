#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "rt/barrier.hpp"
#include "rt/parallel.hpp"

namespace stank::sim {

ShardedEngine::ShardedEngine(Config cfg) : cfg_(cfg) {
  STANK_ASSERT_MSG(cfg.shards >= 1, "need at least one shard");
  shards_.reserve(cfg.shards);
  for (unsigned s = 0; s < cfg.shards; ++s) {
    shards_.push_back(std::make_unique<Engine>());
  }
  next_event_ns_.assign(cfg.shards, Engine::kNever.ns);
}

std::uint64_t ShardedEngine::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& e : shards_) total += e->events_executed();
  return total;
}

std::size_t ShardedEngine::events_pending() const {
  std::size_t total = 0;
  for (const auto& e : shards_) total += e->events_pending();
  return total;
}

void ShardedEngine::set_telemetry(Telemetry tel) {
  tel_ = std::move(tel);
  if (tel_.counters == nullptr) return;
  obs::Counters& c = *tel_.counters;
  STANK_ASSERT_MSG(!c.frozen(), "set_telemetry registers counters; call before freeze()");
  tel_ids_.events = c.add("engine.events");
  tel_ids_.windows = c.add("engine.windows", obs::Counters::Merge::kMax);
  tel_ids_.idle_windows = c.add("engine.idle_windows");
  tel_ids_.idle_ns = c.add("engine.idle_ns");
  tel_ids_.imbalance = c.add("engine.imbalance_permille", obs::Counters::Merge::kMax);
  tel_ids_.barrier_waits = c.add("barrier.waits");
  tel_ids_.barrier_last = c.add("barrier.last_arrivals");
  tel_ids_.barrier_spins = c.add("barrier.spin_rounds");
  tel_ids_.barrier_yields = c.add("barrier.yields");
  tel_ids_.barrier_wait_ns = c.add("barrier.wait_ns_total");
  tel_ids_.barrier_wait_hist = c.add_hist("barrier.wait_ns");
  tel_prev_events_.resize(shard_count());
  tel_snap_events_.resize(shard_count());
  for (unsigned s = 0; s < shard_count(); ++s) {
    tel_prev_events_[s] = shards_[s]->events_executed();
    tel_snap_events_[s] = tel_prev_events_[s];
  }
  tel_wait_.assign(shard_count(), rt::Barrier::WaitStats{});
}

void ShardedEngine::run_until(SimTime horizon) {
  if (horizon <= frontier_) return;
  unsigned workers = cfg_.threads != 0 ? cfg_.threads : std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  workers = std::min<unsigned>(workers, shard_count());
  const std::int64_t w = std::min(window().ns, horizon.ns - frontier_.ns);
  STANK_ASSERT_MSG(w > 0, "exchange lookahead must be positive");
  run_windows(horizon, w, workers);
  frontier_ = horizon;
}

void ShardedEngine::run_windows(SimTime horizon, std::int64_t w, unsigned workers) {
  const unsigned k = shard_count();
  obs::Counters* const ctr = tel_.counters;
  const std::uint64_t snap_every = ctr != nullptr ? tel_.snapshot_every_windows : 0;
  rt::Barrier barrier(workers);
  // Every worker executes the identical window loop over its own shard
  // subset (s ≡ worker mod workers, a fixed assignment); all control-flow
  // decisions below are functions of barrier-synchronized shared state, so
  // every worker takes the same branches in lockstep.
  rt::parallel_for(
      workers,
      [&](std::size_t worker) {
        // Null when dark: every barrier crossing below stays the original
        // untimed path, and every counter site is one untaken branch.
        rt::Barrier::WaitStats* const ws =
            ctr != nullptr ? &tel_wait_[worker] : nullptr;
        std::uint64_t windows_run = 0;
        SimTime base = frontier_;
        while (base < horizon) {
          const SimTime wend{std::min(base.ns + w, horizon.ns)};
          // Phase 1: run the window. Shard-local by construction, so the
          // events/window accounting (a delta of the shard-private
          // events_executed counter into the shard's own bank) is too.
          for (unsigned s = static_cast<unsigned>(worker); s < k; s += workers) {
            shards_[s]->run_until(wend);
            if (ctr != nullptr) {
              const std::uint64_t ex = shards_[s]->events_executed();
              ctr->add_to(s, tel_ids_.events, ex - tel_prev_events_[s]);
              tel_prev_events_[s] = ex;
              ctr->add_to(s, tel_ids_.windows, 1);
            }
          }
          barrier.arrive_and_wait(ws);
          // Phase 2: exchange. Each worker injects the cross-shard traffic
          // destined for its own shards (SPSC mailbox drain), then publishes
          // the shard's next pending-event time for the skip decision.
          for (unsigned s = static_cast<unsigned>(worker); s < k; s += workers) {
            if (exchange_ != nullptr) exchange_->deliver(s, wend);
            next_event_ns_[s] = shards_[s]->next_event_time().ns;
          }
          barrier.arrive_and_wait(ws);
          // Phase 3: all workers compute the same skip from the same array.
          std::int64_t earliest = Engine::kNever.ns;
          for (unsigned s = 0; s < k; ++s) earliest = std::min(earliest, next_event_ns_[s]);
          if (earliest > wend.ns) {
            // No shard has work before `earliest`: jump the base over the
            // idle gap, landing on the window-grid edge at or before the
            // earlier of next-event and horizon (the clamp keeps kNever
            // finite and the grid aligned).
            const std::int64_t target = std::min(earliest, horizon.ns);
            const std::int64_t skip = (target - wend.ns) / w;
            base = SimTime{wend.ns + skip * w};
            // Worker 0 owns shard 0's bank here; no other worker touches it
            // between the phase-2 barrier and the next phase-1 barrier.
            if (ctr != nullptr && worker == 0 && skip > 0) {
              ctr->add_to(0, tel_ids_.idle_windows, static_cast<std::uint64_t>(skip));
              ctr->add_to(0, tel_ids_.idle_ns, static_cast<std::uint64_t>(skip * w));
            }
          } else {
            base = wend;
          }
          ++windows_run;
          // Snapshot windows: one extra rendezvous pair, identical decision
          // on every worker (windows_run advances in lockstep). Worker 0
          // reads all banks between the barriers; everyone else is parked.
          if (snap_every != 0 && windows_run % snap_every == 0) {
            barrier.arrive_and_wait(ws);
            if (worker == 0) snapshot_tick(wend);
            barrier.arrive_and_wait(ws);
          }
        }
        // The loop can exit with shard clocks short of the horizon (drained
        // queues, or a skip that landed exactly on it). A serial run_until
        // advances an idle engine's clock to the horizon — and runs events
        // scheduled exactly at it — so do the same per shard. Anything these
        // events send cross-shard arrives past the horizon and waits in its
        // mailbox for the next run.
        for (unsigned s = static_cast<unsigned>(worker); s < k; s += workers) {
          shards_[s]->run_until(horizon);
          if (ctr != nullptr) {
            const std::uint64_t ex = shards_[s]->events_executed();
            ctr->add_to(s, tel_ids_.events, ex - tel_prev_events_[s]);
            tel_prev_events_[s] = ex;
          }
        }
      },
      workers);
  if (ctr != nullptr) fold_wait_stats(workers);
}

// Worker 0 only, between the snapshot barriers: every other worker is
// parked, so cross-bank reads are race-free (the barrier's acq_rel
// rendezvous published their writes).
void ShardedEngine::snapshot_tick(SimTime window_end) {
  obs::Counters& c = *tel_.counters;
  const unsigned k = shard_count();
  std::uint64_t max_d = 0;
  std::uint64_t total = 0;
  for (unsigned s = 0; s < k; ++s) {
    const std::uint64_t cur = c.value(s, tel_ids_.events);
    const std::uint64_t d = cur - tel_snap_events_[s];
    tel_snap_events_[s] = cur;
    max_d = std::max(max_d, d);
    total += d;
  }
  if (total > 0) {
    const double mean = static_cast<double>(total) / static_cast<double>(k);
    c.gauge_max(0, tel_ids_.imbalance,
                static_cast<std::uint64_t>(1000.0 * static_cast<double>(max_d) / mean));
  }
  if (tel_.on_snapshot) tel_.on_snapshot(window_end);
}

// After the parallel_for join: the workers are gone, their WaitStats are
// plain memory owned by this (the caller's) thread.
void ShardedEngine::fold_wait_stats(unsigned workers) {
  obs::Counters& c = *tel_.counters;
  for (unsigned wk = 0; wk < workers; ++wk) {
    rt::Barrier::WaitStats& ws = tel_wait_[wk];
    c.add_to(wk, tel_ids_.barrier_waits, ws.waits);
    c.add_to(wk, tel_ids_.barrier_last, ws.last_arrivals);
    c.add_to(wk, tel_ids_.barrier_spins, ws.spin_rounds);
    c.add_to(wk, tel_ids_.barrier_yields, ws.yields);
    c.add_to(wk, tel_ids_.barrier_wait_ns, ws.wait_ns);
    for (unsigned b = 0; b < ws.wait_ns_buckets.size(); ++b) {
      if (ws.wait_ns_buckets[b] != 0) {
        c.add_hist_count(wk, tel_ids_.barrier_wait_hist, b, ws.wait_ns_buckets[b]);
      }
    }
    ws.reset();
  }
}

}  // namespace stank::sim
