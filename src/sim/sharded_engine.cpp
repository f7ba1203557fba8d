#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "rt/parallel.hpp"

namespace stank::sim {

namespace {

// Polls before each yield. At dense event rates the awaited shard finishes
// within a microsecond, so spinning a little is cheaper than a scheduler
// round trip; yielding after that keeps an oversubscribed machine (more
// workers than cores) from burning whole quanta.
constexpr std::uint32_t kSpinLimit = 4096;

}  // namespace

ShardedEngine::ShardedEngine(Config cfg)
    : cfg_(cfg), progress_(std::make_unique<Progress[]>(cfg.shards)) {
  STANK_ASSERT_MSG(cfg.shards >= 1, "need at least one shard");
  shards_.reserve(cfg.shards);
  for (unsigned s = 0; s < cfg.shards; ++s) {
    shards_.push_back(std::make_unique<Engine>());
  }
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
  // The barrier.* names predate the progress counters; they now measure
  // the time a worker waits for other shards' progress.
  tel_ids_.waits = c.add("barrier.waits");
  tel_ids_.wait_yields = c.add("barrier.yields");
  tel_ids_.wait_ns = c.add("barrier.wait_ns_total");
  tel_ids_.wait_hist = c.add_hist("barrier.wait_ns");
  tel_prev_events_.resize(shard_count());
  tel_snap_events_.resize(shard_count());
  for (unsigned s = 0; s < shard_count(); ++s) {
    tel_prev_events_[s] = shards_[s]->events_executed();
    tel_snap_events_[s] = tel_prev_events_[s];
  }
  tel_wait_.assign(shard_count(), WaitStats{});
}

void ShardedEngine::run_until(SimTime horizon) {
  if (horizon <= frontier_) return;
  unsigned workers = cfg_.threads != 0 ? cfg_.threads : std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  workers = std::min<unsigned>(workers, shard_count());
  const std::int64_t g = window().ns / 2;
  STANK_ASSERT_MSG(g > 0, "exchange lookahead must be at least 2 ns");
  // No worker is running: take in what the last call's final sub-windows
  // (or the caller, between calls) left in the mailboxes, then start at the
  // first sub-window edge that can have work.
  if (exchange_ != nullptr) exchange_->flush(frontier_);
  std::int64_t earliest = Engine::kNever.ns;
  for (auto& e : shards_) earliest = std::min(earliest, e->next_event_time().ns);
  const std::int64_t start = skip_idle(frontier_.ns, earliest, horizon.ns, g);
  note_idle(frontier_.ns, start, g);
  run_subwindows(SimTime{start}, horizon, g, workers);
  frontier_ = horizon;
}

std::int64_t ShardedEngine::skip_idle(std::int64_t from, std::int64_t earliest,
                                      std::int64_t horizon, std::int64_t g) {
  if (earliest <= from) return from;
  // The clamp keeps kNever finite and the last sub-window ending on the
  // horizon, so events exactly at the horizon still run.
  const std::int64_t target = std::min(earliest, horizon - 1);
  return from + (target - from) / g * g;
}

// Shard 0's bank: written by worker 0 inside the loop, or by the caller's
// thread before any worker starts.
void ShardedEngine::note_idle(std::int64_t from, std::int64_t to, std::int64_t g) {
  if (tel_.counters == nullptr || to == from) return;
  tel_.counters->add_to(0, tel_ids_.idle_windows, static_cast<std::uint64_t>((to - from) / g));
  tel_.counters->add_to(0, tel_ids_.idle_ns, static_cast<std::uint64_t>(to - from));
}

void ShardedEngine::run_subwindows(SimTime start0, SimTime horizon, std::int64_t g,
                                   unsigned workers) {
  const unsigned k = shard_count();
  obs::Counters* const ctr = tel_.counters;
  const std::uint64_t snap_every = ctr != nullptr ? tel_.snapshot_every_windows : 0;
  for (unsigned s = 0; s < k; ++s) {
    progress_[s].done.store(0, std::memory_order_relaxed);
    progress_[s].posted_prev_ns = Engine::kNever.ns;
  }
  snapshot_gate_.store(0, std::memory_order_relaxed);
  // Every worker walks the same sub-window sequence over its own shard
  // subset (s ≡ worker mod workers, a fixed assignment). Every decision
  // below — sub-window edges, skips, snapshots, the exit — is a function of
  // published progress state, so all workers take the same branches.
  rt::parallel_for(
      workers,
      [&](std::size_t worker) {
        // Null when dark: every counter site is one untaken branch.
        WaitStats* const ws = ctr != nullptr ? &tel_wait_[worker] : nullptr;
        std::uint64_t seen = 0;
        std::int64_t start = start0.ns;
        for (std::uint64_t n = 0;; ++n) {
          if (n >= 2) {
            // Every shard has finished n−2: their published next-activity
            // times for it decide whether nothing happens before some later
            // edge. If none is at or before end(n−1) = `start`, sub-window
            // n−1 ran nothing anywhere and posted nothing, so the gap up to
            // the earliest of them is idle on every shard.
            wait_for_progress(n - 1, seen, ws);
            std::int64_t earliest = Engine::kNever.ns;
            for (unsigned s = 0; s < k; ++s) {
              earliest = std::min(earliest, progress_[s].next_ns[(n - 2) % 4]);
            }
            const std::int64_t from = start;
            start = skip_idle(from, earliest, horizon.ns, g);
            if (worker == 0) note_idle(from, start, g);
          }
          const std::int64_t end = start + std::min(g, horizon.ns - start);
          for (unsigned s = static_cast<unsigned>(worker); s < k; s += workers) {
            Progress& p = progress_[s];
            Engine& e = *shards_[s];
            if (exchange_ != nullptr) exchange_->open(s, n, SimTime{start});
            e.run_until(SimTime{end});
            // What this shard can still do: its own queue, plus what it
            // posted in this and the previous sub-window, which the
            // destinations take in at n+2 and n+1.
            const std::int64_t posted =
                exchange_ != nullptr ? exchange_->earliest_posted(s).ns : Engine::kNever.ns;
            p.next_ns[n % 4] = std::min({e.next_event_time().ns, posted, p.posted_prev_ns});
            p.posted_prev_ns = posted;
            if (ctr != nullptr) {
              const std::uint64_t ex = e.events_executed();
              ctr->add_to(s, tel_ids_.events, ex - tel_prev_events_[s]);
              tel_prev_events_[s] = ex;
              ctr->add_to(s, tel_ids_.windows, 1);
            }
            p.done.store(n + 1, std::memory_order_release);
          }
          // Snapshot sub-windows: worker 0 waits for every shard to finish
          // this one, reads all banks, then opens the gate the other
          // workers park at. n advances in lockstep, so all agree.
          if (snap_every != 0 && (n + 1) % snap_every == 0) {
            if (worker == 0) {
              wait_for_progress(n + 1, seen, ws);
              snapshot_tick(SimTime{end});
              snapshot_gate_.store(n + 1, std::memory_order_release);
            } else {
              wait_for_gate(n + 1, ws);
            }
          }
          if (end == horizon.ns) break;
          start = end;
        }
      },
      workers);
  if (ctr != nullptr) fold_wait_stats(workers);
}

template <typename Ready>
void ShardedEngine::spin_until(Ready ready, WaitStats* ws) {
  using clock = std::chrono::steady_clock;
  clock::time_point t0;
  if (ws != nullptr) {
    ++ws->waits;
    if (ready()) {
      ++ws->wait_ns_buckets[0];  // satisfied on arrival: no clock reads
      return;
    }
    t0 = clock::now();
  }
  for (std::uint32_t spins = 0; !ready();) {
    if (++spins >= kSpinLimit) {
      if (ws != nullptr) ++ws->yields;
      std::this_thread::yield();
      spins = 0;
    }
  }
  if (ws == nullptr) return;
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0).count());
  ws->wait_ns += ns;
  const auto width = static_cast<std::size_t>(std::bit_width(ns));
  ws->wait_ns_buckets[std::min(width, ws->wait_ns_buckets.size() - 1)] += 1;
}

void ShardedEngine::wait_for_progress(std::uint64_t n, std::uint64_t& seen,
                                      WaitStats* ws) const {
  // The acquire loads pair with each shard's release store of `done`, so
  // everything a shard wrote in a sub-window it has finished is visible.
  // A cached minimum that already covers n was read the same way.
  spin_until(
      [&]() {
        if (seen >= n) return true;
        std::uint64_t low = progress_[0].done.load(std::memory_order_acquire);
        for (unsigned s = 1; s < shard_count() && low >= n; ++s) {
          low = std::min(low, progress_[s].done.load(std::memory_order_acquire));
        }
        if (low >= n) seen = low;
        return low >= n;
      },
      ws);
}

void ShardedEngine::wait_for_gate(std::uint64_t n, WaitStats* ws) const {
  spin_until([&]() { return snapshot_gate_.load(std::memory_order_acquire) >= n; }, ws);
}

// Worker 0 only, with every other worker parked at the snapshot gate and
// every shard's progress acquired: cross-bank reads are race-free.
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
    WaitStats& ws = tel_wait_[wk];
    c.add_to(wk, tel_ids_.waits, ws.waits);
    c.add_to(wk, tel_ids_.wait_yields, ws.yields);
    c.add_to(wk, tel_ids_.wait_ns, ws.wait_ns);
    for (unsigned b = 0; b < ws.wait_ns_buckets.size(); ++b) {
      if (ws.wait_ns_buckets[b] != 0) {
        c.add_hist_count(wk, tel_ids_.wait_hist, b, ws.wait_ns_buckets[b]);
      }
    }
    ws = WaitStats{};
  }
}

}  // namespace stank::sim
