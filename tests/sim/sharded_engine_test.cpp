// ShardedEngine: K independent event queues advanced in conservative
// sub-windows. These tests pin the determinism contract — K=1 reproduces the
// serial engine exactly, and a fixed (schedule, K) executes identically at
// every worker-thread count — plus the sub-window mechanics (exchange opens
// in order, idle-gap skipping, resumable horizons).
#include "sim/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/counters.hpp"
#include "sim/engine.hpp"

namespace stank::sim {
namespace {

using Log = std::vector<std::pair<std::int64_t, int>>;  // (time ns, tag)

// Builds the same moderately tangled schedule on any engine: co-timed
// events, nested scheduling from callbacks, and a cancelled timer.
void build_schedule(Engine& eng, Log& log) {
  Engine* e = &eng;  // callbacks outlive this function's parameters
  e->schedule_at(SimTime{100}, [&log, e]() {
    log.emplace_back(e->now().ns, 1);
    e->schedule_after(Duration{50}, [&log, e]() { log.emplace_back(e->now().ns, 2); });
  });
  e->schedule_at(SimTime{100}, [&log, e]() { log.emplace_back(e->now().ns, 3); });
  const TimerId doomed = e->schedule_at(SimTime{120}, [&log, e]() {
    log.emplace_back(e->now().ns, 99);  // must never run
  });
  e->schedule_at(SimTime{110}, [&log, e, doomed]() {
    log.emplace_back(e->now().ns, 4);
    e->cancel(doomed);
  });
  e->schedule_at(SimTime{5'000'000}, [&log, e]() { log.emplace_back(e->now().ns, 5); });
}

// Exchange double: declares a fixed lookahead (twice the engine's
// sub-window), posts nothing, and records every (shard, sub-window, start)
// open() and every flush().
class CountingExchange final : public ShardExchange {
 public:
  CountingExchange(unsigned shards, Duration lookahead)
      : opens_(shards), lookahead_(lookahead) {}
  void open(unsigned shard, std::uint64_t sub, SimTime start) override {
    // Called from the worker that owns the shard; per-shard vectors make
    // the recording race-free by construction, like the engine's own state.
    opens_[shard].emplace_back(sub, start.ns);
  }
  [[nodiscard]] SimTime earliest_posted(unsigned) const override { return Engine::kNever; }
  void flush(SimTime now) override { flushes_.push_back(now.ns); }
  [[nodiscard]] Duration lookahead() const override { return lookahead_; }
  // Sub-window start times opened on shard s, in order.
  [[nodiscard]] std::vector<std::int64_t> starts(unsigned s) const {
    std::vector<std::int64_t> out;
    for (const auto& [sub, start] : opens_[s]) out.push_back(start);
    return out;
  }
  [[nodiscard]] const std::vector<std::pair<std::uint64_t, std::int64_t>>& opens(unsigned s) const {
    return opens_[s];
  }
  [[nodiscard]] const std::vector<std::int64_t>& flushes() const { return flushes_; }

 private:
  std::vector<std::vector<std::pair<std::uint64_t, std::int64_t>>> opens_;
  std::vector<std::int64_t> flushes_;
  Duration lookahead_;
};

TEST(ShardedEngine, K1MatchesSerialEngine) {
  Log serial_log;
  Engine serial;
  build_schedule(serial, serial_log);
  serial.run_until(SimTime{10'000'000});

  Log sharded_log;
  ShardedEngine::Config cfg;
  cfg.shards = 1;
  ShardedEngine sharded(cfg);
  build_schedule(sharded.shard(0), sharded_log);
  sharded.run_until(SimTime{10'000'000});

  EXPECT_EQ(serial_log, sharded_log);
  EXPECT_EQ(serial.events_executed(), sharded.events_executed());
  EXPECT_EQ(sharded.now().ns, 10'000'000);
  EXPECT_EQ(sharded.shard(0).now().ns, 10'000'000);
}

TEST(ShardedEngine, ThreadCountDoesNotChangeExecution) {
  // The same 4-shard schedule must produce identical per-shard logs whether
  // the windows run on 1, 2, or 8 worker threads.
  std::vector<std::vector<Log>> runs;
  for (unsigned threads : {1u, 2u, 8u}) {
    ShardedEngine::Config cfg;
    cfg.shards = 4;
    cfg.threads = threads;
    ShardedEngine eng(cfg);
    // A 30ns lookahead cuts the schedule into many windows.
    CountingExchange ex(cfg.shards, Duration{30});
    eng.set_exchange(&ex);
    std::vector<Log> logs(cfg.shards);
    for (unsigned s = 0; s < cfg.shards; ++s) {
      build_schedule(eng.shard(s), logs[s]);
      // Skew each shard a little so windows are not all in lockstep.
      eng.shard(s).schedule_at(SimTime{200 + s * 7}, [&log = logs[s], &e = eng.shard(s)]() {
        log.emplace_back(e.now().ns, 6);
      });
    }
    eng.run_until(SimTime{10'000'000});
    EXPECT_EQ(eng.events_executed(), 6u * cfg.shards);
    runs.push_back(std::move(logs));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(ShardedEngine, IdleGapsAreSkippedWithoutLosingEvents) {
  // Two events five simulated seconds apart on different shards, under the
  // ControlNet's 200us lookahead (100us sub-windows): without the
  // deterministic idle-skip this is 60,000 exchange rounds; with it, five —
  // the event's sub-window and the one after it (the skip decision for n
  // reads sub-window n−2), for each event, plus the one that ends on the
  // horizon. Correctness check: both fire, at their exact times, and every
  // shard clock reaches the horizon.
  ShardedEngine::Config cfg;
  cfg.shards = 2;
  cfg.threads = 2;
  ShardedEngine eng(cfg);
  CountingExchange ex(cfg.shards, micros(200));
  eng.set_exchange(&ex);
  obs::Counters ctr;
  ShardedEngine::Telemetry tel;
  tel.counters = &ctr;
  eng.set_telemetry(std::move(tel));
  ctr.freeze(cfg.shards);
  Log log0;
  Log log1;
  eng.shard(0).schedule_at(SimTime{1'000}, [&]() { log0.emplace_back(eng.shard(0).now().ns, 1); });
  eng.shard(1).schedule_at(SimTime{5'000'000'000}, [&]() {
    log1.emplace_back(eng.shard(1).now().ns, 2);
  });
  eng.run_until(SimTime{6'000'000'000});
  ASSERT_EQ(log0.size(), 1u);
  ASSERT_EQ(log1.size(), 1u);
  EXPECT_EQ(log0[0].first, 1'000);
  EXPECT_EQ(log1[0].first, 5'000'000'000);
  EXPECT_EQ(eng.shard(0).now().ns, 6'000'000'000);
  EXPECT_EQ(eng.shard(1).now().ns, 6'000'000'000);
  const std::vector<std::int64_t> want = {0, 100'000, 5'000'000'000, 5'000'100'000,
                                          5'999'900'000};
  EXPECT_EQ(ex.starts(0), want);
  EXPECT_EQ(ex.starts(1), want);
  EXPECT_EQ(ex.flushes(), (std::vector<std::int64_t>{0}));
  // Every 100us step of the 6 s is either run or skipped, never both.
  EXPECT_EQ(ctr.merged(ctr.find("engine.windows")), 5u);
  EXPECT_EQ(ctr.merged(ctr.find("engine.idle_windows")), 60'000u - 5u);
}

TEST(ShardedEngine, RunUntilIsResumable) {
  ShardedEngine::Config cfg;
  cfg.shards = 2;
  cfg.threads = 2;
  ShardedEngine eng(cfg);
  int early = 0;
  int late = 0;
  eng.shard(0).schedule_at(SimTime{500}, [&]() { ++early; });
  eng.shard(1).schedule_at(SimTime{2'000'000}, [&]() { ++late; });
  eng.run_until(SimTime{1'000'000});
  EXPECT_EQ(early, 1);
  EXPECT_EQ(late, 0);
  EXPECT_EQ(eng.now().ns, 1'000'000);
  eng.run_until(SimTime{3'000'000});
  EXPECT_EQ(late, 1);
  EXPECT_EQ(eng.now().ns, 3'000'000);
  // A horizon at or behind the frontier is a no-op.
  eng.run_until(SimTime{1'000'000});
  EXPECT_EQ(eng.now().ns, 3'000'000);
}

TEST(ShardedEngine, ExchangeRunsOncePerShardPerWindowInOrder) {
  ShardedEngine::Config cfg;
  cfg.shards = 3;
  cfg.threads = 2;
  ShardedEngine eng(cfg);
  CountingExchange ex(cfg.shards, micros(10));
  eng.set_exchange(&ex);
  // Keep one shard busy so sub-windows actually execute.
  for (int i = 0; i < 50; ++i) {
    eng.shard(0).schedule_at(SimTime{i * 1'000}, []() {});
  }
  eng.run_until(SimTime{100'000});
  for (unsigned s = 0; s < cfg.shards; ++s) {
    const auto& opens = ex.opens(s);
    ASSERT_FALSE(opens.empty());
    for (std::size_t i = 0; i < opens.size(); ++i) {
      EXPECT_EQ(opens[i].first, i) << "sub-windows open once each, in order";
      if (i > 0) {
        EXPECT_LT(opens[i - 1].second, opens[i].second)
            << "sub-window starts must be strictly increasing";
      }
    }
    // Every shard sees the same sub-window schedule.
    EXPECT_EQ(opens, ex.opens(0));
  }
  // Events every 1us up to 49us, 5us sub-windows: the busy stretch runs on
  // the 5us grid up to the sub-window holding the last event (45us) and the
  // one after it; then the skip, which reads sub-window n−2, jumps to the
  // one that ends on the horizon.
  std::vector<std::int64_t> want;
  for (std::int64_t t = 0; t <= 50'000; t += 5'000) want.push_back(t);
  want.push_back(95'000);
  EXPECT_EQ(ex.starts(0), want);
  EXPECT_EQ(ex.flushes(), (std::vector<std::int64_t>{0}));
  eng.set_exchange(nullptr);
}

// Armed telemetry books every executed event against the shard that ran it,
// one shard included (its sub-window loop books its own events): merged
// "engine.events" must equal events_executed() exactly, per-shard values must
// sum to it, and the snapshot hook must fire on worker 0 with every other
// worker parked (we can only observe that it fires with a consistent
// counter view).
TEST(ShardedEngine, TelemetryCountersMatchEventsExecuted) {
  for (unsigned shards : {1u, 4u}) {
    for (unsigned threads : {1u, 2u, 4u}) {
      ShardedEngine::Config cfg;
      cfg.shards = shards;
      cfg.threads = threads;
      ShardedEngine eng(cfg);
      // The 8-sub-window snapshot cadence needs sub-windows much shorter
      // than the 1ms chain: a 10us lookahead gives about two hundred.
      CountingExchange ex(cfg.shards, micros(10));
      eng.set_exchange(&ex);

      obs::Counters ctr;
      int snapshots = 0;
      ShardedEngine::Telemetry tel;
      tel.counters = &ctr;
      tel.snapshot_every_windows = 8;
      tel.on_snapshot = [&snapshots](SimTime) { ++snapshots; };
      eng.set_telemetry(std::move(tel));
      ctr.freeze(cfg.shards);

      // Uneven load: shard 0 runs a self-rescheduling chain, others get one
      // event each, so per-shard attribution is distinguishable.
      struct Chain {
        Engine* e;
        int left{200};
        void tick() {
          if (left-- <= 0) return;
          e->schedule_after(Duration{5'000}, [this]() { tick(); });
        }
      };
      Chain chain{&eng.shard(0)};
      eng.shard(0).schedule_at(SimTime{1}, [&chain]() { chain.tick(); });
      for (unsigned s = 1; s < cfg.shards; ++s) {
        eng.shard(s).schedule_at(SimTime{10 + s}, []() {});
      }
      eng.run_until(SimTime{5'000'000});

      const obs::Counters::Id ev = ctr.find("engine.events");
      ASSERT_TRUE(ev.valid());
      EXPECT_EQ(ctr.merged(ev), eng.events_executed())
          << "shards=" << shards << " threads=" << threads;
      std::uint64_t per_shard_sum = 0;
      for (unsigned s = 0; s < cfg.shards; ++s) per_shard_sum += ctr.value(s, ev);
      EXPECT_EQ(per_shard_sum, eng.events_executed());
      if (shards > 1) {
        EXPECT_GT(ctr.value(0, ev), ctr.value(1, ev)) << "chain shard must dominate";
      }
      EXPECT_GT(snapshots, 0) << "snapshot hook should fire on the 8-sub-window cadence";

      const obs::Counters::Id win = ctr.find("engine.windows");
      ASSERT_TRUE(win.valid());
      EXPECT_GT(ctr.merged(win), 0u);
    }
  }
}

// Without an exchange the shards cannot interact, so nothing bounds the
// sub-window: each run_until is exactly one, however far apart its events
// lie.
TEST(ShardedEngine, NoExchangeRunsOneWindowPerRunUntil) {
  ShardedEngine::Config cfg;
  cfg.shards = 4;
  cfg.threads = 4;
  ShardedEngine eng(cfg);
  EXPECT_EQ(eng.window().ns, Engine::kNever.ns);
  obs::Counters ctr;
  ShardedEngine::Telemetry tel;
  tel.counters = &ctr;
  eng.set_telemetry(std::move(tel));
  ctr.freeze(cfg.shards);
  const obs::Counters::Id win = ctr.find("engine.windows");
  std::vector<int> fired(cfg.shards, 0);  // per shard: workers never share a slot
  for (unsigned s = 0; s < cfg.shards; ++s) {
    eng.shard(s).schedule_at(SimTime{1'000 + s}, [&fired, s]() { ++fired[s]; });
    eng.shard(s).schedule_at(SimTime{3'000'000'000 + s}, [&fired, s]() { ++fired[s]; });
  }
  eng.run_until(SimTime{2'000'000'000});
  EXPECT_EQ(ctr.merged(win), 1u);
  EXPECT_EQ(fired, std::vector<int>(cfg.shards, 1));
  eng.run_until(SimTime{4'000'000'000});
  EXPECT_EQ(ctr.merged(win), 2u);
  EXPECT_EQ(fired, std::vector<int>(cfg.shards, 2));
  EXPECT_EQ(ctr.merged(ctr.find("engine.idle_windows")), 0u);
}

TEST(ShardedEngine, CountsAggregateAcrossShards) {
  ShardedEngine::Config cfg;
  cfg.shards = 4;
  cfg.threads = 1;
  ShardedEngine eng(cfg);
  for (unsigned s = 0; s < cfg.shards; ++s) {
    eng.shard(s).schedule_at(SimTime{10 + s}, []() {});
    eng.shard(s).schedule_at(SimTime{20'000'000 + s}, []() {});
  }
  EXPECT_EQ(eng.events_pending(), 8u);
  eng.run_until(SimTime{1'000'000});
  EXPECT_EQ(eng.events_executed(), 4u);
  EXPECT_EQ(eng.events_pending(), 4u);
}

}  // namespace
}  // namespace stank::sim
