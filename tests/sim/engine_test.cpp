#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <utility>
#include <vector>

namespace stank::sim {
namespace {

TEST(Engine, ExecutesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(SimTime{30}, [&]() { order.push_back(3); });
  e.schedule_at(SimTime{10}, [&]() { order.push_back(1); });
  e.schedule_at(SimTime{20}, [&]() { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now().ns, 30);
}

TEST(Engine, SameTimeFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(SimTime{100}, [&, i]() { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(Engine, EventsMayScheduleEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 5) {
      e.schedule_after(Duration{1}, recurse);
    }
  };
  e.schedule_at(SimTime{0}, recurse);
  e.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(e.now().ns, 4);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  TimerId id = e.schedule_at(SimTime{10}, [&]() { ran = true; });
  EXPECT_TRUE(e.pending(id));
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.pending(id));
  EXPECT_FALSE(e.cancel(id));  // second cancel is a no-op
  e.run();
  EXPECT_FALSE(ran);
}

TEST(Engine, RunUntilStopsAtHorizonInclusive) {
  Engine e;
  std::vector<int> hits;
  e.schedule_at(SimTime{10}, [&]() { hits.push_back(10); });
  e.schedule_at(SimTime{20}, [&]() { hits.push_back(20); });
  e.schedule_at(SimTime{21}, [&]() { hits.push_back(21); });
  e.run_until(SimTime{20});
  EXPECT_EQ(hits, (std::vector<int>{10, 20}));
  EXPECT_EQ(e.now().ns, 20);
  e.run_until(SimTime{30});
  EXPECT_EQ(hits, (std::vector<int>{10, 20, 21}));
  EXPECT_EQ(e.now().ns, 30);  // advances to the horizon even when idle
}

TEST(Engine, StopInterruptsRun) {
  Engine e;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(SimTime{i}, [&]() {
      if (++count == 3) e.stop();
    });
  }
  e.run();
  EXPECT_EQ(count, 3);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.step());
  e.schedule_at(SimTime{1}, []() {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, CountsExecutedAndPending) {
  Engine e;
  e.schedule_at(SimTime{1}, []() {});
  e.schedule_at(SimTime{2}, []() {});
  EXPECT_EQ(e.events_pending(), 2u);
  e.run();
  EXPECT_EQ(e.events_executed(), 2u);
  EXPECT_EQ(e.events_pending(), 0u);
}

TEST(Engine, CancelledEventsDoNotBlockRunUntil) {
  Engine e;
  TimerId id = e.schedule_at(SimTime{5}, []() {});
  e.cancel(id);
  e.run_until(SimTime{10});
  EXPECT_EQ(e.now().ns, 10);
}

TEST(Engine, StopDuringRunUntilLeavesClockAtLastEvent) {
  // A stopped run must NOT advance the clock to the horizon: the caller is
  // abandoning the run mid-way, and jumping time forward would let later
  // schedule_at() calls observe a future they never simulated.
  Engine e;
  e.schedule_at(SimTime{10}, [&]() { e.stop(); });
  e.schedule_at(SimTime{20}, []() {});
  e.run_until(SimTime{100});
  EXPECT_EQ(e.now().ns, 10);
  EXPECT_EQ(e.events_pending(), 1u);
  // Resuming runs the rest and only then advances to the horizon.
  e.run_until(SimTime{100});
  EXPECT_EQ(e.now().ns, 100);
  EXPECT_EQ(e.events_pending(), 0u);
}

TEST(Engine, CancelChurnKeepsQueueMemoryBounded) {
  // The lease keep-alive pattern: a fixed population of timers, each
  // cancelled and re-armed long before it fires. Tombstone compaction must
  // keep the heap O(live timers) no matter how many cancels pass through.
  constexpr std::size_t kLive = 1'000;
  constexpr std::uint64_t kIters = 200'000;
  Engine e;
  std::vector<TimerId> ids(kLive);
  std::int64_t t = 1'000'000;
  for (std::size_t i = 0; i < kLive; ++i) {
    ids[i] = e.schedule_at(SimTime{t + static_cast<std::int64_t>(i)}, []() {});
  }
  std::uint64_t x = 0x243f6a8885a308d3ull;  // deterministic xorshift
  std::size_t max_depth = 0;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const auto k = static_cast<std::size_t>(x % kLive);
    EXPECT_TRUE(e.cancel(ids[k]));
    ++t;
    ids[k] = e.schedule_at(SimTime{t + 1'000'000}, []() {});
    max_depth = std::max(max_depth, e.queue_depth());
  }
  // Compaction fires when tombstones exceed half the heap, so the heap can
  // hold at most ~2x the live timers (plus the small no-compact floor).
  EXPECT_EQ(e.events_pending(), kLive);
  EXPECT_LE(max_depth, 2 * kLive + 65);
  // The queue still drains correctly after heavy churn.
  for (std::size_t i = 0; i < kLive; ++i) {
    EXPECT_TRUE(e.pending(ids[i]));
  }
  e.run();
  EXPECT_EQ(e.events_pending(), 0u);
  EXPECT_EQ(e.queue_depth(), 0u);
  EXPECT_EQ(e.events_executed(), kLive);
}

TEST(Engine, CancelReturnsFalseForStaleIdAfterSlotReuse) {
  Engine e;
  TimerId a = e.schedule_at(SimTime{1}, []() {});
  ASSERT_TRUE(e.cancel(a));
  // The slot is recycled with a new generation; the old id must stay dead.
  TimerId b = e.schedule_at(SimTime{2}, []() {});
  EXPECT_FALSE(e.cancel(a));
  EXPECT_FALSE(e.pending(a));
  EXPECT_TRUE(e.pending(b));
  e.run();
  EXPECT_EQ(e.events_executed(), 1u);
}

TEST(EngineDeathTest, SchedulingInThePastAborts) {
  Engine e;
  e.schedule_at(SimTime{10}, []() {});
  e.run();
  EXPECT_DEATH(e.schedule_at(SimTime{5}, []() {}), "past");
}

TEST(Engine, SelfCancellationInsideEventIsSafe) {
  Engine e;
  // An event cancelling a later event that was already popped as a tombstone.
  TimerId victim{};
  victim = e.schedule_at(SimTime{10}, []() { FAIL() << "should have been cancelled"; });
  e.schedule_at(SimTime{5}, [&]() { e.cancel(victim); });
  e.run();
}

TEST(Engine, CancelChurnOnFarTimersKeepsQueueMemoryBounded) {
  // The same keep-alive pattern one second out, where the timers sit in a
  // far bucket rather than the heap: the bucket's own sweep must bound it.
  constexpr std::size_t kLive = 1'000;
  constexpr std::uint64_t kIters = 200'000;
  Engine e;
  std::vector<TimerId> ids(kLive);
  std::int64_t t = 1'000'000'000;
  for (std::size_t i = 0; i < kLive; ++i) {
    ids[i] = e.schedule_at(SimTime{t + static_cast<std::int64_t>(i)}, []() {});
  }
  std::uint64_t x = 0x13198a2e03707344ull;
  std::size_t max_depth = 0;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const auto k = static_cast<std::size_t>(x % kLive);
    EXPECT_TRUE(e.cancel(ids[k]));
    ++t;
    ids[k] = e.schedule_at(SimTime{t}, []() {});
    max_depth = std::max(max_depth, e.queue_depth());
  }
  EXPECT_EQ(e.events_pending(), kLive);
  EXPECT_LE(max_depth, 2 * kLive + 65);
  e.run();
  EXPECT_EQ(e.queue_depth(), 0u);
  EXPECT_EQ(e.events_executed(), kLive);
}

TEST(Engine, QueueBytesCountsEveryTier) {
  Engine e;
  const std::size_t empty = e.queue_bytes();
  std::vector<TimerId> ids;
  for (std::int64_t i = 0; i < 1'000; ++i) {
    ids.push_back(e.schedule_at(SimTime{i * 7'000'000}, []() {}));  // spans the ring
  }
  ids.push_back(e.schedule_at(SimTime{60'000'000'000}, []() {}));  // beyond its horizon
  EXPECT_GE(e.queue_bytes(), empty + 1'001 * 24);
  for (TimerId id : ids) e.cancel(id);
  EXPECT_EQ(e.queue_depth(), 0u);
}

TEST(Engine, EntriesAtTheRingHorizonKeepTimeOrder) {
  // An event armed exactly at, just before or just after the far ring's
  // horizon, then an earlier one armed after the queue has looked ahead to
  // it: the earlier one must still run first.
  constexpr std::int64_t kHorizon =
      (std::int64_t{1} << Engine::kBucketShift) * Engine::kRingBuckets;
  for (const std::int64_t at : {kHorizon - 1, kHorizon, kHorizon + 1}) {
    SCOPED_TRACE(at);
    Engine e;
    std::vector<int> order;
    e.schedule_at(SimTime{at}, [&]() { order.push_back(2); });
    EXPECT_EQ(e.next_event_time(), SimTime{at});
    e.schedule_at(SimTime{3 << Engine::kBucketShift}, [&]() { order.push_back(1); });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
  }
}

// Differential test against a reference (time, seq) ordering: random
// schedule / cancel / step / run_until / next_event_time traffic, with
// callbacks that schedule, cancel others and cancel themselves. Delays mix
// same-instant ties, times on and beside bucket edges, anywhere in the
// ring, at and beyond its horizon, lease-sized waits up to 10 s and long
// idle gaps. Every event that fires must be the reference's earliest.
class EngineModel {
 public:
  explicit EngineModel(std::uint64_t seed) : rng_(seed) {}

  void run(int ops) {
    for (int i = 0; i < ops && !::testing::Test::HasFailure(); ++i) {
      const std::uint64_t r = rng_() % 100;
      if (r < 40) {
        schedule(pick_delay());
      } else if (r < 65) {
        cancel_random();
      } else if (r < 78) {
        const bool ran = e_.step();
        ASSERT_EQ(ran, fired_before_ + 1 == fired_);
        fired_before_ = fired_;
      } else if (r < 90) {
        run_until(e_.now().ns + pick_delay());
      } else {
        const SimTime want = pending_.empty() ? Engine::kNever : SimTime{pending_.begin()->first.first};
        ASSERT_EQ(e_.next_event_time(), want);
      }
      ASSERT_EQ(e_.events_pending(), pending_.size());
    }
    e_.run();
    EXPECT_TRUE(pending_.empty());
    EXPECT_EQ(e_.events_pending(), 0u);
    EXPECT_EQ(e_.queue_depth(), 0u);
    EXPECT_EQ(e_.next_event_time(), Engine::kNever);
  }

  [[nodiscard]] std::uint64_t fired() const { return fired_; }

 private:
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (time, seq)

  std::int64_t pick_delay() {
    constexpr std::int64_t kWidth = std::int64_t{1} << Engine::kBucketShift;
    constexpr std::int64_t kHorizon = kWidth * Engine::kRingBuckets;
    const std::int64_t now = e_.now().ns;
    const auto u = [this](std::int64_t n) { return static_cast<std::int64_t>(rng_() % n); };
    switch (rng_() % 12) {
      case 0: return 0;  // a tie with everything else at this instant
      case 1: return u(1'000);
      case 2:
      case 3:
      case 4: {  // on a bucket edge, or one either side of it
        const std::int64_t edge = (now / kWidth + 1 + u(4)) * kWidth;
        return edge - now + u(3) - 1;
      }
      case 5:
      case 6: return u(4 * kWidth);  // the next few buckets
      case 7: return 500'000'000 + u(1'000);  // a retransmit timer
      case 8: return u(kHorizon);
      case 9: return kHorizon - kWidth + u(3 * kWidth);  // around the ring's horizon
      case 10: return u(10'000'000'001);  // lease waits up to tau = 10 s
      default: return u(8) == 0 ? 60'000'000'000 + u(1'000) : u(200'000);  // idle gap
    }
  }

  void schedule(std::int64_t delay) {
    const auto tag = static_cast<std::uint32_t>(keys_.size());
    const Key key{e_.now().ns + delay, seq_++};
    keys_.push_back(key);
    ids_.push_back(e_.schedule_at(SimTime{key.first}, [this, tag]() { fire(tag); }));
    pending_.emplace(key, tag);
    pos_.push_back(live_.size());
    live_.push_back(tag);
  }

  void forget(std::uint32_t tag) {
    pending_.erase(keys_[tag]);
    const std::uint32_t last = live_.back();
    live_[pos_[tag]] = last;
    pos_[last] = pos_[tag];
    live_.pop_back();
  }

  void cancel_random() {
    if (live_.empty()) {
      EXPECT_FALSE(e_.cancel(ids_.empty() ? TimerId{0} : ids_[rng_() % ids_.size()]));
      return;
    }
    const std::uint32_t tag = live_[rng_() % live_.size()];
    ASSERT_TRUE(e_.cancel(ids_[tag]));
    EXPECT_FALSE(e_.pending(ids_[tag]));
    forget(tag);
  }

  void run_until(std::int64_t horizon) {
    const std::int64_t before = e_.now().ns;
    e_.run_until(SimTime{horizon});
    fired_before_ = fired_;
    EXPECT_EQ(e_.now().ns, std::max(before, horizon));
    if (!pending_.empty()) {
      EXPECT_GT(pending_.begin()->first.first, horizon);
    }
  }

  void fire(std::uint32_t tag) {
    ASSERT_FALSE(pending_.empty());
    ASSERT_EQ(pending_.begin()->second, tag) << "fired out of (time, seq) order";
    ASSERT_EQ(e_.now().ns, keys_[tag].first);
    EXPECT_FALSE(e_.pending(ids_[tag]));
    forget(tag);
    ++fired_;
    for (std::uint64_t n = rng_() % 3; n > 0; --n) {
      const std::uint64_t r = rng_() % 10;
      if (r < 5) {
        schedule(pick_delay());
      } else if (r < 8) {
        cancel_random();
      } else {
        EXPECT_FALSE(e_.cancel(ids_[tag]));  // self-cancel: already running
      }
    }
  }

  Engine e_;
  std::mt19937_64 rng_;
  std::map<Key, std::uint32_t> pending_;
  std::vector<Key> keys_;       // by tag
  std::vector<TimerId> ids_;    // by tag
  std::vector<std::size_t> pos_;  // by tag: index in live_ while pending
  std::vector<std::uint32_t> live_;
  std::uint64_t seq_{0};
  std::uint64_t fired_{0};
  std::uint64_t fired_before_{0};
};

TEST(Engine, RandomizedTrafficMatchesReferenceOrder) {
  std::uint64_t fired = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    EngineModel m(seed);
    m.run(20'000);
    fired += m.fired();
  }
  EXPECT_GT(fired, 50'000u);  // the traffic really ran events, not only cancels
}

}  // namespace
}  // namespace stank::sim
