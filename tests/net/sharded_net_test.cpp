// ShardedNet: the cross-shard control fabric. Pins the delivery contract —
// cross-shard datagrams arrive at their sampled latency, co-timed arrivals
// drain in (arrival time, source shard, source sequence) order with the
// destination's own traffic first, and none of it depends on the worker
// thread count — plus the bookkeeping: aggregated stats, detached-receiver
// drops, and survival of the engine's queue sweeps under timer churn
// while datagrams are in flight.
#include "net/sharded_net.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sharded_engine.hpp"

namespace stank::net {
namespace {

NetConfig quiet_net() {
  NetConfig cfg;
  cfg.latency = sim::micros(200);
  cfg.jitter = sim::Duration{0};  // exact arrival instants: ties are real ties
  return cfg;
}

struct Fixture {
  sim::ShardedEngine engine;
  ShardedNet net;
  // (from, first payload byte) in delivery order at the receiver, and the
  // receiver shard's clock at each delivery.
  std::vector<std::pair<std::uint32_t, std::uint8_t>> received;
  std::vector<std::int64_t> received_at_ns;
  std::deque<FnReceiver<std::function<void(NodeId, Bytes&)>>> receivers;  // never move

  explicit Fixture(unsigned shards, unsigned threads, NetConfig cfg = quiet_net())
      : engine(make_cfg(shards, threads)), net(engine, sim::Rng(7), cfg) {}

  static sim::ShardedEngine::Config make_cfg(unsigned shards, unsigned threads) {
    sim::ShardedEngine::Config cfg;
    cfg.shards = shards;
    cfg.threads = threads;
    return cfg;
  }

  void listen(NodeId node, unsigned shard) {
    net.place(node, shard);
    attach(shard, node, [this, shard](NodeId from, const Bytes& b) {
      received.emplace_back(from.value(), b.empty() ? 0 : b[0]);
      received_at_ns.push_back(engine.shard(shard).now().ns);
    });
  }

  void attach(unsigned shard, NodeId node, std::function<void(NodeId, Bytes&)> fn) {
    net.shard(shard).attach(node, receivers.emplace_back(std::move(fn)));
  }
};

TEST(ShardedNet, CrossShardDeliveryAtExactLatency) {
  Fixture f(2, 2);
  f.net.place(NodeId{1}, 0);
  f.listen(NodeId{2}, 1);
  f.engine.shard(0).schedule_at(sim::SimTime{0},
                                [&]() { f.net.shard(0).send(NodeId{1}, NodeId{2}, Bytes{42}); });
  f.engine.run_until(sim::SimTime{} + sim::micros(199));
  EXPECT_TRUE(f.received.empty());
  f.engine.run_until(sim::SimTime{} + sim::micros(200));
  ASSERT_EQ(f.received.size(), 1u);
  EXPECT_EQ(f.received[0], (std::pair<std::uint32_t, std::uint8_t>{1u, 42}));
  EXPECT_EQ(f.net.stats().sent, 1u);
  EXPECT_EQ(f.net.stats().delivered, 1u);
}

// The engine's window is the net's latency. set_config may lower the latency
// between runs; the engine must pick the new window up at its next
// run_until. A ping-pong at the new 50us latency would land inside a 200us
// window and trip the per-datagram lookahead assert, so exact arrivals prove
// the narrower window was used.
TEST(ShardedNet, EngineWindowFollowsTheNetLatency) {
  Fixture f(2, 2);
  EXPECT_EQ(f.engine.window(), quiet_net().latency);
  f.net.place(NodeId{1}, 0);
  f.net.place(NodeId{2}, 1);
  f.engine.run_until(sim::SimTime{} + sim::millis(1));
  NetConfig fast = quiet_net();
  fast.latency = sim::micros(50);
  f.net.set_config(fast);
  EXPECT_EQ(f.engine.window(), sim::micros(50));
  f.engine.shard(0).schedule_at(sim::SimTime{} + sim::millis(1) + sim::micros(10), [&]() {
    f.net.shard(0).send(NodeId{1}, NodeId{2}, Bytes{1});
  });
  // Hops alternate shards, so the handlers never run in the same window.
  f.attach(1, NodeId{2}, [&](NodeId, const Bytes& b) {
    f.received_at_ns.push_back(f.engine.shard(1).now().ns);
    const std::uint8_t next = b[0] + 1;
    if (next < 6) f.net.shard(1).send(NodeId{2}, NodeId{1}, Bytes{next});
  });
  f.attach(0, NodeId{1}, [&](NodeId, const Bytes& b) {
    f.received_at_ns.push_back(f.engine.shard(0).now().ns);
    const std::uint8_t next = b[0] + 1;
    f.net.shard(0).send(NodeId{1}, NodeId{2}, Bytes{next});
  });
  f.engine.run_until(sim::SimTime{} + sim::millis(2));
  // Five hops arrive 50us apart, the first 50us after the 1.01ms send.
  EXPECT_EQ(f.received_at_ns,
            (std::vector<std::int64_t>{1'060'000, 1'110'000, 1'160'000, 1'210'000, 1'260'000}));
}

// Zero jitter, sent at the first instant after an idle skip: the engine skips
// [200us, 1ms) and starts the next window exactly at 1ms, so datagrams sent
// there arrive at exactly that window's end (1ms + L). Each is delivered
// once, at send + L, and the drain order is the co-timed contract below at
// every thread count.
TEST(ShardedNet, ArrivalExactlyAtWindowEndAfterIdleSkip) {
  std::vector<std::vector<std::pair<std::uint32_t, std::uint8_t>>> runs;
  for (unsigned threads : {1u, 2u, 4u}) {
    Fixture f(3, threads);
    f.net.place(NodeId{11}, 0);
    f.net.place(NodeId{12}, 1);
    f.net.place(NodeId{13}, 2);
    f.listen(NodeId{10}, 0);
    const sim::SimTime at = sim::SimTime{} + sim::millis(1);
    f.engine.shard(2).schedule_at(at, [&]() {
      f.net.shard(2).send(NodeId{13}, NodeId{10}, Bytes{0});
    });
    f.engine.shard(1).schedule_at(at, [&]() {
      f.net.shard(1).send(NodeId{12}, NodeId{10}, Bytes{0});
      f.net.shard(1).send(NodeId{12}, NodeId{10}, Bytes{1});
    });
    f.engine.shard(0).schedule_at(at, [&]() {
      f.net.shard(0).send(NodeId{11}, NodeId{10}, Bytes{0});
    });
    f.engine.run_until(sim::SimTime{} + sim::millis(3));
    EXPECT_EQ(f.received_at_ns, std::vector<std::int64_t>(4, 1'200'000)) << "threads=" << threads;
    EXPECT_EQ(f.net.stats().delivered, 4u);
    runs.push_back(f.received);
  }
  const std::vector<std::pair<std::uint32_t, std::uint8_t>> want = {
      {11u, 0}, {12u, 0}, {12u, 1}, {13u, 0}};
  EXPECT_EQ(runs[0], want);
  EXPECT_EQ(runs[1], want);
  EXPECT_EQ(runs[2], want);
}

// Five datagrams from three shards, all sent at t=0 with zero jitter, all
// arriving at exactly t=200us. The contract: the receiver's shard-local
// traffic drains first (its sequence numbers predate the injection),
// then source shard 1's datagrams in send order, then source shard 2's.
void run_co_timed(Fixture& f) {
  f.net.place(NodeId{11}, 0);
  f.net.place(NodeId{12}, 1);
  f.net.place(NodeId{13}, 2);
  f.listen(NodeId{10}, 0);
  // Schedule the far shard first: drain order must come from the merge
  // tie-break, never from which shard happened to send first.
  f.engine.shard(2).schedule_at(sim::SimTime{0}, [&]() {
    f.net.shard(2).send(NodeId{13}, NodeId{10}, Bytes{0});
    f.net.shard(2).send(NodeId{13}, NodeId{10}, Bytes{1});
  });
  f.engine.shard(1).schedule_at(sim::SimTime{0}, [&]() {
    f.net.shard(1).send(NodeId{12}, NodeId{10}, Bytes{0});
    f.net.shard(1).send(NodeId{12}, NodeId{10}, Bytes{1});
  });
  f.engine.shard(0).schedule_at(sim::SimTime{0}, [&]() {
    f.net.shard(0).send(NodeId{11}, NodeId{10}, Bytes{0});
  });
  f.engine.run_until(sim::SimTime{} + sim::millis(1));
}

TEST(ShardedNet, CoTimedArrivalsDrainInShardOrder) {
  Fixture f(3, 3);
  run_co_timed(f);
  const std::vector<std::pair<std::uint32_t, std::uint8_t>> want = {
      {11u, 0}, {12u, 0}, {12u, 1}, {13u, 0}, {13u, 1}};
  EXPECT_EQ(f.received, want);
}

TEST(ShardedNet, DrainOrderIdenticalAtEveryThreadCount) {
  std::vector<std::vector<std::pair<std::uint32_t, std::uint8_t>>> runs;
  for (unsigned threads : {1u, 2u, 8u}) {
    Fixture f(3, threads);
    run_co_timed(f);
    runs.push_back(f.received);
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
  EXPECT_EQ(runs[0].size(), 5u);
}

TEST(ShardedNet, TieBreakSurvivesTombstoneCompaction) {
  // While the five datagrams are in flight, hammer the receiver shard's
  // event queue with schedule/cancel churn: 4096 timers land in a far
  // bucket 10 ms out, and cancelling them all sweeps that bucket while the
  // delivery timers are still pending in the heap. The drain order must be
  // exactly what it was without the churn.
  Fixture f(3, 2);
  f.engine.shard(0).schedule_at(sim::SimTime{} + sim::micros(50), [&]() {
    sim::Engine& e = f.engine.shard(0);
    std::vector<sim::TimerId> doomed;
    doomed.reserve(4096);
    for (int i = 0; i < 4096; ++i) {
      doomed.push_back(e.schedule_after(sim::millis(10), []() { FAIL(); }));
    }
    for (sim::TimerId id : doomed) e.cancel(id);
  });
  run_co_timed(f);
  const std::vector<std::pair<std::uint32_t, std::uint8_t>> want = {
      {11u, 0}, {12u, 0}, {12u, 1}, {13u, 0}, {13u, 1}};
  EXPECT_EQ(f.received, want);
}

TEST(ShardedNet, TieBreakSurvivesNearHeapSweep) {
  // The same churn, but 1-400 us out, around the 200 us arrivals: the
  // timers land in the bucket the frontier has reached, so they sit in the
  // near heap beside the delivery timer. Every 64th stays armed as a
  // witness; cancelling the rest rebuilds that heap (dead entries dropped,
  // order restored) while all five deliveries are queued. At 150 us every
  // cross-shard datagram has been taken in. The witnesses must still fire
  // in time order and the deliveries at exactly 200 us.
  Fixture f(3, 2);
  std::size_t depth_before = 0;
  std::size_t depth_after = 0;
  std::vector<std::int64_t> witness_at;
  f.engine.shard(0).schedule_at(sim::SimTime{} + sim::micros(150), [&]() {
    sim::Engine& e = f.engine.shard(0);
    std::vector<sim::TimerId> doomed;
    doomed.reserve(4096);
    for (int i = 0; i < 4096; ++i) {
      const sim::Duration d = sim::micros(1 + i % 400);
      if (i % 64 == 0) {
        e.schedule_after(d, [&]() { witness_at.push_back(e.now().ns); });
      } else {
        doomed.push_back(e.schedule_after(d, []() { FAIL(); }));
      }
    }
    depth_before = e.near_queue_depth();
    for (sim::TimerId id : doomed) e.cancel(id);
    depth_after = e.near_queue_depth();
  });
  run_co_timed(f);
  EXPECT_GE(depth_before, 4096u);
  EXPECT_LT(depth_after, 256u);  // swept, not left for the pops to drop
  EXPECT_EQ(witness_at.size(), 64u);
  EXPECT_TRUE(std::is_sorted(witness_at.begin(), witness_at.end()));
  EXPECT_EQ(f.received_at_ns, std::vector<std::int64_t>(5, 200'000));
  const std::vector<std::pair<std::uint32_t, std::uint8_t>> want = {
      {11u, 0}, {12u, 0}, {12u, 1}, {13u, 0}, {13u, 1}};
  EXPECT_EQ(f.received, want);
}

// Zero jitter, 1 ns buckets and a 200us latency: a three-shard ring started
// at t=0 lands every hop exactly on a sub-window edge (the sub-window is
// 100us), the instant the destination takes it in. Each hop must arrive at
// exactly send + L, at every thread count, with no lookahead assert.
TEST(ShardedNet, ZeroJitterPingPongLandsOnSubWindowEdges) {
  for (unsigned threads : {1u, 2u, 3u}) {
    NetConfig cfg = quiet_net();
    cfg.delivery_bucket = sim::Duration{1};
    Fixture f(3, threads, cfg);
    // Per-node arrival logs: each handler runs only on its own shard.
    std::vector<std::vector<std::int64_t>> at(3);
    for (std::uint32_t i = 0; i < 3; ++i) {
      f.net.place(NodeId{20 + i}, i);
      f.attach(i, NodeId{20 + i}, [&f, &at, i](NodeId, const Bytes& b) {
        at[i].push_back(f.engine.shard(i).now().ns);
        const std::uint8_t hop = b[0] + 1;
        if (hop < 30) f.net.shard(i).send(NodeId{20 + i}, NodeId{20 + (i + 1) % 3}, Bytes{hop});
      });
    }
    f.engine.shard(0).schedule_at(sim::SimTime{0}, [&]() {
      f.net.shard(0).send(NodeId{20}, NodeId{21}, Bytes{0});
    });
    f.engine.run_until(sim::SimTime{} + sim::millis(10));
    // Hop h (0-based) arrives at (h + 1) * 200us on node (h + 1) mod 3.
    for (std::uint32_t i = 0; i < 3; ++i) {
      std::vector<std::int64_t> want;
      for (std::int64_t h = 0; h < 30; ++h) {
        if ((h + 1) % 3 == i) want.push_back((h + 1) * 200'000);
      }
      EXPECT_EQ(at[i], want) << "node " << 20 + i << " threads=" << threads;
    }
    EXPECT_EQ(f.net.stats().delivered, 30u);
  }
}

// Reorder spikes of up to 5ms hold a datagram for as many as fifty
// sub-windows. Every one must still arrive exactly once, no earlier than
// send + L, and the whole receive log must not depend on the thread count.
TEST(ShardedNet, ReorderSpikesSpanningManySubWindows) {
  struct Rx {
    std::int64_t at;
    std::uint32_t from;
    std::uint8_t id;
  };
  std::vector<std::vector<Rx>> runs;
  for (unsigned threads : {1u, 2u, 4u}) {
    NetConfig cfg = quiet_net();
    cfg.reorder_probability = 0.5;
    cfg.reorder_spike = sim::millis(5);
    cfg.delivery_bucket = sim::Duration{1};
    Fixture f(4, threads, cfg);
    std::vector<Rx> got;  // receiver lives on shard 0 only
    f.net.place(NodeId{1}, 0);
    f.attach(0, NodeId{1}, [&](NodeId from, const Bytes& b) {
      got.push_back(Rx{f.engine.shard(0).now().ns, from.value(), b[0]});
    });
    // Senders on shards 1..3 each send one datagram every 100us for 6ms;
    // the payload is the send slot, so the send time is known.
    for (std::uint32_t s = 1; s < 4; ++s) {
      f.net.place(NodeId{10 + s}, s);
      for (std::uint8_t slot = 0; slot < 60; ++slot) {
        f.engine.shard(s).schedule_at(sim::SimTime{slot * 100'000LL}, [&f, s, slot]() {
          f.net.shard(s).send(NodeId{10 + s}, NodeId{1}, Bytes{slot});
        });
      }
    }
    f.engine.run_until(sim::SimTime{} + sim::millis(20));
    EXPECT_GT(f.net.stats().reordered, 30u);
    ASSERT_EQ(got.size(), 180u) << "threads=" << threads;
    std::int64_t max_hold = 0;
    for (const Rx& r : got) {
      const std::int64_t sent = r.id * 100'000LL;
      EXPECT_GE(r.at, sent + 200'000);
      EXPECT_LE(r.at, sent + 200'000 + 5'000'000);
      max_hold = std::max(max_hold, r.at - sent);
    }
    EXPECT_GT(max_hold, 2'000'000) << "some spike should span over twenty sub-windows";
    runs.push_back(std::move(got));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[r][i].at, runs[0][i].at);
      EXPECT_EQ(runs[r][i].from, runs[0][i].from);
      EXPECT_EQ(runs[r][i].id, runs[0][i].id);
    }
  }
}

// A 24-node gossip over K shards: every receipt forwards to a node picked
// from the payload, under jitter, duplication and reorder spikes, so
// traffic crosses every shard pair at uneven times. For each K the per-node
// receive logs must be identical at every worker-thread count.
TEST(ShardedNet, ReceiveLogsIdenticalAcrossShardAndThreadCounts) {
  constexpr std::uint32_t kNodes = 24;
  using Entry = std::pair<std::int64_t, std::uint32_t>;  // (time, from << 8 | hop)
  for (unsigned k : {2u, 3u, 4u, 8u}) {
    std::vector<std::vector<std::vector<Entry>>> runs;
    for (unsigned threads : {1u, 2u, 3u, 4u}) {
      NetConfig cfg;  // default latency, 50us jitter, 10us buckets
      cfg.dup_probability = 0.05;
      cfg.reorder_probability = 0.05;
      cfg.reorder_spike = sim::millis(2);
      Fixture f(k, threads, cfg);
      std::vector<std::vector<Entry>> logs(kNodes);
      for (std::uint32_t i = 0; i < kNodes; ++i) {
        const unsigned sh = i % k;
        f.net.place(NodeId{100 + i}, sh);
        f.attach(sh, NodeId{100 + i}, [&f, &logs, i, sh](NodeId from,
                                                                   const Bytes& b) {
          const std::uint8_t hop = b[0];
          logs[i].emplace_back(f.engine.shard(sh).now().ns, (from.value() << 8) | hop);
          if (hop >= 40) return;
          const std::uint32_t to = (i * 7 + hop * 5 + 3) % kNodes;
          f.net.shard(sh).send(NodeId{100 + i}, NodeId{100 + to},
                               Bytes{static_cast<std::uint8_t>(hop + 1)});
        });
      }
      for (std::uint32_t i = 0; i < kNodes; ++i) {
        const unsigned sh = i % k;
        f.engine.shard(sh).schedule_at(sim::SimTime{i * 13'000LL}, [&f, i, sh]() {
          f.net.shard(sh).send(NodeId{100 + i}, NodeId{100 + (i + 5) % kNodes}, Bytes{0});
        });
      }
      // Two calls: the second starts with datagrams still in flight.
      f.engine.run_until(sim::SimTime{} + sim::millis(7));
      f.engine.run_until(sim::SimTime{} + sim::millis(40));
      std::size_t total = 0;
      for (const auto& l : logs) total += l.size();
      EXPECT_GT(total, kNodes * 40u) << "K=" << k << " threads=" << threads;
      runs.push_back(std::move(logs));
    }
    for (std::size_t r = 1; r < runs.size(); ++r) {
      EXPECT_EQ(runs[r], runs[0]) << "K=" << k << " thread run " << r;
    }
  }
}

TEST(ShardedNet, StatsAggregateAcrossShardFabrics) {
  Fixture f(3, 1);
  run_co_timed(f);
  const NetStats st = f.net.stats();
  EXPECT_EQ(st.sent, 5u);       // counted on the three sender shards
  EXPECT_EQ(st.delivered, 5u);  // counted on the receiver shard
  EXPECT_GT(st.bytes, 0u);
}

TEST(ShardedNet, CrossShardToDetachedNodeCountsAsDetachedDrop) {
  Fixture f(2, 2);
  f.net.place(NodeId{1}, 0);
  f.net.place(NodeId{2}, 1);  // placed but never attached: a crashed node
  f.engine.shard(0).schedule_at(sim::SimTime{0},
                                [&]() { f.net.shard(0).send(NodeId{1}, NodeId{2}, Bytes{9}); });
  f.engine.run_until(sim::SimTime{} + sim::millis(1));
  EXPECT_TRUE(f.received.empty());
  EXPECT_EQ(f.net.stats().dropped_detached, 1u);
  EXPECT_EQ(f.net.stats().delivered, 0u);
}

TEST(ShardedNet, UnplacedDestinationDropsOnSenderShard) {
  // A destination missing from the directory falls back to the sender's
  // local queue, whose drain drops it as detached — the same outcome a
  // serial net gives a send to a node that never attached.
  Fixture f(2, 2);
  f.net.place(NodeId{1}, 0);
  f.engine.shard(0).schedule_at(sim::SimTime{0},
                                [&]() { f.net.shard(0).send(NodeId{1}, NodeId{99}, Bytes{9}); });
  f.engine.run_until(sim::SimTime{} + sim::millis(1));
  EXPECT_EQ(f.net.stats().dropped_detached, 1u);
  EXPECT_EQ(f.net.shard(0).stats().dropped_detached, 1u);
}

TEST(ShardedNet, SingleShardFabricNeedsNoPlacement) {
  // K=1 keeps serial semantics: attach without place(), no directory, no
  // mailboxes — shard(0) is an ordinary ControlNet.
  Fixture f(1, 1);
  std::vector<std::uint8_t> got;
  f.attach(0, NodeId{5}, [&](NodeId, const Bytes& b) { got.push_back(b[0]); });
  f.net.shard(0).send(NodeId{4}, NodeId{5}, Bytes{7});
  f.engine.run_until(sim::SimTime{} + sim::millis(1));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 7);
}

}  // namespace
}  // namespace stank::net
