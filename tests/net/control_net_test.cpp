#include "net/control_net.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <vector>

namespace stank::net {
namespace {

using FnRx = FnReceiver<std::function<void(NodeId, Bytes&)>>;

struct Fixture {
  sim::Engine engine;
  ControlNet net;
  std::vector<std::pair<NodeId, Bytes>> received_at_2;
  std::deque<FnRx> receivers;  // a deque: attached receivers never move

  explicit Fixture(NetConfig cfg = {}) : net(engine, sim::Rng(1), cfg) {
    attach(NodeId{2}, [this](NodeId from, const Bytes& b) { received_at_2.emplace_back(from, b); });
  }

  void attach(NodeId node, std::function<void(NodeId, Bytes&)> fn) {
    net.attach(node, receivers.emplace_back(std::move(fn)));
  }
};

TEST(ControlNet, DeliversAfterLatency) {
  Fixture f(NetConfig{sim::millis(1), sim::Duration{0}, 0.0});
  f.net.send(NodeId{1}, NodeId{2}, Bytes{42});
  f.engine.run_until(sim::SimTime{} + sim::micros(999));
  EXPECT_TRUE(f.received_at_2.empty());
  f.engine.run_until(sim::SimTime{} + sim::millis(1));
  ASSERT_EQ(f.received_at_2.size(), 1u);
  EXPECT_EQ(f.received_at_2[0].first, NodeId{1});
  EXPECT_EQ(f.received_at_2[0].second, Bytes{42});
}

TEST(ControlNet, QueueBeyondInlineCapacityDrainsInArrivalThenSendOrder) {
  NetConfig cfg{sim::micros(100), sim::Duration{0}, 0.0};
  cfg.delivery_bucket = sim::micros(100);
  Fixture f(cfg);
  std::vector<sim::SimTime> delivered_at;
  f.attach(NodeId{2}, [&](NodeId, const Bytes& b) {
    f.received_at_2.emplace_back(NodeId{1}, b);
    delivered_at.push_back(f.engine.now());
  });
  // Arrival instants out of order, with ties; 7 and 8 fall in the second
  // bucket and stay queued (compacted in place) across the first drain.
  const sim::SimTime t0{};
  f.net.inject(NodeId{1}, NodeId{2}, t0 + sim::micros(50), Bytes{5});
  f.net.inject(NodeId{1}, NodeId{2}, t0 + sim::micros(150), Bytes{8});
  f.net.inject(NodeId{1}, NodeId{2}, t0 + sim::micros(30), Bytes{2});
  f.net.inject(NodeId{1}, NodeId{2}, t0 + sim::micros(120), Bytes{7});
  f.net.inject(NodeId{1}, NodeId{2}, t0 + sim::micros(30), Bytes{3});
  f.net.inject(NodeId{1}, NodeId{2}, t0 + sim::micros(10), Bytes{1});
  f.net.inject(NodeId{1}, NodeId{2}, t0 + sim::micros(40), Bytes{4});
  f.net.send(NodeId{1}, NodeId{2}, Bytes{6});  // arrives at 100 us, sent last
  f.engine.run();
  ASSERT_EQ(f.received_at_2.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(f.received_at_2[i].second, Bytes{static_cast<std::uint8_t>(i + 1)}) << i;
  }
  EXPECT_EQ(delivered_at.front(), t0 + sim::micros(100));
  EXPECT_EQ(delivered_at.back(), t0 + sim::micros(200));
}

TEST(ControlNet, PartitionDropsSilently) {
  Fixture f;
  f.net.reachability().sever(NodeId{1}, NodeId{2});
  f.net.send(NodeId{1}, NodeId{2}, Bytes{1});
  f.engine.run();
  EXPECT_TRUE(f.received_at_2.empty());
  EXPECT_EQ(f.net.stats().dropped_partition, 1u);
}

TEST(ControlNet, AsymmetricPartitionOneWayOnly) {
  Fixture f;
  std::vector<Bytes> at_1;
  f.attach(NodeId{1}, [&](NodeId, const Bytes& b) { at_1.push_back(b); });
  f.net.reachability().sever(NodeId{1}, NodeId{2});
  f.net.send(NodeId{1}, NodeId{2}, Bytes{1});  // dropped
  f.net.send(NodeId{2}, NodeId{1}, Bytes{2});  // delivered
  f.engine.run();
  EXPECT_TRUE(f.received_at_2.empty());
  ASSERT_EQ(at_1.size(), 1u);
}

TEST(ControlNet, MidFlightPartitionEatsPacket) {
  Fixture f(NetConfig{sim::millis(10), sim::Duration{0}, 0.0});
  f.net.send(NodeId{1}, NodeId{2}, Bytes{1});
  // Partition forms while the datagram is in flight.
  f.engine.schedule_after(sim::millis(5),
                          [&]() { f.net.reachability().sever(NodeId{1}, NodeId{2}); });
  f.engine.run();
  EXPECT_TRUE(f.received_at_2.empty());
}

TEST(ControlNet, DetachedReceiverLosesTraffic) {
  Fixture f;
  f.net.send(NodeId{1}, NodeId{2}, Bytes{1});
  f.net.detach(NodeId{2});
  f.engine.run();
  EXPECT_TRUE(f.received_at_2.empty());
  EXPECT_EQ(f.net.stats().dropped_detached, 1u);
}

TEST(ControlNet, RandomLossRateRoughlyHonored) {
  Fixture f(NetConfig{sim::micros(10), sim::Duration{0}, 0.25});
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    f.net.send(NodeId{1}, NodeId{2}, Bytes{static_cast<std::uint8_t>(i)});
  }
  f.engine.run();
  const double rate = 1.0 - static_cast<double>(f.received_at_2.size()) / n;
  EXPECT_NEAR(rate, 0.25, 0.04);
  EXPECT_EQ(f.net.stats().dropped_random + f.net.stats().delivered, static_cast<std::uint64_t>(n));
}

TEST(ControlNet, JitterVariesLatencyWithinBounds) {
  Fixture f(NetConfig{sim::millis(1), sim::millis(1), 0.0});
  std::vector<std::int64_t> arrivals;
  f.attach(NodeId{2}, [&](NodeId, const Bytes&) { arrivals.push_back(f.engine.now().ns); });
  for (int i = 0; i < 100; ++i) {
    f.net.send(NodeId{1}, NodeId{2}, Bytes{1});
  }
  f.engine.run();
  ASSERT_EQ(arrivals.size(), 100u);
  for (auto a : arrivals) {
    EXPECT_GE(a, 1'000'000);
    EXPECT_LE(a, 2'000'000);
  }
  // Not all identical (jitter actually applied).
  EXPECT_NE(*std::min_element(arrivals.begin(), arrivals.end()),
            *std::max_element(arrivals.begin(), arrivals.end()));
}

TEST(ControlNet, StatsCountBytes) {
  Fixture f;
  f.net.send(NodeId{1}, NodeId{2}, Bytes(10, 0));
  f.net.send(NodeId{1}, NodeId{2}, Bytes(5, 0));
  f.engine.run();
  EXPECT_EQ(f.net.stats().sent, 2u);
  EXPECT_EQ(f.net.stats().bytes, 15u);
}

TEST(ControlNet, DuplicationDeliversExtraCopiesAndCountsThem) {
  NetConfig cfg{sim::micros(10), sim::Duration{0}, 0.0};
  cfg.dup_probability = 0.5;
  Fixture f(cfg);
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    f.net.send(NodeId{1}, NodeId{2}, Bytes{static_cast<std::uint8_t>(i)});
  }
  f.engine.run();
  // Every original arrives plus the injected copies; the geometric tail
  // around p=0.5 yields roughly one extra copy per original.
  EXPECT_EQ(f.received_at_2.size(),
            static_cast<std::size_t>(n) + f.net.stats().duplicated);
  EXPECT_NEAR(static_cast<double>(f.net.stats().duplicated) / n, 1.0, 0.15);
  EXPECT_EQ(f.net.stats().sent, static_cast<std::uint64_t>(n));
}

TEST(ControlNet, ReorderSpikeViolatesFifo) {
  NetConfig cfg{sim::micros(10), sim::Duration{0}, 0.0};
  cfg.reorder_probability = 0.3;
  cfg.reorder_spike = sim::millis(2);
  Fixture f(cfg);
  std::vector<std::uint8_t> order;
  f.attach(NodeId{2}, [&](NodeId, const Bytes& b) { order.push_back(b[0]); });
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    f.net.send(NodeId{1}, NodeId{2}, Bytes{static_cast<std::uint8_t>(i)});
  }
  f.engine.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(n));  // nothing lost
  EXPECT_GT(f.net.stats().reordered, 0u);
  // At least one later send overtook a spiked packet.
  bool fifo_violated = false;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i] < order[i - 1]) fifo_violated = true;
  }
  EXPECT_TRUE(fifo_violated);
}

TEST(ControlNet, GilbertElliottDropsInBursts) {
  NetConfig cfg{sim::micros(10), sim::Duration{0}, 0.0};
  cfg.ge_good_to_bad = 0.05;
  cfg.ge_bad_to_good = 0.2;
  cfg.burst_loss = 1.0;
  Fixture f(cfg);
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    f.net.send(NodeId{1}, NodeId{2}, Bytes{static_cast<std::uint8_t>(i & 0xff)});
  }
  f.engine.run();
  EXPECT_GT(f.net.stats().burst_episodes, 0u);
  EXPECT_GT(f.net.stats().dropped_burst, 0u);
  // Loss must come in RUNS: with burst_loss=1 a bad state of mean length 5,
  // the drop count per episode averages well above independent loss.
  const double per_episode = static_cast<double>(f.net.stats().dropped_burst) /
                             static_cast<double>(f.net.stats().burst_episodes);
  EXPECT_GT(per_episode, 2.0);
  EXPECT_EQ(f.net.stats().delivered + f.net.stats().dropped_burst,
            static_cast<std::uint64_t>(n));
}

// A destination holds a queue only while datagrams are in flight to it:
// after request/reply rounds between 40 clients and a server, no client
// keeps an entry, not even after later rounds in which the server answers
// every request twice (a reply and a push, both in flight to the client at
// once). Nor does the server, which had many requests in flight at once:
// its spilled buffer outlives the entry as the net's spare.
TEST(ControlNet, OnlyDestinationsWithTrafficInFlightKeepAQueue) {
  Fixture f(NetConfig{sim::micros(200), sim::micros(50), 0.0});
  const NodeId server{1};
  constexpr std::uint32_t kClients = 40;
  constexpr int kRounds = 5;
  constexpr int kPairRounds = 5;  // rounds kRounds.. answered twice
  int replies = 0;
  std::vector<int> pair_halves(kClients, 0);
  std::size_t most_queues = 0;
  f.attach(server, [&](NodeId from, const Bytes& b) {
    most_queues = std::max(most_queues, f.net.dest_queues());
    f.net.send(server, from, Bytes(b));
    if (b[0] >= kRounds) f.net.send(server, from, Bytes(b));
  });
  for (std::uint32_t i = 0; i < kClients; ++i) {
    const NodeId client{100 + i};
    f.attach(client, [&, client, i](NodeId, const Bytes& b) {
      ++replies;
      // A pair round goes on once both of its datagrams have arrived.
      if (b[0] >= kRounds && ++pair_halves[i] % 2 == 1) return;
      const auto next = static_cast<std::uint8_t>(b[0] + 1);
      if (next < kRounds + kPairRounds) f.net.send(client, server, Bytes{next});
    });
    f.net.send(client, server, Bytes{0});
  }
  f.engine.run();
  EXPECT_EQ(replies, static_cast<int>(kClients) * (kRounds + 2 * kPairRounds));
  EXPECT_GT(most_queues, 2u);  // replies were in flight to many clients at once
  EXPECT_EQ(f.net.dest_queues(), 0u);
}

TEST(ControlNet, AdversarialFlagReflectsKnobs) {
  EXPECT_FALSE(NetConfig{}.adversarial());
  NetConfig dup;
  dup.dup_probability = 0.1;
  EXPECT_TRUE(dup.adversarial());
  NetConfig reo;
  reo.reorder_probability = 0.1;
  EXPECT_TRUE(reo.adversarial());
  NetConfig ge;
  ge.ge_good_to_bad = 0.01;
  EXPECT_TRUE(ge.adversarial());
}

}  // namespace
}  // namespace stank::net
