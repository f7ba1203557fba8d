// Both transports driven end-to-end over an aggressively misbehaving
// ControlNet: duplication, FIFO-violating reorder spikes and Gilbert–Elliott
// burst loss all at once. The properties under test are the exactly-once
// guarantees the dedup/epoch machinery provides and the conservative
// (first-send) renewal anchor — the invariants the safety argument leans on.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "owners.hpp"
#include "protocol/client_transport.hpp"
#include "protocol/codec.hpp"
#include "protocol/server_transport.hpp"

namespace stank::protocol {
namespace {

net::NetConfig aggressive_net() {
  net::NetConfig nc;
  nc.latency = sim::micros(300);
  nc.jitter = sim::micros(200);
  nc.drop_probability = 0.05;
  nc.dup_probability = 0.30;
  nc.reorder_probability = 0.40;
  nc.reorder_spike = sim::millis(30);
  nc.ge_good_to_bad = 0.02;
  nc.ge_bad_to_good = 0.30;
  nc.burst_loss = 0.9;
  return nc;
}

// Client transport against a raw echo server: every request handler fires
// exactly once, every ACK renews with its own first-send time, and msg-level
// duplication never double-completes a request.
struct ClientSide {
  sim::Engine engine;
  net::ControlNet net;
  sim::NodeClock clock;
  metrics::Counters counters;
  ClientHooks hooks;
  ClientTransport transport;
  FnRx server;

  ClientSide(unsigned seed)
      : net(engine, sim::Rng(seed), aggressive_net()),
        clock(engine, sim::LocalClock(1.0)),
        transport(net, clock, NodeId{100}, NodeId{1}, counters, hooks,
                  TransportConfig{sim::local_millis(50), 16}),
        server([this](NodeId from, const Bytes& dg) {
      auto f = decode(dg);
      ASSERT_TRUE(f.has_value());
      if (f->kind != FrameKind::kRequest) return;
      Frame reply;
      reply.kind = FrameKind::kAck;
      reply.sender = NodeId{1};
      reply.msg_id = f->msg_id;
      reply.epoch = f->epoch;
      reply.body = ReplyBody{OkReply{}};
      net.send(NodeId{1}, from, encode(reply));
    }) {
    net.attach(NodeId{1}, server);
    transport.start();
  }
};

TEST(AdversarialNet, ClientRequestsCompleteExactlyOnce) {
  for (unsigned seed : {11u, 12u, 13u}) {
    ClientSide f(seed);
    const int kRequests = 150;
    int completions = 0;
    int acks = 0;
    std::vector<sim::LocalTime> renew_anchors;
    f.hooks.ack = [&](sim::LocalTime t) { renew_anchors.push_back(t); };
    for (int i = 0; i < kRequests; ++i) {
      f.engine.schedule_after(sim::millis(2 * i), [&]() {
        const sim::LocalTime sent = f.clock.now();
        f.transport.send_request(KeepAliveReq{}, [&, sent](const ReplyEvent& ev) {
          ++completions;
          if (ev.outcome == ReplyOutcome::kAck) ++acks;
          // The first-send anchor is when THIS request left, never later.
          EXPECT_EQ(ev.first_send.ns, sent.ns);
        });
      });
    }
    f.engine.run();
    // Exactly-once completion despite duplicated ACKs and retransmissions.
    EXPECT_EQ(completions, kRequests);
    // The retry budget rides out most bursts; a long one may still exhaust
    // it, and reporting kTimeout then is the correct behaviour.
    EXPECT_GE(acks, kRequests * 9 / 10);
    // Every renewal observed anchors at a request's first send; with dup
    // suppression there can be at most one renewal per request.
    EXPECT_LE(renew_anchors.size(), static_cast<std::size_t>(kRequests));
    EXPECT_GT(f.net.stats().duplicated, 0u);
    EXPECT_GT(f.net.stats().reordered, 0u);
  }
}

// Server transport under the same weather: duplicated client requests
// execute once (reply cache) and replies are re-sent from the cache; server
// push messages are delivered to the fake client exactly once per msg id.
struct ServerSide {
  sim::Engine engine;
  net::ControlNet net;
  sim::NodeClock clock;
  metrics::Counters counters;
  ServerHooks hooks;
  ServerTransport transport;
  int executed{0};
  std::set<std::uint64_t> delivered_push_ids;
  int push_deliveries{0};
  FnRx client;

  ServerSide(unsigned seed)
      : net(engine, sim::Rng(seed), aggressive_net()),
        clock(engine, sim::LocalClock(1.0)),
        transport(net, clock, NodeId{1}, counters, hooks,
                  TransportConfig{sim::local_millis(50), 16}),
        client([this](NodeId from, const Bytes& dg) {
      auto f = decode(dg);
      ASSERT_TRUE(f.has_value());
      if (f->kind != FrameKind::kServerMsg) return;
      if (delivered_push_ids.insert(f->msg_id.value()).second) {
        ++push_deliveries;  // a real client transport dedups exactly like this
      }
      Frame ack;
      ack.kind = FrameKind::kClientAck;
      ack.sender = NodeId{100};
      ack.msg_id = f->msg_id;
      ack.epoch = f->epoch;
      net.send(NodeId{100}, from, encode(ack));
    }) {
    net.attach(NodeId{100}, client);
    hooks.request = [this](NodeId, std::uint32_t, const RequestBody&,
                           ServerTransport::Responder r) {
      ++executed;
      r.ack(ReplyBody{OkReply{}});
    };
    transport.start();
  }

  void client_send(std::uint64_t msg_id) {
    Frame f;
    f.kind = FrameKind::kRequest;
    f.sender = NodeId{100};
    f.msg_id = MsgId{msg_id};
    f.epoch = 1;
    f.body = RequestBody{KeepAliveReq{}};
    net.send(NodeId{100}, NodeId{1}, encode(f));
  }
};

TEST(AdversarialNet, ServerExecutesDuplicatedRequestsOnce) {
  for (unsigned seed : {21u, 22u, 23u}) {
    ServerSide f(seed);
    const int kRequests = 100;
    for (int i = 0; i < kRequests; ++i) {
      // The fake client is crude: it blasts every request three times, on
      // top of whatever duplication the net itself injects.
      f.engine.schedule_after(sim::millis(2 * i), [&f, i]() {
        for (int copy = 0; copy < 3; ++copy) {
          f.client_send(static_cast<std::uint64_t>(i + 1));
        }
      });
    }
    f.engine.run();
    // Bursts can eat all three copies of a request, so execution count is
    // bounded by, not equal to, the request count — but a duplicate must
    // NEVER execute twice.
    EXPECT_LE(f.executed, kRequests);
    EXPECT_GT(f.executed, kRequests / 2);  // the net is rough, not absurd
  }
}

TEST(AdversarialNet, ServerPushMessagesDeliveredExactlyOncePerId) {
  for (unsigned seed : {31u, 32u, 33u}) {
    ServerSide f(seed);
    const int kMsgs = 60;
    int done_calls = 0;
    int done_ok = 0;
    for (int i = 0; i < kMsgs; ++i) {
      f.engine.schedule_after(sim::millis(5 * i), [&f, &done_calls, &done_ok]() {
        f.transport.send_server_msg(NodeId{100}, 1,
                                    ServerBody{LockDemand{FileId{1}, LockMode::kNone, 1}},
                                    [&](bool ok) {
                                      ++done_calls;
                                      if (ok) ++done_ok;
                                    });
      });
    }
    f.engine.run();
    // done() fires exactly once per message regardless of duplication.
    EXPECT_EQ(done_calls, kMsgs);
    // Every message the fake client saw was deduped to one delivery per id.
    EXPECT_EQ(f.push_deliveries, static_cast<int>(f.delivered_push_ids.size()));
    EXPECT_LE(f.push_deliveries, kMsgs);
    // Delivery confirmations imply the client really saw those ids.
    EXPECT_LE(done_ok, f.push_deliveries + 0);
    EXPECT_GT(done_ok, 0);
  }
}

}  // namespace
}  // namespace stank::protocol
