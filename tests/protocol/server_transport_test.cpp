#include "protocol/server_transport.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "owners.hpp"
#include "protocol/codec.hpp"

namespace stank::protocol {
namespace {

// A fake client at the datagram layer.
struct Fixture {
  sim::Engine engine;
  net::ControlNet net;
  sim::NodeClock server_clock;
  metrics::Counters counters;
  ServerHooks hooks;
  ServerTransport transport;
  std::vector<Frame> client_rx;
  std::vector<Bytes> client_rx_bytes;  // the same datagrams, undecoded
  bool client_auto_acks{true};
  int handler_calls{0};
  FnRx client;

  explicit Fixture(std::size_t reply_cache_size = 8)
      : net(engine, sim::Rng(1), net::NetConfig{sim::micros(100), sim::Duration{0}, 0.0}),
        server_clock(engine, sim::LocalClock(1.0)),
        transport(net, server_clock, NodeId{1}, counters, hooks,
                  TransportConfig{sim::local_millis(100), reply_cache_size}),
        client([this](NodeId from, const Bytes& dg) {
      auto f = decode(dg);
      ASSERT_TRUE(f.has_value());
      client_rx.push_back(*f);
      client_rx_bytes.push_back(dg);
      if (f->kind == FrameKind::kServerMsg && client_auto_acks) {
        Frame ack;
        ack.kind = FrameKind::kClientAck;
        ack.sender = NodeId{100};
        ack.msg_id = f->msg_id;
        ack.epoch = f->epoch;
        net.send(NodeId{100}, from, encode(ack));
      }
    }) {
    net.attach(NodeId{100}, client);
    hooks.request = [this](NodeId, std::uint32_t, const RequestBody& body,
                           ServerTransport::Responder r) {
      ++handler_calls;
      if (std::holds_alternative<KeepAliveReq>(body)) {
        r.ack(ReplyBody{OkReply{}});
      } else {
        r.nack();
      }
    };
    transport.start();
  }

  void client_send(RequestBody body, std::uint64_t msg_id, std::uint32_t epoch = 1) {
    Frame f;
    f.kind = FrameKind::kRequest;
    f.sender = NodeId{100};
    f.msg_id = MsgId{msg_id};
    f.epoch = epoch;
    f.body = std::move(body);
    net.send(NodeId{100}, NodeId{1}, encode(f));
  }
};

TEST(ServerTransport, ExecutesAndAcks) {
  Fixture f;
  f.client_send(KeepAliveReq{}, 1);
  f.engine.run();
  EXPECT_EQ(f.handler_calls, 1);
  ASSERT_EQ(f.client_rx.size(), 1u);
  EXPECT_EQ(f.client_rx[0].kind, FrameKind::kAck);
  EXPECT_EQ(f.client_rx[0].msg_id, MsgId{1});
  EXPECT_EQ(f.counters.acks_sent, 1u);
}

TEST(ServerTransport, AtMostOnceExecution) {
  Fixture f;
  f.client_send(KeepAliveReq{}, 1);
  f.client_send(KeepAliveReq{}, 1);  // duplicate
  f.engine.run();
  EXPECT_EQ(f.handler_calls, 1);
  // Both copies get a reply (the second from the cache).
  EXPECT_EQ(f.client_rx.size(), 2u);
}

TEST(ServerTransport, DistinctEpochsAreDistinctSessions) {
  Fixture f;
  f.client_send(KeepAliveReq{}, 1, 1);
  f.client_send(KeepAliveReq{}, 1, 2);  // same id, new epoch: executes again
  f.engine.run();
  EXPECT_EQ(f.handler_calls, 2);
}

TEST(ServerTransport, NackReply) {
  Fixture f;
  f.client_send(GetAttrReq{FileId{1}}, 3);  // handler nacks non-keepalives
  f.engine.run();
  ASSERT_EQ(f.client_rx.size(), 1u);
  EXPECT_EQ(f.client_rx[0].kind, FrameKind::kNack);
  EXPECT_EQ(f.counters.nacks_sent, 1u);
}

TEST(ServerTransport, MayAckGateConvertsAckToNack) {
  Fixture f;
  f.hooks.gate = [](NodeId) { return false; };
  f.client_send(KeepAliveReq{}, 1);
  f.engine.run();
  ASSERT_EQ(f.client_rx.size(), 1u);
  // Handler said ack; the gate said no.
  EXPECT_EQ(f.client_rx[0].kind, FrameKind::kNack);
}

TEST(ServerTransport, CachedAckReplayedAsNackOnceGateCloses) {
  Fixture f;
  bool gate_open = true;
  f.hooks.gate = [&](NodeId) { return gate_open; };
  f.client_send(KeepAliveReq{}, 1);
  f.engine.run();
  ASSERT_EQ(f.client_rx.size(), 1u);
  EXPECT_EQ(f.client_rx[0].kind, FrameKind::kAck);

  gate_open = false;  // lease timer started
  f.client_send(KeepAliveReq{}, 1);  // retransmission of the SAME request
  f.engine.run();
  ASSERT_EQ(f.client_rx.size(), 2u);
  // The cached ACK must NOT leak: it would renew the timed-out lease.
  EXPECT_EQ(f.client_rx[1].kind, FrameKind::kNack);
  EXPECT_EQ(f.handler_calls, 1);
}

TEST(ServerTransport, ServerMsgDeliveredAndAcked) {
  Fixture f;
  std::optional<bool> delivered;
  f.transport.send_server_msg(NodeId{100}, 1, ServerBody{LockDemand{FileId{1}, LockMode::kNone, 1}},
                              [&](bool ok) { delivered = ok; });
  f.engine.run();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_TRUE(*delivered);
  EXPECT_EQ(f.counters.server_msgs_sent, 1u);
}

TEST(ServerTransport, ServerMsgRetriesThenReportsDeliveryFailure) {
  Fixture f;
  f.client_auto_acks = false;
  std::optional<bool> delivered;
  f.transport.send_server_msg(NodeId{100}, 1, ServerBody{LockDemand{FileId{1}, LockMode::kNone, 1}},
                              [&](bool ok) { delivered = ok; });
  f.engine.run();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_FALSE(*delivered);  // the paper's "delivery error"
  constexpr std::size_t kSends = 1 + kMaxRetries;
  EXPECT_EQ(f.client_rx.size(), kSends);
  EXPECT_EQ(f.counters.retransmissions, kSends - 1);
}

TEST(ServerTransport, DuplicateClientAckIgnored) {
  Fixture f;
  int completions = 0;
  f.transport.send_server_msg(NodeId{100}, 1, ServerBody{LockGrant{FileId{1}, LockMode::kShared, 1}},
                              [&](bool) { ++completions; });
  f.engine.run_until(sim::SimTime{} + sim::millis(1));
  ASSERT_GE(f.client_rx.size(), 1u);
  // Client re-ACKs manually.
  Frame ack;
  ack.kind = FrameKind::kClientAck;
  ack.sender = NodeId{100};
  ack.msg_id = f.client_rx[0].msg_id;
  ack.epoch = 1;
  f.net.send(NodeId{100}, NodeId{1}, encode(ack));
  f.engine.run();
  EXPECT_EQ(completions, 1);
}

TEST(ServerTransport, CancelServerMsgsSuppressesCallbacks) {
  Fixture f;
  f.client_auto_acks = false;
  bool fired = false;
  f.transport.send_server_msg(NodeId{100}, 1, ServerBody{LockDemand{FileId{1}, LockMode::kNone, 1}},
                              [&](bool) { fired = true; });
  f.transport.cancel_server_msgs(NodeId{100});
  EXPECT_EQ(f.transport.outstanding_server_msgs(), 0u);
  f.engine.run();
  EXPECT_FALSE(fired);
}

TEST(ServerTransport, InFlightRequestNotReExecutedOnRetransmit) {
  Fixture f;
  // A handler that never responds, to keep the request in-flight.
  f.hooks.request = [&](NodeId, std::uint32_t, const RequestBody&,
                               ServerTransport::Responder) { ++f.handler_calls; };
  f.client_send(KeepAliveReq{}, 5);
  f.client_send(KeepAliveReq{}, 5);
  f.engine.run();
  EXPECT_EQ(f.handler_calls, 1);
  EXPECT_TRUE(f.client_rx.empty());
}

TEST(ServerTransport, ReplyCacheEvictsOldEntries) {
  Fixture f;  // cache size 8
  for (std::uint64_t i = 1; i <= 20; ++i) {
    f.client_send(KeepAliveReq{}, i);
  }
  f.engine.run();
  EXPECT_EQ(f.handler_calls, 20);
  // A very old id re-executes after eviction (at-most-once window passed).
  f.client_send(KeepAliveReq{}, 1);
  f.engine.run();
  EXPECT_EQ(f.handler_calls, 21);
}

TEST(ServerTransport, ReplyCacheHoldsTheLastIdsInArrivalOrder) {
  Fixture f;  // cache size 8
  f.hooks.request = [&](NodeId, std::uint32_t, const RequestBody&,
                               ServerTransport::Responder r) {
    ++f.handler_calls;
    r.ack(ReplyBody{LockReply{true, LockMode::kShared,
                              static_cast<std::uint32_t>(f.handler_calls), 0xC00C1Eu}});
  };
  f.transport.set_incarnation(7);
  for (std::uint64_t i = 1; i <= 20; ++i) {
    f.client_send(KeepAliveReq{}, i);
  }
  f.engine.run();
  ASSERT_EQ(f.handler_calls, 20);

  // A restart bumps the incarnation; a replay still carries the one its
  // reply was produced under, with the original body.
  f.transport.set_incarnation(9);
  f.client_send(KeepAliveReq{}, 13);  // oldest of the last eight: replayed
  f.engine.run();
  EXPECT_EQ(f.handler_calls, 20);
  EXPECT_EQ(f.counters.reply_cache_hits, 1u);
  ASSERT_EQ(f.client_rx.size(), 21u);
  const Frame& replay = f.client_rx.back();
  EXPECT_EQ(replay.kind, FrameKind::kAck);
  EXPECT_EQ(replay.sender, NodeId{1});
  EXPECT_EQ(replay.msg_id, MsgId{13});
  EXPECT_EQ(replay.epoch, 1u);
  EXPECT_EQ(replay.incarnation, 7u);
  const auto& lock = std::get<LockReply>(std::get<ReplyBody>(replay.body));
  EXPECT_EQ(lock.gen, 13u);
  EXPECT_EQ(lock.cookie, 0xC00C1Eu);

  f.client_send(KeepAliveReq{}, 12);  // evicted: executes again
  f.engine.run();
  EXPECT_EQ(f.handler_calls, 21);
  EXPECT_EQ(f.client_rx.back().incarnation, 9u);
  // Admitting 12 evicted 13, the oldest id.
  f.client_send(KeepAliveReq{}, 13);
  f.engine.run();
  EXPECT_EQ(f.handler_calls, 22);
}

// The cache keeps the fixed-size replies inline and boxes the ones that
// carry a vector; either way a replay must put the first ACK's very bytes
// back on the wire, and a closed ACK gate must still turn it into a NACK.
TEST(ServerTransport, ReplayIsByteIdenticalForEveryReplyKind) {
  const std::vector<ReplyBody> replies = {
      OkReply{},
      ErrReply{ErrorCode::kStaleSession},
      OpenReply{FileId{7}, FileAttr{8192, 42, 3},
                {Extent{DiskId{1}, 16, 2}, Extent{DiskId{2}, 64, 1}}},
      LockReply{true, LockMode::kExclusive, 5, 0xC00C1Eu},
      AttrReply{FileAttr{4096, 9, 1}, {Extent{DiskId{1}, 0, 1}}},
      RegisterReply{3, 2},
      DataReply{Bytes{1, 2, 3, 4, 5}},
  };
  ASSERT_EQ(replies.size(), std::variant_size_v<ReplyBody>);
  for (std::size_t i = 0; i < replies.size(); ++i) ASSERT_EQ(replies[i].index(), i);

  Fixture f;  // cache size 8: every id below stays cached
  bool gate_open = true;
  f.hooks.gate = [&](NodeId) { return gate_open; };
  f.hooks.request = [&](NodeId, std::uint32_t, const RequestBody&,
                               ServerTransport::Responder r) {
    r.ack(replies[static_cast<std::size_t>(f.handler_calls++)]);
  };
  f.transport.set_incarnation(4);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const std::uint64_t id = 10 + i;
    f.client_send(KeepAliveReq{}, id);
    f.engine.run();
    f.client_send(KeepAliveReq{}, id);  // retransmission
    f.engine.run();
    ASSERT_EQ(f.client_rx_bytes.size(), 2 * (i + 1));
    Frame ack;
    ack.kind = FrameKind::kAck;
    ack.sender = NodeId{1};
    ack.msg_id = MsgId{id};
    ack.epoch = 1;
    ack.incarnation = 4;
    ack.body = replies[i];
    EXPECT_EQ(f.client_rx_bytes[2 * i], encode(ack)) << "reply kind " << i;
    EXPECT_EQ(f.client_rx_bytes[2 * i + 1], f.client_rx_bytes[2 * i]) << "reply kind " << i;
  }
  EXPECT_EQ(f.handler_calls, static_cast<int>(replies.size()));
  EXPECT_EQ(f.counters.reply_cache_hits, replies.size());

  gate_open = false;  // lease timer started
  for (std::size_t i = 0; i < replies.size(); ++i) {
    f.client_send(KeepAliveReq{}, 10 + i);
    f.engine.run();
    EXPECT_EQ(f.client_rx.back().kind, FrameKind::kNack) << "reply kind " << i;
  }
  EXPECT_EQ(f.handler_calls, static_cast<int>(replies.size()));
}

TEST(ServerTransport, CachedNackReplayedWithoutReExecuting) {
  Fixture f;
  f.client_send(GetAttrReq{FileId{1}}, 3);  // handler nacks non-keepalives
  f.engine.run();
  f.client_send(GetAttrReq{FileId{1}}, 3);
  f.engine.run();
  EXPECT_EQ(f.handler_calls, 1);
  ASSERT_EQ(f.client_rx.size(), 2u);
  EXPECT_EQ(f.client_rx[1].kind, FrameKind::kNack);
  EXPECT_EQ(f.counters.reply_cache_hits, 1u);
}

TEST(ServerTransport, IdsArrivingBelowTheHighestAreStillDeduplicated) {
  Fixture f;
  f.client_send(KeepAliveReq{}, 5);
  f.engine.run();
  f.client_send(KeepAliveReq{}, 3);  // overtaken by 5 on the wire: fresh
  f.engine.run();
  EXPECT_EQ(f.handler_calls, 2);
  f.client_send(KeepAliveReq{}, 3);
  f.client_send(KeepAliveReq{}, 5);
  f.engine.run();
  EXPECT_EQ(f.handler_calls, 2);
  EXPECT_EQ(f.counters.reply_cache_hits, 2u);
}

TEST(ServerTransport, ZeroReplyCacheReExecutesEveryCopy) {
  Fixture f(0);
  f.client_send(KeepAliveReq{}, 1);
  f.engine.run();
  f.client_send(KeepAliveReq{}, 1);
  f.engine.run();
  EXPECT_EQ(f.handler_calls, 2);
  ASSERT_EQ(f.client_rx.size(), 2u);
  EXPECT_EQ(f.client_rx[1].kind, FrameKind::kAck);
  EXPECT_EQ(f.counters.reply_cache_hits, 0u);
}

TEST(ServerTransport, RejectedFramesDroppedAndCounted) {
  Fixture f;
  f.net.send(NodeId{100}, NodeId{1}, Bytes{0xde, 0xad, 0xbe, 0xef});  // undecodable
  Frame ack;  // decodes, but servers never accept request ACKs
  ack.kind = FrameKind::kAck;
  ack.sender = NodeId{100};
  ack.msg_id = MsgId{1};
  ack.body = ReplyBody{OkReply{}};
  f.net.send(NodeId{100}, NodeId{1}, encode(ack));
  f.engine.run();
  EXPECT_EQ(f.counters.frames_rejected, 2u);
  EXPECT_EQ(f.handler_calls, 0);
  EXPECT_TRUE(f.client_rx.empty());  // nothing answered
}

TEST(ServerTransportDeathTest, DoubleReplyAborts) {
  Fixture f;
  f.hooks.request = [](NodeId, std::uint32_t, const RequestBody&,
                              ServerTransport::Responder r) {
    r.ack(ReplyBody{OkReply{}});
    r.ack(ReplyBody{OkReply{}});
  };
  f.client_send(KeepAliveReq{}, 1);
  EXPECT_DEATH(f.engine.run(), "double reply");
}

}  // namespace
}  // namespace stank::protocol
