#include "protocol/client_transport.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "owners.hpp"
#include "protocol/codec.hpp"

namespace stank::protocol {
namespace {

// A hand-rolled fake server on the raw datagram layer, so the client
// transport's retransmission/ACK/NACK behaviour is observable precisely.
struct Fixture {
  sim::Engine engine;
  net::ControlNet net;
  sim::NodeClock client_clock;
  metrics::Counters counters;
  ClientHooks hooks;
  ClientTransport transport;
  std::vector<Frame> server_rx;
  bool auto_ack{false};
  bool auto_nack{false};
  FnRx server;

  Fixture()
      : net(engine, sim::Rng(1), net::NetConfig{sim::micros(100), sim::Duration{0}, 0.0}),
        client_clock(engine, sim::LocalClock(1.0)),
        transport(net, client_clock, NodeId{100}, NodeId{1}, counters, hooks,
                  TransportConfig{sim::local_millis(100), 16}),
        server([this](NodeId from, const Bytes& dg) {
      auto f = decode(dg);
      ASSERT_TRUE(f.has_value());
      server_rx.push_back(*f);
      if (f->kind == FrameKind::kRequest && (auto_ack || auto_nack)) {
        Frame reply;
        reply.kind = auto_ack ? FrameKind::kAck : FrameKind::kNack;
        reply.sender = NodeId{1};
        reply.msg_id = f->msg_id;
        reply.epoch = f->epoch;
        if (auto_ack) reply.body = ReplyBody{OkReply{}};
        net.send(NodeId{1}, from, encode(reply));
      }
    }) {
    net.attach(NodeId{1}, server);
    transport.start();
  }

  void send_server_msg_frame(ServerBody body, std::uint64_t msg_id, std::uint32_t epoch = 0) {
    Frame f;
    f.kind = FrameKind::kServerMsg;
    f.sender = NodeId{1};
    f.msg_id = MsgId{msg_id};
    f.epoch = epoch;
    f.body = std::move(body);
    net.send(NodeId{1}, NodeId{100}, encode(f));
  }
};

TEST(ClientTransport, AckCompletesRequestAndRenews) {
  Fixture f;
  f.auto_ack = true;
  std::optional<ReplyEvent> got;
  sim::LocalTime renewed_at{-1};
  f.hooks.ack = [&](sim::LocalTime t) { renewed_at = t; };
  f.transport.send_request(KeepAliveReq{}, [&](const ReplyEvent& ev) { got = ev; });
  f.engine.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->outcome, ReplyOutcome::kAck);
  EXPECT_TRUE(std::holds_alternative<OkReply>(got->body));
  // The renewal carries the FIRST transmission time (t=0 here).
  EXPECT_EQ(renewed_at.ns, 0);
  EXPECT_EQ(got->first_send.ns, 0);
}

TEST(ClientTransport, RetransmitsUntilAnswered) {
  Fixture f;  // server never replies
  bool done = false;
  f.transport.send_request(KeepAliveReq{}, [&](const ReplyEvent& ev) {
    done = true;
    EXPECT_EQ(ev.outcome, ReplyOutcome::kTimeout);
  });
  f.engine.run();
  EXPECT_TRUE(done);
  // 1 initial + kMaxRetries retries.
  constexpr std::size_t kSends = 1 + kMaxRetries;
  EXPECT_EQ(f.server_rx.size(), kSends);
  EXPECT_EQ(f.counters.requests_sent, kSends);
  EXPECT_EQ(f.counters.retransmissions, kSends - 1);
}

TEST(ClientTransport, RetransmissionsShareMsgId) {
  Fixture f;
  f.transport.send_request(KeepAliveReq{}, [](const ReplyEvent&) {});
  f.engine.run();
  ASSERT_GE(f.server_rx.size(), 2u);
  EXPECT_EQ(f.server_rx[0].msg_id, f.server_rx[1].msg_id);
}

TEST(ClientTransport, NackTriggersHookAndCompletes) {
  Fixture f;
  f.auto_nack = true;
  int nacks = 0;
  f.hooks.nack = [&]() { ++nacks; };
  std::optional<ReplyEvent> got;
  f.transport.send_request(KeepAliveReq{}, [&](const ReplyEvent& ev) { got = ev; });
  f.engine.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->outcome, ReplyOutcome::kNack);
  EXPECT_EQ(nacks, 1);
}

TEST(ClientTransport, DuplicateAckIgnored) {
  Fixture f;
  int completions = 0;
  f.transport.send_request(KeepAliveReq{}, [&](const ReplyEvent&) { ++completions; });
  f.engine.run_until(sim::SimTime{} + sim::micros(150));
  ASSERT_EQ(f.server_rx.size(), 1u);
  // Server ACKs the same request twice.
  for (int i = 0; i < 2; ++i) {
    Frame reply;
    reply.kind = FrameKind::kAck;
    reply.sender = NodeId{1};
    reply.msg_id = f.server_rx[0].msg_id;
    reply.epoch = 0;
    reply.body = ReplyBody{OkReply{}};
    f.net.send(NodeId{1}, NodeId{100}, encode(reply));
  }
  f.engine.run();
  EXPECT_EQ(completions, 1);
}

TEST(ClientTransport, StaleEpochReplyDropped) {
  Fixture f;
  f.transport.set_epoch(5);
  int completions = 0;
  f.transport.send_request(KeepAliveReq{}, [&](const ReplyEvent& ev) {
    ++completions;
    EXPECT_EQ(ev.outcome, ReplyOutcome::kTimeout);  // only the timeout fires
  });
  f.engine.run_until(sim::SimTime{} + sim::micros(150));
  ASSERT_EQ(f.server_rx.size(), 1u);
  Frame reply;
  reply.kind = FrameKind::kAck;
  reply.sender = NodeId{1};
  reply.msg_id = f.server_rx[0].msg_id;
  reply.epoch = 4;  // wrong epoch
  reply.body = ReplyBody{OkReply{}};
  f.net.send(NodeId{1}, NodeId{100}, encode(reply));
  f.engine.run();
  EXPECT_EQ(completions, 1);
}

TEST(ClientTransport, ServerMsgsAckedAndDelivered) {
  Fixture f;
  std::vector<ServerBody> delivered;
  f.hooks.server_msg = [&](const ServerBody& b) { delivered.push_back(b); };
  f.send_server_msg_frame(ServerBody{LockDemand{FileId{1}, LockMode::kNone, 1}}, 7);
  f.engine.run();
  ASSERT_EQ(delivered.size(), 1u);
  // A ClientAck went back.
  ASSERT_EQ(f.server_rx.size(), 1u);
  EXPECT_EQ(f.server_rx[0].kind, FrameKind::kClientAck);
  EXPECT_EQ(f.server_rx[0].msg_id, MsgId{7});
  EXPECT_EQ(f.counters.client_acks_sent, 1u);
}

TEST(ClientTransport, DuplicateServerMsgReAckedNotRedelivered) {
  Fixture f;
  int deliveries = 0;
  f.hooks.server_msg = [&](const ServerBody&) { ++deliveries; };
  f.send_server_msg_frame(ServerBody{LockDemand{FileId{1}, LockMode::kNone, 1}}, 7);
  f.send_server_msg_frame(ServerBody{LockDemand{FileId{1}, LockMode::kNone, 1}}, 7);
  f.engine.run();
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(f.counters.client_acks_sent, 2u);  // both copies ACKed
}

TEST(ClientTransport, RejectedServerMsgGetsNoAck) {
  Fixture f;
  f.hooks.accept = [](std::uint32_t) { return false; };
  int deliveries = 0;
  f.hooks.server_msg = [&](const ServerBody&) { ++deliveries; };
  f.send_server_msg_frame(ServerBody{LockGrant{FileId{1}, LockMode::kShared, 1}}, 9);
  f.engine.run();
  EXPECT_EQ(deliveries, 0);
  EXPECT_TRUE(f.server_rx.empty());
}

TEST(ClientTransport, AbandonPendingFiresNoCallbacks) {
  Fixture f;
  bool fired = false;
  f.transport.send_request(KeepAliveReq{}, [&](const ReplyEvent&) { fired = true; });
  f.transport.abandon_pending();
  EXPECT_EQ(f.transport.pending_requests(), 0u);
  f.engine.run();
  EXPECT_FALSE(fired);
}

TEST(ClientTransport, StopDropsEverything) {
  Fixture f;
  bool fired = false;
  f.transport.send_request(KeepAliveReq{}, [&](const ReplyEvent&) { fired = true; });
  f.transport.stop();
  f.engine.run();
  EXPECT_FALSE(fired);
}

TEST(ClientTransport, ManyInFlightAnsweredInReverseResolveOnce) {
  Fixture f;  // server never answers on its own
  constexpr int kRequests = 5;  // more than the table holds inline
  std::vector<int> calls(kRequests, 0);
  std::vector<std::uint32_t> gens(kRequests, 0);
  std::vector<int> order;
  for (int i = 0; i < kRequests; ++i) {
    f.transport.send_request(KeepAliveReq{}, [&, i](const ReplyEvent& ev) {
      ++calls[i];
      order.push_back(i);
      ASSERT_EQ(ev.outcome, ReplyOutcome::kAck);
      gens[i] = std::get<LockReply>(ev.body).gen;
    });
  }
  f.engine.run_until(sim::SimTime{} + sim::millis(1));
  ASSERT_EQ(f.server_rx.size(), static_cast<std::size_t>(kRequests));
  EXPECT_EQ(f.transport.pending_requests(), static_cast<std::size_t>(kRequests));

  auto ack = [&](int i) {
    Frame reply;
    reply.kind = FrameKind::kAck;
    reply.sender = NodeId{1};
    reply.msg_id = f.server_rx[i].msg_id;
    reply.epoch = f.server_rx[i].epoch;
    reply.body = ReplyBody{LockReply{true, LockMode::kShared, static_cast<std::uint32_t>(i), 0}};
    f.net.send(NodeId{1}, NodeId{100}, encode(reply));
  };
  for (int i = kRequests - 1; i >= 0; --i) ack(i);
  for (int i = 0; i < kRequests; ++i) ack(i);  // duplicates of every reply
  f.engine.run();

  EXPECT_EQ(order, (std::vector<int>{4, 3, 2, 1, 0}));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(calls[i], 1) << "request " << i;
    EXPECT_EQ(gens[i], static_cast<std::uint32_t>(i)) << "request " << i;
  }
  EXPECT_EQ(f.transport.pending_requests(), 0u);
  EXPECT_EQ(f.counters.retransmissions, 0u);
}

TEST(ClientTransport, StopCancelsEveryRetryTimer) {
  Fixture f;
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    f.transport.send_request(KeepAliveReq{}, [&](const ReplyEvent&) { ++fired; });
  }
  f.engine.run_until(sim::SimTime{} + sim::millis(1));  // requests delivered
  EXPECT_EQ(f.engine.events_pending(), 5u);              // one retry timer each
  f.transport.stop();
  EXPECT_EQ(f.engine.events_pending(), 0u);
  EXPECT_EQ(f.transport.pending_requests(), 0u);
  f.engine.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(f.server_rx.size(), 5u);  // no retransmission went out
}

TEST(ClientTransport, LeaseOnlyCounted) {
  Fixture f;
  f.auto_ack = true;
  f.transport.send_request(KeepAliveReq{}, [](const ReplyEvent&) {}, /*lease_only=*/true);
  f.transport.send_request(GetAttrReq{FileId{1}}, [](const ReplyEvent&) {});
  f.engine.run();
  EXPECT_EQ(f.counters.lease_only_msgs, 1u);
}

TEST(ClientTransport, FirstSendPreservedAcrossRetransmissions) {
  Fixture f;
  // Drop the first two copies by detaching the server handler briefly.
  f.net.detach(NodeId{1});
  std::optional<ReplyEvent> got;
  f.transport.send_request(KeepAliveReq{}, [&](const ReplyEvent& ev) { got = ev; });
  // Re-attach after 150ms so the second retransmission gets through.
  FnRx acker([&](NodeId from, const Bytes& dg) {
    auto fr = decode(dg);
    ASSERT_TRUE(fr);
    if (fr->kind == FrameKind::kRequest) {
      Frame reply;
      reply.kind = FrameKind::kAck;
      reply.sender = NodeId{1};
      reply.msg_id = fr->msg_id;
      reply.epoch = fr->epoch;
      reply.body = ReplyBody{OkReply{}};
      f.net.send(NodeId{1}, from, encode(reply));
    }
  });
  f.engine.schedule_after(sim::millis(150), [&]() {
    f.auto_ack = true;
    f.net.attach(NodeId{1}, acker);
  });
  f.engine.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->outcome, ReplyOutcome::kAck);
  // t_C1 is the FIRST transmission (t=0), not the retransmission that got
  // through — the conservative lease start.
  EXPECT_EQ(got->first_send.ns, 0);
}

// Regression: a duplicated or delayed NACK whose msg_id matches no pending
// request must not fire on_nack. Acting on it would re-latch a freshly
// re-registered client into phase 3.
TEST(ClientTransport, NackForUnknownRequestIgnored) {
  Fixture f;
  int nacks = 0;
  f.hooks.nack = [&]() { ++nacks; };
  Frame nack;
  nack.kind = FrameKind::kNack;
  nack.sender = NodeId{1};
  nack.msg_id = MsgId{999};  // never sent
  nack.epoch = 0;
  f.net.send(NodeId{1}, NodeId{100}, encode(nack));
  f.engine.run();
  EXPECT_EQ(nacks, 0);
}

// Regression: a NACK carrying a stale epoch (pre-recovery session) must be
// dropped exactly like a stale ACK; the request resolves via retransmission
// or timeout, and the lease agent is not poked.
TEST(ClientTransport, StaleEpochNackIgnored) {
  Fixture f;
  f.transport.set_epoch(5);
  int nacks = 0;
  f.hooks.nack = [&]() { ++nacks; };
  std::optional<ReplyEvent> got;
  f.transport.send_request(KeepAliveReq{}, [&](const ReplyEvent& ev) { got = ev; });
  f.engine.run_until(sim::SimTime{} + sim::micros(150));
  ASSERT_EQ(f.server_rx.size(), 1u);
  Frame nack;
  nack.kind = FrameKind::kNack;
  nack.sender = NodeId{1};
  nack.msg_id = f.server_rx[0].msg_id;
  nack.epoch = 4;  // stale session
  f.net.send(NodeId{1}, NodeId{100}, encode(nack));
  f.engine.run();
  EXPECT_EQ(nacks, 0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->outcome, ReplyOutcome::kTimeout);
}

// Regression: an ErrReply{kStaleSession} is an ACK at the frame level but
// must NOT renew the lease — the answering server holds no session (and no
// locks) for us. It fires the stale-session hook instead, and the handler
// still sees the reply.
TEST(ClientTransport, StaleSessionReplyDoesNotRenew) {
  Fixture f;
  int renews = 0;
  int stale = 0;
  f.hooks.ack = [&](sim::LocalTime) { ++renews; };
  f.hooks.stale_session = [&]() { ++stale; };
  std::optional<ReplyEvent> got;
  f.transport.send_request(KeepAliveReq{}, [&](const ReplyEvent& ev) { got = ev; });
  f.engine.run_until(sim::SimTime{} + sim::micros(150));
  ASSERT_EQ(f.server_rx.size(), 1u);
  Frame reply;
  reply.kind = FrameKind::kAck;
  reply.sender = NodeId{1};
  reply.msg_id = f.server_rx[0].msg_id;
  reply.epoch = 0;
  reply.body = ReplyBody{ErrReply{ErrorCode::kStaleSession}};
  f.net.send(NodeId{1}, NodeId{100}, encode(reply));
  f.engine.run();
  EXPECT_EQ(renews, 0);
  EXPECT_EQ(stale, 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->outcome, ReplyOutcome::kAck);
}

// Regression: epoch NUMBERS repeat across server incarnations (each numbers
// from 1), so a numeric epoch match is not proof a reply belongs to the
// current registration. A stale-session reply to a request sent under an
// EARLIER session must not tear the fresh session down again.
TEST(ClientTransport, StaleSessionFromPriorSessionIgnored) {
  Fixture f;
  f.transport.set_epoch(1);  // first registration
  int stale = 0;
  f.hooks.stale_session = [&]() { ++stale; };
  f.transport.send_request(KeepAliveReq{}, [](const ReplyEvent&) {});
  f.engine.run_until(sim::SimTime{} + sim::micros(150));
  ASSERT_EQ(f.server_rx.size(), 1u);
  // Re-registration with a new incarnation that happens to hand out the
  // same epoch number.
  f.transport.set_epoch(1);
  Frame reply;
  reply.kind = FrameKind::kAck;
  reply.sender = NodeId{1};
  reply.msg_id = f.server_rx[0].msg_id;
  reply.epoch = 1;  // numerically current, but the request predates the session
  reply.body = ReplyBody{ErrReply{ErrorCode::kStaleSession}};
  f.net.send(NodeId{1}, NodeId{100}, encode(reply));
  f.engine.run();
  EXPECT_EQ(stale, 0);
}

// Same collision for NACKs: one aimed at a prior-session request must not
// latch the rebuilt lease into ride-down.
TEST(ClientTransport, NackFromPriorSessionIgnored) {
  Fixture f;
  f.transport.set_epoch(1);
  int nacks = 0;
  f.hooks.nack = [&]() { ++nacks; };
  f.transport.send_request(KeepAliveReq{}, [](const ReplyEvent&) {});
  f.engine.run_until(sim::SimTime{} + sim::micros(150));
  ASSERT_EQ(f.server_rx.size(), 1u);
  f.transport.set_epoch(1);  // new session, colliding epoch number
  Frame nack;
  nack.kind = FrameKind::kNack;
  nack.sender = NodeId{1};
  nack.msg_id = f.server_rx[0].msg_id;
  nack.epoch = 1;
  f.net.send(NodeId{1}, NodeId{100}, encode(nack));
  f.engine.run();
  EXPECT_EQ(nacks, 0);
}

// Regression: the dedup window is bounded (reply_cache_size = 16 here), so a
// duplicate older than the window would be re-delivered without the monotone
// low-water mark. Push enough fresh server msgs to evict the first ones,
// then replay an evicted id: it must be re-ACKed but NOT re-delivered.
TEST(ClientTransport, DedupLowWaterSurvivesCacheEviction) {
  Fixture f;
  int deliveries = 0;
  f.hooks.server_msg = [&](const ServerBody&) { ++deliveries; };
  for (std::uint64_t id = 1; id <= 20; ++id) {
    f.send_server_msg_frame(ServerBody{LockDemand{FileId{1}, LockMode::kNone, 1}}, id);
  }
  f.engine.run();
  EXPECT_EQ(deliveries, 20);
  // Ids 1..4 have been evicted from the window; the low-water mark covers them.
  f.send_server_msg_frame(ServerBody{LockDemand{FileId{1}, LockMode::kNone, 1}}, 3);
  f.engine.run();
  EXPECT_EQ(deliveries, 20);                    // not re-delivered
  EXPECT_EQ(f.counters.client_acks_sent, 21u);  // but re-ACKed
}

// Received datagrams are decoded over one frame per thread, so a delivery
// nested inside another would clobber it: that must abort, not misread.
TEST(ClientTransportDeathTest, ReenteredReceiveAborts) {
  Fixture f;
  Frame demand;
  demand.kind = FrameKind::kServerMsg;
  demand.sender = NodeId{1};
  demand.msg_id = MsgId{1};
  demand.body = ServerBody{LockDemand{FileId{1}, LockMode::kNone, 1}};
  const Bytes dg = encode(demand);
  f.hooks.server_msg = [&](const ServerBody&) { f.transport.inject_datagram(dg); };
  EXPECT_DEATH(f.transport.inject_datagram(dg), "re-entered");
}

// And the low-water mark resets per epoch: the new incarnation's id sequence
// starts over, so id 3 under a NEW epoch is fresh, not a duplicate.
TEST(ClientTransport, DedupLowWaterResetsOnNewEpoch) {
  Fixture f;
  int deliveries = 0;
  f.hooks.server_msg = [&](const ServerBody&) { ++deliveries; };
  for (std::uint64_t id = 1; id <= 20; ++id) {
    f.send_server_msg_frame(ServerBody{LockDemand{FileId{1}, LockMode::kNone, 1}}, id);
  }
  f.engine.run();
  EXPECT_EQ(deliveries, 20);
  f.transport.set_epoch(2);
  f.send_server_msg_frame(ServerBody{LockDemand{FileId{1}, LockMode::kNone, 1}}, 3,
                          /*epoch=*/2);
  f.engine.run();
  EXPECT_EQ(deliveries, 21);
}

// Regression for the cross-incarnation replay hole found by fuzz_safety
// --byzantine (replay-old-session): epoch numbers restart at 1 in every
// server incarnation, so a replayed server msg from a PREVIOUS incarnation
// can collide with the live (epoch, msg_id) pair exactly. The incarnation
// stamp on the frame is the only thing that unmasks it.
TEST(ClientTransport, ServerMsgFromDeadIncarnationDropped) {
  Fixture f;
  f.transport.set_session(/*epoch=*/1, /*incarnation=*/2);
  int deliveries = 0;
  f.hooks.server_msg = [&](const ServerBody&) { ++deliveries; };

  Frame stale;
  stale.kind = FrameKind::kServerMsg;
  stale.sender = NodeId{1};
  stale.msg_id = MsgId{1};
  stale.epoch = 1;  // numerically identical to the live session's epoch
  stale.incarnation = 1;  // ...but minted by the dead incarnation
  stale.body = ServerBody{LockDemand{FileId{1}, LockMode::kNone, 1}};
  f.net.send(NodeId{1}, NodeId{100}, encode(stale));
  f.engine.run();
  EXPECT_EQ(deliveries, 0);

  Frame live = stale;
  live.incarnation = 2;
  f.net.send(NodeId{1}, NodeId{100}, encode(live));
  f.engine.run();
  EXPECT_EQ(deliveries, 1);
}

TEST(ClientTransport, RejectedFramesDroppedAndCounted) {
  Fixture f;
  int deliveries = 0;
  f.hooks.server_msg = [&](const ServerBody&) { ++deliveries; };
  f.net.send(NodeId{1}, NodeId{100}, Bytes{0xde, 0xad, 0xbe, 0xef});  // undecodable
  Frame req;  // decodes, but clients never accept requests
  req.kind = FrameKind::kRequest;
  req.sender = NodeId{1};
  req.msg_id = MsgId{1};
  req.body = RequestBody{KeepAliveReq{}};
  f.net.send(NodeId{1}, NodeId{100}, encode(req));
  f.engine.run();
  EXPECT_EQ(f.counters.frames_rejected, 2u);
  EXPECT_EQ(deliveries, 0);
  EXPECT_TRUE(f.server_rx.empty());  // nothing answered
}

}  // namespace
}  // namespace stank::protocol
