#include "server/server.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <optional>

#include "protocol/codec.hpp"

namespace stank::server {
namespace {

using protocol::Frame;
using protocol::FrameKind;
using protocol::LockMode;

// Drives the real Server through the datagram layer with a scripted client.
struct Fixture {
  sim::Engine engine;
  net::ControlNet net;
  storage::SanFabric san;
  std::unique_ptr<Server> server;
  std::vector<Frame> rx;  // everything the fake client received
  std::uint64_t next_msg{1};
  std::uint32_t epoch{0};
  bool auto_ack_server_msgs{true};
  // The fake clients' receivers; a deque, so attached ones never move.
  std::deque<net::FnReceiver<std::function<void(NodeId, Bytes&)>>> clients;

  explicit Fixture(ServerConfig cfg = make_cfg()) : net(engine, sim::Rng(1), {}),
                                                    san(engine, sim::Rng(2)) {
    san.add_disk(DiskId{1}, 1024, 64);
    server = std::make_unique<Server>(engine, net, san, sim::LocalClock(1.0), cfg);
    server->start();
    attach_client(NodeId{100});
  }

  static ServerConfig make_cfg() {
    ServerConfig cfg;
    cfg.id = NodeId{1};
    cfg.lease.tau = sim::local_seconds(5);
    cfg.lease.epsilon = 0.01;
    cfg.block_size = 64;
    cfg.data_disks = {DiskId{1}};
    cfg.demand_timeout = sim::local_seconds(3);
    return cfg;
  }

  void attach_client(NodeId id) {
    net.attach(id, clients.emplace_back([this, id](NodeId from, const Bytes& dg) {
      auto f = protocol::decode(dg);
      ASSERT_TRUE(f.has_value());
      rx.push_back(*f);
      if (f->kind == FrameKind::kServerMsg && auto_ack_server_msgs) {
        Frame ack;
        ack.kind = FrameKind::kClientAck;
        ack.sender = id;
        ack.msg_id = f->msg_id;
        ack.epoch = f->epoch;
        net.send(id, from, protocol::encode(ack));
      }
    }));
  }

  // Sends a request and runs the sim until its reply arrives (or 2s pass).
  std::optional<Frame> call(protocol::RequestBody body, NodeId from = NodeId{100},
                            std::optional<std::uint32_t> use_epoch = std::nullopt) {
    Frame f;
    f.kind = FrameKind::kRequest;
    f.sender = from;
    f.msg_id = MsgId{next_msg++};
    f.epoch = use_epoch.value_or(epoch);
    f.body = std::move(body);
    const MsgId id = f.msg_id;
    net.send(from, NodeId{1}, protocol::encode(f));
    const auto deadline = engine.now() + sim::seconds(2);
    while (engine.now() < deadline) {
      for (const auto& r : rx) {
        if ((r.kind == FrameKind::kAck || r.kind == FrameKind::kNack) && r.msg_id == id) {
          return r;
        }
      }
      if (!engine.step()) break;
    }
    for (const auto& r : rx) {
      if ((r.kind == FrameKind::kAck || r.kind == FrameKind::kNack) && r.msg_id == id) {
        return r;
      }
    }
    return std::nullopt;
  }

  void do_register(NodeId from = NodeId{100}) {
    auto r = call(protocol::RegisterReq{}, from);
    ASSERT_TRUE(r.has_value());
    ASSERT_EQ(r->kind, FrameKind::kAck);
    epoch = std::get<protocol::RegisterReply>(std::get<protocol::ReplyBody>(r->body)).epoch;
  }

  void run_for(double s) { engine.run_until(engine.now() + sim::seconds_d(s)); }
};

TEST(Server, RejectsUnregisteredClients) {
  Fixture f;
  auto r = f.call(protocol::KeepAliveReq{});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->kind, FrameKind::kNack);
}

TEST(Server, RegisterAssignsEpoch) {
  Fixture f;
  f.do_register();
  EXPECT_EQ(f.epoch, 1u);
  EXPECT_TRUE(f.server->session_valid(NodeId{100}));
  auto r = f.call(protocol::KeepAliveReq{});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->kind, FrameKind::kAck);
}

TEST(Server, StaleEpochNacked) {
  Fixture f;
  f.do_register();
  f.do_register();  // epoch 2
  auto r = f.call(protocol::KeepAliveReq{}, NodeId{100}, 1u);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->kind, FrameKind::kNack);
}

// A byzantine client replaying its own recorded datagrams from an earlier
// session must bounce off the epoch gate even when every OTHER credential in
// the frame (generation, grant cookie) is genuine. Without this, a release
// captured in session 1 could tear down state re-established in session 2.
TEST(Server, ReplayedOldSessionReleaseRejected) {
  Fixture f;
  f.do_register();
  const auto old_epoch = f.epoch;
  auto file = f.server->preallocate("/f", 64).value();
  auto r = f.call(protocol::LockReq{file, LockMode::kExclusive});
  const auto& rep = std::get<protocol::LockReply>(std::get<protocol::ReplyBody>(r->body));
  ASSERT_TRUE(rep.granted);

  f.do_register();  // session 2; the lock itself survives re-registration
  ASSERT_NE(f.epoch, old_epoch);
  EXPECT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kExclusive);

  // Replay of the genuine release datagram, stamped with the dead epoch.
  auto replayed =
      f.call(protocol::UnlockReq{file, LockMode::kNone, rep.gen, rep.cookie}, NodeId{100},
             old_epoch);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(replayed->kind, FrameKind::kNack);
  EXPECT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kExclusive);

  // The same body under the live epoch is honored.
  f.call(protocol::UnlockReq{file, LockMode::kNone, rep.gen, rep.cookie});
  EXPECT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kNone);
}

TEST(Server, OpenCreatesFile) {
  Fixture f;
  f.do_register();
  auto r = f.call(protocol::OpenReq{"/new", true});
  ASSERT_TRUE(r.has_value());
  const auto& rep = std::get<protocol::OpenReply>(std::get<protocol::ReplyBody>(r->body));
  EXPECT_EQ(rep.attr.size, 0u);
  auto r2 = f.call(protocol::OpenReq{"/new", false});
  const auto& rep2 = std::get<protocol::OpenReply>(std::get<protocol::ReplyBody>(r2->body));
  EXPECT_EQ(rep2.file, rep.file);
}

TEST(Server, OpenMissingWithoutCreateErrs) {
  Fixture f;
  f.do_register();
  auto r = f.call(protocol::OpenReq{"/nope", false});
  const auto& err = std::get<protocol::ErrReply>(std::get<protocol::ReplyBody>(r->body));
  EXPECT_EQ(err.code, ErrorCode::kNotFound);
}

TEST(Server, SetSizeAllocatesExtents) {
  Fixture f;
  f.do_register();
  auto open = f.call(protocol::OpenReq{"/f", true});
  const auto file =
      std::get<protocol::OpenReply>(std::get<protocol::ReplyBody>(open->body)).file;
  auto r = f.call(protocol::SetSizeReq{file, 640, false});  // 10 blocks of 64
  const auto& rep = std::get<protocol::AttrReply>(std::get<protocol::ReplyBody>(r->body));
  EXPECT_EQ(rep.attr.size, 640u);
  std::uint64_t blocks = 0;
  for (const auto& e : rep.extents) blocks += e.count;
  EXPECT_EQ(blocks, 10u);
}

TEST(Server, GrowOnlySetSizeIgnoresShrink) {
  Fixture f;
  f.do_register();
  auto file = f.server->preallocate("/f", 640).value();
  auto r = f.call(protocol::SetSizeReq{file, 64, false});
  const auto& rep = std::get<protocol::AttrReply>(std::get<protocol::ReplyBody>(r->body));
  EXPECT_EQ(rep.attr.size, 640u);  // unchanged
}

TEST(Server, TruncateShrinksAndFreesBlocks) {
  Fixture f;
  f.do_register();
  auto file = f.server->preallocate("/f", 640).value();
  auto r = f.call(protocol::SetSizeReq{file, 64, true});
  const auto& rep = std::get<protocol::AttrReply>(std::get<protocol::ReplyBody>(r->body));
  EXPECT_EQ(rep.attr.size, 64u);
  std::uint64_t blocks = 0;
  for (const auto& e : rep.extents) blocks += e.count;
  EXPECT_EQ(blocks, 1u);
}

TEST(Server, SetSizeBeyondDiskErrsNoSpace) {
  Fixture f;
  f.do_register();
  auto file = f.server->preallocate("/f", 0).value();
  auto r = f.call(protocol::SetSizeReq{file, 1024 * 64 + 1, false});
  const auto& err = std::get<protocol::ErrReply>(std::get<protocol::ReplyBody>(r->body));
  EXPECT_EQ(err.code, ErrorCode::kNoSpace);
}

TEST(Server, LockGrantImmediate) {
  Fixture f;
  f.do_register();
  auto file = f.server->preallocate("/f", 64).value();
  auto r = f.call(protocol::LockReq{file, LockMode::kExclusive});
  const auto& rep = std::get<protocol::LockReply>(std::get<protocol::ReplyBody>(r->body));
  EXPECT_TRUE(rep.granted);
  EXPECT_EQ(rep.mode, LockMode::kExclusive);
  EXPECT_GT(rep.gen, 0u);
  EXPECT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kExclusive);
}

TEST(Server, ConflictingLockQueuedAndDemandIssued) {
  Fixture f;
  f.attach_client(NodeId{101});
  f.do_register(NodeId{100});
  const auto epoch100 = f.epoch;
  f.do_register(NodeId{101});
  const auto epoch101 = f.epoch;

  auto file = f.server->preallocate("/f", 64).value();
  f.epoch = epoch100;
  auto r1 = f.call(protocol::LockReq{file, LockMode::kExclusive}, NodeId{100});
  const auto& rep1 = std::get<protocol::LockReply>(std::get<protocol::ReplyBody>(r1->body));
  ASSERT_TRUE(rep1.granted);
  const auto cookie100 = rep1.cookie;

  f.epoch = epoch101;
  auto r2 = f.call(protocol::LockReq{file, LockMode::kExclusive}, NodeId{101});
  EXPECT_FALSE(std::get<protocol::LockReply>(std::get<protocol::ReplyBody>(r2->body)).granted);
  f.run_for(0.01);

  // A demand went to client 100.
  bool saw_demand = false;
  std::uint32_t demand_gen = 0;
  for (const auto& fr : f.rx) {
    if (fr.kind == FrameKind::kServerMsg) {
      if (const auto* d =
              std::get_if<protocol::LockDemand>(&std::get<protocol::ServerBody>(fr.body))) {
        saw_demand = true;
        demand_gen = d->gen;
        EXPECT_EQ(d->max_mode, LockMode::kNone);
      }
    }
  }
  ASSERT_TRUE(saw_demand);

  // 100 complies; 101 receives the grant.
  f.epoch = epoch100;
  f.call(protocol::DemandDoneReq{file, LockMode::kNone, demand_gen, cookie100}, NodeId{100});
  f.run_for(0.01);
  bool saw_grant = false;
  for (const auto& fr : f.rx) {
    if (fr.kind == FrameKind::kServerMsg) {
      if (const auto* g =
              std::get_if<protocol::LockGrant>(&std::get<protocol::ServerBody>(fr.body))) {
        saw_grant = true;
        EXPECT_EQ(g->mode, LockMode::kExclusive);
      }
    }
  }
  EXPECT_TRUE(saw_grant);
  EXPECT_EQ(f.server->locks().mode_of(NodeId{101}, file), LockMode::kExclusive);
}

TEST(Server, StaleGenDemandDoneIgnored) {
  Fixture f;
  f.do_register();
  auto file = f.server->preallocate("/f", 64).value();
  auto r = f.call(protocol::LockReq{file, LockMode::kExclusive});
  const auto gen = std::get<protocol::LockReply>(std::get<protocol::ReplyBody>(r->body)).gen;
  // Compliance with a bogus (older) generation must not release the lock.
  f.call(protocol::DemandDoneReq{file, LockMode::kNone, gen - 1});
  EXPECT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kExclusive);
}

TEST(Server, StaleGenUnlockIgnored) {
  Fixture f;
  f.do_register();
  auto file = f.server->preallocate("/f", 64).value();
  auto r = f.call(protocol::LockReq{file, LockMode::kExclusive});
  const auto& rep = std::get<protocol::LockReply>(std::get<protocol::ReplyBody>(r->body));
  const auto gen = rep.gen;
  f.call(protocol::UnlockReq{file, LockMode::kNone, gen + 5, rep.cookie});
  EXPECT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kExclusive);
  f.call(protocol::UnlockReq{file, LockMode::kNone, gen, rep.cookie});
  EXPECT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kNone);
}

// Regression for the forged-release hole found by `fuzz_safety --byzantine`
// (forge-lock-claims): lock generations are small counters an attacker can
// guess, so a gen match alone must not authorize a release. An UnlockReq or
// DemandDoneReq with the correct generation but the wrong per-grant cookie
// has to be dropped, or a forger can release a victim's lock while the real
// grant is still in flight to it.
TEST(Server, ForgedReleaseWithGuessedGenRejected) {
  Fixture f;
  f.do_register();
  auto file = f.server->preallocate("/f", 64).value();
  auto r = f.call(protocol::LockReq{file, LockMode::kExclusive});
  const auto& rep = std::get<protocol::LockReply>(std::get<protocol::ReplyBody>(r->body));
  ASSERT_TRUE(rep.granted);
  ASSERT_NE(rep.cookie, 0u);

  // Correct gen, forged cookie: both release paths must be no-ops.
  f.call(protocol::UnlockReq{file, LockMode::kNone, rep.gen, rep.cookie ^ 0xdeadbeefull});
  EXPECT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kExclusive);
  f.call(protocol::DemandDoneReq{file, LockMode::kNone, rep.gen, rep.cookie ^ 0x1234ull});
  EXPECT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kExclusive);

  // The genuine cookie still works.
  f.call(protocol::UnlockReq{file, LockMode::kNone, rep.gen, rep.cookie});
  EXPECT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kNone);
}

TEST(Server, UndeliverableDemandStartsLeaseTimeoutThenStealsAndFences) {
  Fixture f;
  f.attach_client(NodeId{101});
  f.do_register(NodeId{100});
  const auto e100 = f.epoch;
  f.do_register(NodeId{101});
  const auto e101 = f.epoch;
  auto file = f.server->preallocate("/f", 64).value();
  f.epoch = e100;
  f.call(protocol::LockReq{file, LockMode::kExclusive}, NodeId{100});

  // 100 drops off the control network.
  f.net.reachability().sever_pair(NodeId{100}, NodeId{1});
  f.epoch = e101;
  f.call(protocol::LockReq{file, LockMode::kExclusive}, NodeId{101});

  // Retries exhaust (~2s), then tau(1+eps) = 5.05s.
  f.run_for(3.0);
  EXPECT_TRUE(f.server->authority().is_suspect(NodeId{100}));
  EXPECT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kExclusive);  // honored!
  f.run_for(6.0);
  EXPECT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kNone);
  EXPECT_EQ(f.server->locks().mode_of(NodeId{101}, file), LockMode::kExclusive);
  EXPECT_TRUE(f.san.disk(DiskId{1}).is_fenced(NodeId{100}));
  EXPECT_FALSE(f.server->session_valid(NodeId{100}));
  EXPECT_EQ(f.server->counters().lock_steals, 1u);
  EXPECT_EQ(f.server->counters().fences_issued, 1u);
}

TEST(Server, ReregisterAfterStealUnfences) {
  Fixture f;
  f.do_register();
  auto file = f.server->preallocate("/f", 64).value();
  f.call(protocol::LockReq{file, LockMode::kExclusive});
  f.server->inject_delivery_failure(NodeId{100});
  f.run_for(6.0);
  EXPECT_TRUE(f.san.disk(DiskId{1}).is_fenced(NodeId{100}));

  auto r = f.call(protocol::RegisterReq{});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->kind, FrameKind::kAck);
  const auto new_epoch =
      std::get<protocol::RegisterReply>(std::get<protocol::ReplyBody>(r->body)).epoch;
  EXPECT_EQ(new_epoch, 2u);
  f.run_for(0.01);
  EXPECT_FALSE(f.san.disk(DiskId{1}).is_fenced(NodeId{100}));
}

TEST(Server, RegisterNackedWhileTimerRuns) {
  Fixture f;
  f.do_register();
  f.server->inject_delivery_failure(NodeId{100});
  auto r = f.call(protocol::RegisterReq{});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->kind, FrameKind::kNack);  // conservative protocol
}

// A RegisterReq that arrives while the client is being fenced is refused
// before the lease authority is asked: the client stays failed, so the ACK
// gate stays shut and a request under its old epoch is NACKed until the
// steal lands.
TEST(Server, RegisterDuringFenceKeepsTheClientFailed) {
  Fixture f;
  f.do_register();
  const std::uint32_t old_epoch = f.epoch;
  auto file = f.server->preallocate("/f", 64).value();
  f.call(protocol::LockReq{file, LockMode::kExclusive});
  f.san.reachability().sever(NodeId{1}, DiskId{1});  // the fence keeps retrying
  f.server->inject_delivery_failure(NodeId{100});
  f.run_for(6.0);  // past tau(1+eps) = 5.05 s: failed, fencing
  ASSERT_TRUE(f.server->authority().is_failed(NodeId{100}));
  ASSERT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kExclusive);

  auto reg = f.call(protocol::RegisterReq{});
  ASSERT_TRUE(reg.has_value());
  EXPECT_EQ(reg->kind, FrameKind::kNack);
  EXPECT_TRUE(f.server->authority().is_failed(NodeId{100}));
  auto old = f.call(protocol::KeepAliveReq{}, NodeId{100}, old_epoch);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->kind, FrameKind::kNack);

  f.san.reachability().restore(NodeId{1}, DiskId{1});
  f.run_for(0.5);
  EXPECT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kNone);
  EXPECT_EQ(f.server->counters().lock_steals, 1u);
  old = f.call(protocol::KeepAliveReq{}, NodeId{100}, old_epoch);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->kind, FrameKind::kNack);
  f.do_register();
  EXPECT_EQ(f.epoch, old_epoch + 1);
  EXPECT_FALSE(f.server->authority().is_failed(NodeId{100}));
}

TEST(Server, NaiveStealActsImmediately) {
  auto cfg = Fixture::make_cfg();
  cfg.recovery = RecoveryMode::kNaiveSteal;
  Fixture f(cfg);
  f.do_register();
  auto file = f.server->preallocate("/f", 64).value();
  f.call(protocol::LockReq{file, LockMode::kExclusive});
  f.server->inject_delivery_failure(NodeId{100});
  f.run_for(0.01);
  EXPECT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kNone);
  EXPECT_FALSE(f.san.disk(DiskId{1}).is_fenced(NodeId{100}));  // no fence
}

// Fence-only recovery fences at once and steals once every disk acked: one
// delivery failure is one fence, counted once.
TEST(Server, FenceOnlyCountsOneFencePerFailure) {
  auto cfg = Fixture::make_cfg();
  cfg.recovery = RecoveryMode::kFenceOnly;
  Fixture f(cfg);
  f.do_register();
  auto file = f.server->preallocate("/f", 64).value();
  f.call(protocol::LockReq{file, LockMode::kExclusive});
  f.server->inject_delivery_failure(NodeId{100});
  f.run_for(0.01);
  EXPECT_TRUE(f.san.disk(DiskId{1}).is_fenced(NodeId{100}));
  EXPECT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kNone);
  EXPECT_EQ(f.server->counters().lock_steals, 1u);
  EXPECT_EQ(f.server->counters().fences_issued, 1u);
}

// A fence that cannot complete (the server's SAN path is cut) is one
// recovery under way: a second delivery failure for the same client joins it
// instead of starting a second fence chain.
TEST(Server, SecondDeliveryFailureDuringFenceIssuesOneFence) {
  auto cfg = Fixture::make_cfg();
  cfg.recovery = RecoveryMode::kFenceOnly;
  Fixture f(cfg);
  f.do_register();
  auto file = f.server->preallocate("/f", 64).value();
  f.call(protocol::LockReq{file, LockMode::kExclusive});
  f.san.reachability().sever(NodeId{1}, DiskId{1});
  f.server->inject_delivery_failure(NodeId{100});
  f.run_for(0.05);
  f.server->inject_delivery_failure(NodeId{100});
  f.run_for(0.5);
  EXPECT_EQ(f.server->counters().fences_issued, 1u);
  EXPECT_EQ(f.server->counters().lock_steals, 0u);
  EXPECT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kExclusive);

  f.san.reachability().restore(NodeId{1}, DiskId{1});
  f.run_for(0.5);
  EXPECT_TRUE(f.san.disk(DiskId{1}).is_fenced(NodeId{100}));
  EXPECT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kNone);
  EXPECT_EQ(f.server->counters().lock_steals, 1u);
  EXPECT_EQ(f.server->counters().fences_issued, 1u);
}

TEST(Server, NoRecoveryHonorsLocksForever) {
  auto cfg = Fixture::make_cfg();
  cfg.recovery = RecoveryMode::kNoRecovery;
  Fixture f(cfg);
  f.do_register();
  auto file = f.server->preallocate("/f", 64).value();
  f.call(protocol::LockReq{file, LockMode::kExclusive});
  f.server->inject_delivery_failure(NodeId{100});
  f.run_for(60.0);
  EXPECT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kExclusive);
  EXPECT_EQ(f.server->counters().lock_steals, 0u);
}

TEST(Server, DataShippingReadsAndWrites) {
  Fixture f;
  f.do_register();
  auto file = f.server->preallocate("/f", 0).value();
  Bytes payload(100, 0x5A);
  auto w = f.call(protocol::WriteDataReq{file, 10, payload});
  ASSERT_TRUE(w.has_value());
  EXPECT_TRUE(std::holds_alternative<protocol::OkReply>(std::get<protocol::ReplyBody>(w->body)));

  auto r = f.call(protocol::ReadDataReq{file, 10, 100});
  const auto& rep = std::get<protocol::DataReply>(std::get<protocol::ReplyBody>(r->body));
  EXPECT_EQ(rep.data, payload);
  EXPECT_EQ(f.server->counters().server_data_bytes, 200u);
}

TEST(Server, DataShippingReadClampsAtEof) {
  Fixture f;
  f.do_register();
  auto file = f.server->preallocate("/f", 0).value();
  f.call(protocol::WriteDataReq{file, 0, Bytes(50, 1)});
  auto r = f.call(protocol::ReadDataReq{file, 40, 100});
  const auto& rep = std::get<protocol::DataReply>(std::get<protocol::ReplyBody>(r->body));
  EXPECT_EQ(rep.data.size(), 10u);
}

TEST(Server, KeepAliveIsNotATransaction) {
  Fixture f;
  f.do_register();
  const auto before = f.server->counters().transactions;
  f.call(protocol::KeepAliveReq{});
  EXPECT_EQ(f.server->counters().transactions, before);
}

TEST(Server, StorageTankServerKeepsZeroLeaseState) {
  Fixture f;
  f.do_register();
  auto file = f.server->preallocate("/f", 64).value();
  f.call(protocol::LockReq{file, LockMode::kExclusive});
  for (int i = 0; i < 20; ++i) {
    f.call(protocol::KeepAliveReq{});
    f.call(protocol::GetAttrReq{file});
  }
  EXPECT_EQ(f.server->lease_state_bytes(), 0u);
  EXPECT_EQ(f.server->counters().lease_ops, 0u);
}

TEST(Server, FrangipaniServerTracksHeartbeats) {
  auto cfg = Fixture::make_cfg();
  cfg.strategy = LeaseStrategy::kFrangipani;
  Fixture f(cfg);
  f.do_register();
  EXPECT_GT(f.server->lease_state_bytes(), 0u);  // one table entry already
  const auto ops_before = f.server->counters().lease_ops;
  f.call(protocol::KeepAliveReq{});
  EXPECT_GT(f.server->counters().lease_ops, ops_before);
}

TEST(Server, VLeaseServerTracksPerObjectLeases) {
  auto cfg = Fixture::make_cfg();
  cfg.strategy = LeaseStrategy::kVLeases;
  Fixture f(cfg);
  f.do_register();
  auto fa = f.server->preallocate("/a", 64).value();
  auto fb = f.server->preallocate("/b", 64).value();
  f.call(protocol::LockReq{fa, LockMode::kShared});
  const auto one = f.server->lease_state_bytes();
  EXPECT_GT(one, 0u);
  f.call(protocol::LockReq{fb, LockMode::kShared});
  EXPECT_GT(f.server->lease_state_bytes(), one);
  f.call(protocol::RenewObjReq{fa});
  EXPECT_GT(f.server->counters().lease_ops, 0u);
}

// The baselines keep the leases they grant, so after a delivery failure the
// server waits out the lease its table recorded, stretched by the clock
// bound, and re-checks it before stealing. eps = 0.1 keeps the stretch wide.
ServerConfig baseline_cfg(LeaseStrategy strategy) {
  auto cfg = Fixture::make_cfg();
  cfg.strategy = strategy;
  cfg.lease.epsilon = 0.1;
  return cfg;
}

TEST(Server, FrangipaniStealWaitsOutRecordedExpiryTimesOnePlusEps) {
  Fixture f(baseline_cfg(LeaseStrategy::kFrangipani));
  f.do_register();  // the table records expiry = registration + tau
  auto file = f.server->preallocate("/f", 64).value();
  f.call(protocol::LockReq{file, LockMode::kExclusive});
  f.server->inject_delivery_failure(NodeId{100});
  // The recorded expiry is just under 5 s away; waiting it out x1.1 puts the
  // steal just under 5.5 s.
  f.run_for(5.3);
  EXPECT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kExclusive);
  EXPECT_EQ(f.server->counters().lock_steals, 0u);
  f.run_for(0.5);
  EXPECT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kNone);
  EXPECT_EQ(f.server->counters().lock_steals, 1u);
  EXPECT_FALSE(f.server->session_valid(NodeId{100}));
}

TEST(Server, FrangipaniHeartbeatDuringWaitPreventsSteal) {
  Fixture f(baseline_cfg(LeaseStrategy::kFrangipani));
  f.do_register();
  auto file = f.server->preallocate("/f", 64).value();
  f.call(protocol::LockReq{file, LockMode::kExclusive});
  f.server->inject_delivery_failure(NodeId{100});
  f.run_for(2.0);
  auto r = f.call(protocol::KeepAliveReq{});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->kind, FrameKind::kAck);
  f.run_for(10.0);  // past the wait and past the renewed lease's expiry
  EXPECT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kExclusive);
  EXPECT_EQ(f.server->counters().lock_steals, 0u);
  EXPECT_TRUE(f.server->session_valid(NodeId{100}));
}

TEST(Server, VLeaseRenewalDuringWaitRearmsTheSteal) {
  Fixture f(baseline_cfg(LeaseStrategy::kVLeases));
  f.do_register();
  auto file = f.server->preallocate("/f", 64).value();
  f.call(protocol::LockReq{file, LockMode::kExclusive});  // object lease: +5 s
  f.server->inject_delivery_failure(NodeId{100});         // steal at ~5.5 s
  f.run_for(2.0);
  auto r = f.call(protocol::RenewObjReq{file});  // object lease now ends at ~7 s
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->kind, FrameKind::kAck);
  // The first wait ends at ~5.5 s, finds the renewal and waits again:
  // 5.5 + (7 - 5.5) x 1.1 = ~7.15 s.
  f.run_for(3.8);
  EXPECT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kExclusive);
  EXPECT_EQ(f.server->counters().lock_steals, 0u);
  f.run_for(1.6);
  EXPECT_EQ(f.server->locks().mode_of(NodeId{100}, file), LockMode::kNone);
  EXPECT_EQ(f.server->counters().lock_steals, 1u);
}

TEST(Server, CrashCancelsBaselineStealWait) {
  for (LeaseStrategy strategy : {LeaseStrategy::kVLeases, LeaseStrategy::kFrangipani}) {
    SCOPED_TRACE(core::to_string(strategy));
    Fixture f(baseline_cfg(strategy));
    f.do_register();
    auto file = f.server->preallocate("/f", 64).value();
    f.call(protocol::LockReq{file, LockMode::kExclusive});
    f.server->inject_delivery_failure(NodeId{100});
    f.run_for(1.0);
    f.server->crash();
    f.server->restart();
    f.do_register();  // no wait survives the crash to refuse or revoke this
    f.run_for(10.0);
    EXPECT_EQ(f.server->counters().fences_issued, 0u);
    EXPECT_TRUE(f.server->session_valid(NodeId{100}));
    EXPECT_FALSE(f.san.disk(DiskId{1}).is_fenced(NodeId{100}));
  }
}

TEST(ServerDeathTest, AuthorityOfBaselineServerAborts) {
  Fixture f(baseline_cfg(LeaseStrategy::kVLeases));
  EXPECT_DEATH((void)f.server->authority(), "v-leases");
}

}  // namespace
}  // namespace stank::server
