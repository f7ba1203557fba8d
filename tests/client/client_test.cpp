// Full-stack client tests: a real Client against a real Server over the
// simulated networks.
#include "client/client.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "obs/recorder.hpp"
#include "server/server.hpp"
#include "verify/stamp.hpp"

namespace stank::client {
namespace {

using protocol::LockMode;

struct Fixture {
  sim::Engine engine;
  net::ControlNet net;
  storage::SanFabric san;
  std::unique_ptr<server::Server> server;
  std::vector<std::unique_ptr<Client>> clients;
  static constexpr std::uint32_t kBs = 64;

  // `tweak` adjusts the server's and every client's config before they start.
  using Tweak = std::function<void(server::ServerConfig&, ClientConfig&)>;

  explicit Fixture(int num_clients = 2,
                   core::LeaseStrategy strategy = core::LeaseStrategy::kStorageTank,
                   obs::Recorder* rec = nullptr, const Tweak& tweak = nullptr)
      : net(engine, sim::Rng(1), {}), san(engine, sim::Rng(2)) {
    if (rec != nullptr) rec->bind_engine(engine);
    san.add_disk(DiskId{1}, 4096, kBs);

    server::ServerConfig scfg;
    scfg.id = NodeId{1};
    scfg.lease.tau = sim::local_seconds(5);
    scfg.block_size = kBs;
    scfg.data_disks = {DiskId{1}};
    scfg.strategy = strategy;
    scfg.demand_timeout = sim::local_seconds(3);
    ClientConfig base;
    if (tweak) tweak(scfg, base);
    server = std::make_unique<server::Server>(engine, net, san, sim::LocalClock(1.0), scfg);
    server->start();

    for (int i = 0; i < num_clients; ++i) {
      ClientConfig ccfg = base;
      ccfg.id = NodeId{100 + static_cast<std::uint32_t>(i)};
      ccfg.server = NodeId{1};
      ccfg.lease = scfg.lease;
      ccfg.strategy = strategy;
      ccfg.block_size = kBs;
      clients.push_back(
          std::make_unique<Client>(engine, net, san, sim::LocalClock(1.0), ccfg, rec));
      clients.back()->start();
    }
    run_for(0.5);  // registration completes
  }

  Client& c(int i) { return *clients[static_cast<std::size_t>(i)]; }
  void run_for(double s) { engine.run_until(engine.now() + sim::seconds_d(s)); }

  Fd must_open(int ci, const std::string& path, bool create = true) {
    std::optional<Result<Fd>> res;
    c(ci).open(path, create, [&](Result<Fd> r) { res = r; });
    run_for(0.1);
    EXPECT_TRUE(res.has_value() && res->ok()) << "open failed";
    return res->value();
  }

  Status must_write(int ci, Fd fd, std::uint64_t off, Bytes data) {
    std::optional<Status> st;
    c(ci).write(fd, off, std::move(data), [&](Status s) { st = s; });
    run_for(0.2);
    EXPECT_TRUE(st.has_value());
    return st.value_or(Status{ErrorCode::kTimeout});
  }

  Result<Bytes> must_read(int ci, Fd fd, std::uint64_t off, std::uint32_t len) {
    std::optional<Result<Bytes>> res;
    c(ci).read(fd, off, len, [&](Result<Bytes> r) { res = std::move(r); });
    run_for(0.2);
    EXPECT_TRUE(res.has_value());
    return res.has_value() ? std::move(*res) : Result<Bytes>(ErrorCode::kTimeout);
  }
};

TEST(Client, RegistersOnStart) {
  Fixture f;
  EXPECT_TRUE(f.c(0).registered());
  EXPECT_TRUE(f.c(0).accepting());
  EXPECT_EQ(f.c(0).lease_phase(), core::LeasePhase::kActive);
}

TEST(Client, OpenCreateReadBackEmpty) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  auto r = f.must_read(0, fd, 0, 64);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());  // zero-size file: EOF at once
}

TEST(Client, WriteExtendsAndReadsBack) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  Bytes data(100, 0x5A);
  ASSERT_TRUE(f.must_write(0, fd, 0, data).is_ok());
  auto r = f.must_read(0, fd, 0, 100);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), data);
  EXPECT_EQ(f.c(0).lock_mode(fd), LockMode::kExclusive);
}

TEST(Client, WriteIsWriteBackNotWriteThrough) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(64, 1)).is_ok());
  EXPECT_GT(f.c(0).cache().dirty_count(), 0u);
  // The disk has NOT seen the data yet.
  EXPECT_FALSE(f.san.disk(DiskId{1}).ever_written(0));
}

TEST(Client, FsyncHardensDirtyData) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(64, 7)).is_ok());
  std::optional<Status> st;
  f.c(0).fsync(fd, [&](Status s) { st = s; });
  f.run_for(0.1);
  ASSERT_TRUE(st.has_value() && st->is_ok());
  EXPECT_EQ(f.c(0).cache().dirty_count(), 0u);
  EXPECT_EQ(f.san.disk(DiskId{1}).writes_served(), 1u);
}

TEST(Client, UnalignedWriteReadModifyWrite) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(128, 0xAA)).is_ok());
  // Overwrite 10 bytes in the middle, spanning no block boundary.
  ASSERT_TRUE(f.must_write(0, fd, 30, Bytes(10, 0xBB)).is_ok());
  auto r = f.must_read(0, fd, 0, 128);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[29], 0xAA);
  EXPECT_EQ(r.value()[30], 0xBB);
  EXPECT_EQ(r.value()[39], 0xBB);
  EXPECT_EQ(r.value()[40], 0xAA);
}

TEST(Client, CoherentReadAcrossClients) {
  Fixture f;
  Fd fd0 = f.must_open(0, "/shared");
  ASSERT_TRUE(f.must_write(0, fd0, 0, Bytes(64, 0x11)).is_ok());
  // Client 1 reads: server demands client 0 down, dirty data flushes.
  Fd fd1 = f.must_open(1, "/shared", false);
  auto r = f.must_read(1, fd1, 0, 64);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), Bytes(64, 0x11));
  // Client 0 was downgraded to shared; both can now read.
  EXPECT_EQ(f.c(0).lock_mode(fd0), LockMode::kShared);
  EXPECT_EQ(f.c(1).lock_mode(fd1), LockMode::kShared);
}

TEST(Client, WriteStealsReadersLocks) {
  Fixture f;
  Fd fd0 = f.must_open(0, "/shared");
  ASSERT_TRUE(f.must_write(0, fd0, 0, Bytes(64, 1)).is_ok());
  Fd fd1 = f.must_open(1, "/shared", false);
  ASSERT_TRUE(f.must_read(1, fd1, 0, 64).ok());
  // Now client 1 writes: demands client 0's shared away.
  ASSERT_TRUE(f.must_write(1, fd1, 0, Bytes(64, 2)).is_ok());
  EXPECT_EQ(f.c(1).lock_mode(fd1), LockMode::kExclusive);
  EXPECT_EQ(f.c(0).lock_mode(fd0), LockMode::kNone);
  // Client 0's cache of the file is gone (unprotected).
  EXPECT_EQ(f.c(0).cache().file_page_count(FileId{1}), 0u);
}

TEST(Client, CacheServesRepeatReadsWithoutIo) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(64, 3)).is_ok());
  std::optional<Status> st;
  f.c(0).fsync(fd, [&](Status s) { st = s; });
  f.run_for(0.1);
  const auto disk_reads = f.san.disk(DiskId{1}).reads_served();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(f.must_read(0, fd, 0, 64).ok());
  }
  EXPECT_EQ(f.san.disk(DiskId{1}).reads_served(), disk_reads);  // all cache hits
}

TEST(Client, CloseRetainsCacheAndLocks) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(64, 3)).is_ok());
  std::optional<Status> st;
  f.c(0).close(fd, [&](Status s) { st = s; });
  f.run_for(0.1);
  ASSERT_TRUE(st.has_value() && st->is_ok());
  EXPECT_GT(f.c(0).cache().page_count(), 0u);
  // Reads through the old fd fail now.
  auto r = f.must_read(0, fd, 0, 64);
  EXPECT_EQ(r.error(), ErrorCode::kBadHandle);
}

TEST(Client, ExplicitLockAndRelease) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  std::optional<Status> st;
  f.c(0).lock(fd, LockMode::kExclusive, [&](Status s) { st = s; });
  f.run_for(0.1);
  ASSERT_TRUE(st.has_value() && st->is_ok());
  EXPECT_EQ(f.c(0).lock_mode(fd), LockMode::kExclusive);

  st.reset();
  f.c(0).release(fd, LockMode::kNone, [&](Status s) { st = s; });
  f.run_for(0.1);
  ASSERT_TRUE(st.has_value() && st->is_ok());
  EXPECT_EQ(f.c(0).lock_mode(fd), LockMode::kNone);
}

TEST(Client, ReleaseWithDirtyDataFlushesFirst) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(64, 9)).is_ok());
  std::optional<Status> st;
  f.c(0).release(fd, LockMode::kNone, [&](Status s) { st = s; });
  f.run_for(0.2);
  ASSERT_TRUE(st.has_value() && st->is_ok());
  EXPECT_EQ(f.san.disk(DiskId{1}).writes_served(), 1u);  // flushed before ceding
}

constexpr core::LeaseStrategy kStrategies[] = {core::LeaseStrategy::kStorageTank,
                                               core::LeaseStrategy::kVLeases,
                                               core::LeaseStrategy::kFrangipani};

// Whatever the lease strategy: a crashed client also goes silent on the
// lease channel, so no renewal, heartbeat or keep-alive outlives the crash.
TEST(Client, CrashLosesVolatileState) {
  for (core::LeaseStrategy strategy : kStrategies) {
    SCOPED_TRACE(core::to_string(strategy));
    Fixture f(2, strategy);
    Fd fd = f.must_open(0, "/file");
    ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(64, 9)).is_ok());
    f.c(0).crash();
    EXPECT_TRUE(f.c(0).crashed());
    EXPECT_EQ(f.c(0).cache().page_count(), 0u);
    // API calls fail with kShutdown.
    std::optional<Result<Bytes>> r;
    f.c(0).read(fd, 0, 64, [&](Result<Bytes> res) { r = std::move(res); });
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->error(), ErrorCode::kShutdown);
    const std::uint64_t sent = f.c(0).counters().lease_only_msgs;
    f.run_for(15.0);  // 3 tau
    EXPECT_EQ(f.c(0).counters().lease_only_msgs, sent);
  }
}

// The same after the lease (or, for V-leases, the object's lease) lapses:
// the teardown leaves no lease machinery scheduled.
TEST(Client, LapsedLeaseSendsNoLeaseOnlyMessages) {
  for (core::LeaseStrategy strategy : kStrategies) {
    SCOPED_TRACE(core::to_string(strategy));
    Fixture f(1, strategy);
    const Fd fd = f.must_open(0, "/file");
    ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(64, 1)).is_ok());
    ASSERT_EQ(f.c(0).lock_mode(fd), LockMode::kExclusive);
    f.net.reachability().sever_pair(NodeId{100}, NodeId{1});
    f.run_for(8.0);  // tau = 5 s
    ASSERT_EQ(f.c(0).lock_mode(fd), LockMode::kNone);
    const std::uint64_t sent = f.c(0).counters().lease_only_msgs;
    f.run_for(15.0);  // 3 tau
    EXPECT_EQ(f.c(0).counters().lease_only_msgs, sent);
  }
}

TEST(Client, RestartReregistersWithFreshEpoch) {
  Fixture f;
  f.c(0).crash();
  f.run_for(0.1);
  f.c(0).restart();
  f.run_for(0.5);
  EXPECT_TRUE(f.c(0).registered());
  EXPECT_EQ(f.server->session_epoch(NodeId{100}), 2u);
}

TEST(Client, PartitionedClientWalksPhasesAndRecovers) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(64, 4)).is_ok());
  f.net.reachability().sever_pair(NodeId{100}, NodeId{1});
  // tau=5: phase2 at 2.5, phase3 at 3.75, phase4 at 4.25, expiry at 5 (from
  // the last renewal, which was the write's traffic).
  f.run_for(6.5);
  EXPECT_EQ(f.c(0).lease_phase(), core::LeasePhase::kExpired);
  EXPECT_FALSE(f.c(0).accepting());
  // Phase 4 flushed the dirty block over the healthy SAN.
  EXPECT_EQ(f.san.disk(DiskId{1}).writes_served(), 1u);
  EXPECT_EQ(f.c(0).cache().page_count(), 0u);  // invalidated at expiry

  f.net.reachability().restore_pair(NodeId{100}, NodeId{1});
  f.run_for(8.0);  // server's tau(1+eps) must elapse before re-register
  EXPECT_TRUE(f.c(0).registered());
  EXPECT_EQ(f.c(0).lease_phase(), core::LeasePhase::kActive);
}

TEST(Client, QuiescedClientRejectsNewOps) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  f.net.reachability().sever_pair(NodeId{100}, NodeId{1});
  // Step until the lease agent reaches phase 3.
  for (int i = 0; i < 200 && f.c(0).lease_phase() != core::LeasePhase::kSuspect; ++i) {
    f.run_for(0.05);
  }
  ASSERT_EQ(f.c(0).lease_phase(), core::LeasePhase::kSuspect);
  std::optional<Result<Bytes>> r;
  f.c(0).read(fd, 0, 64, [&](Result<Bytes> res) { r = std::move(res); });
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->error(), ErrorCode::kQuiesced);
  EXPECT_GT(f.c(0).ops_rejected(), 0u);
}

TEST(Client, OpportunisticRenewalKeepsActiveClientInPhase1) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  // Issue a getattr every second for 20s: regular traffic renews the lease.
  for (int i = 1; i <= 20; ++i) {
    f.engine.schedule_at(f.engine.now() + sim::seconds_d(i), [&f, fd]() {
      f.c(0).getattr(fd, [](Result<protocol::FileAttr>) {});
    });
  }
  f.run_for(21.0);
  EXPECT_EQ(f.c(0).lease_phase(), core::LeasePhase::kActive);
  EXPECT_EQ(f.c(0).counters().lease_only_msgs, 0u);  // zero keep-alives
  EXPECT_EQ(f.c(0).lease_agent()->keepalives_sent(), 0u);
}

// The cache is write-back in the paper's sense: a dirty page leaves only
// through a demand, an fsync or lease phase 4, never in the background. An
// idle client keeps its lease alive, so an un-fsynced page stays dirty and
// unwritten however long the client sits idle.
TEST(Client, IdleClientPreservesCacheViaKeepAlives) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(64, 1)).is_ok());
  std::optional<Status> st;
  f.c(0).fsync(fd, [&](Status s) { st = s; });
  f.run_for(0.2);
  ASSERT_TRUE(st.has_value() && st->is_ok());
  // A second block, never fsynced.
  ASSERT_TRUE(f.must_write(0, fd, 64, Bytes(64, 2)).is_ok());
  // Nothing else for 20 seconds (4 lease periods).
  f.run_for(20.0);
  EXPECT_EQ(f.c(0).lease_phase(), core::LeasePhase::kActive);
  EXPECT_GT(f.c(0).lease_agent()->keepalives_sent(), 0u);
  EXPECT_GT(f.c(0).cache().page_count(), 0u);  // cache survived

  const auto file = f.server->metadata().lookup("/file");
  ASSERT_TRUE(file.has_value());
  const server::Inode* inode = f.server->metadata().find(*file);
  ASSERT_NE(inode, nullptr);
  DiskId disk;
  storage::BlockAddr addr = 0;
  ASSERT_TRUE(protocol::locate_block(inode->extents, 1, disk, addr));
  const BlockCache::Page* page = f.c(0).cache().peek(*file, 1);
  ASSERT_NE(page, nullptr);
  EXPECT_TRUE(page->dirty);
  EXPECT_FALSE(f.san.disk(disk).ever_written(addr));
}

// The engine outlives a destroyed client: every timer the client armed (the
// registration retry, the transport's retransmissions, the lease agent's)
// must be cancelled with it, or it fires on freed memory (the sanitizer
// build reports it). Nothing of the client may stay scheduled.
TEST(Client, DestroyedClientLeavesNothingScheduled) {
  sim::Engine engine;
  net::ControlNet net(engine, sim::Rng(1), {});
  storage::SanFabric san(engine, sim::Rng(2));
  san.add_disk(DiskId{1}, 4096, 64);
  ClientConfig ccfg;
  ccfg.id = NodeId{100};
  ccfg.server = NodeId{1};
  ccfg.block_size = 64;
  auto c = std::make_unique<Client>(engine, net, san, sim::LocalClock(1.0), ccfg);
  c->start();
  // No server: the RegisterReq gives up after four 500 ms transmissions and
  // the 700 ms re-registration timer is armed when the client goes.
  engine.run_until(sim::SimTime{} + sim::seconds_d(2.3));
  ASSERT_GT(engine.events_pending(), 0u);
  c.reset();
  EXPECT_EQ(engine.events_pending(), 0u);
  engine.run_until(sim::SimTime{} + sim::seconds(5));
  EXPECT_EQ(engine.events_pending(), 0u);
}

// Each op's state lives in a pooled record whose handles ride in transport
// handlers, lock waits and parked SAN I/Os. Ops caught in flight by a crash
// must never answer; the record pool must serve the restarted client; and
// handles released after ~Client (I/Os still parked in the SAN) must not
// touch the dead client (the sanitizer build reports it if they do).
TEST(Client, OpsInFlightAcrossCrashRestartAndDestruction) {
  Fixture f(1);
  constexpr std::uint32_t kBs = Fixture::kBs;
  const Fd fd = f.must_open(0, "/inflight");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(4 * kBs, 7)).is_ok());
  const NodeId self{100};
  f.san.set_initiator_delay(self, sim::millis(300));

  // Crash with an fsync's four block writes and a read-modify-write fill
  // (a partial write past the cached blocks) parked in the SAN.
  int fired = 0;
  f.c(0).fsync(fd, [&](Status) { ++fired; });
  f.c(0).write(fd, 4 * kBs + 8, Bytes(16, 9), [&](Status) { ++fired; });
  f.run_for(0.05);
  ASSERT_EQ(f.san.stats().ios_submitted, f.san.stats().ios_completed + 5);
  f.c(0).crash();
  f.run_for(1.0);
  EXPECT_EQ(fired, 0);

  // The restarted client reuses the pool.
  f.san.set_initiator_delay(self, sim::Duration{0});
  f.c(0).restart();
  f.run_for(0.5);
  ASSERT_TRUE(f.c(0).registered());
  const Fd fd2 = f.must_open(0, "/inflight", /*create=*/false);
  auto r = f.must_read(0, fd2, 0, kBs);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), Bytes(kBs, 7));  // the crashed fsync's writes landed
  ASSERT_TRUE(f.must_write(0, fd2, kBs, Bytes(kBs, 5)).is_ok());

  // Destroy the client with a block fetch parked in the SAN.
  f.san.set_initiator_delay(self, sim::millis(300));
  f.c(0).read(fd2, 2 * kBs, kBs, [&](Result<Bytes>) { ++fired; });
  f.run_for(0.05);
  ASSERT_EQ(f.san.stats().ios_submitted, f.san.stats().ios_completed + 1);
  f.clients[0].reset();
  EXPECT_EQ(fired, 0);
}

// After a server restart the client reasserts its locks in ascending FileId:
// the send order assigns the msg ids, so it must not follow the per-file
// table's hash order. Each reassertion's file is read off the trace by
// pairing its ACK with the kLockReassert it triggers.
TEST(Client, ReassertsLocksInAscendingFileIdOrder) {
  obs::Recorder rec;
  Fixture f(1, core::LeaseStrategy::kStorageTank, &rec);
  net::NetConfig quiet = f.net.config();
  quiet.jitter = sim::Duration{0};  // FIFO delivery, no reordering
  f.net.set_config(quiet);

  std::vector<Fd> fds;
  for (int i = 0; i < 20; ++i) fds.push_back(f.must_open(0, "/f" + std::to_string(i)));
  const std::vector<std::size_t> locked = {13, 2, 17, 7, 0, 11, 5, 19, 9, 3, 16};
  for (std::size_t i : locked) {
    std::optional<Status> st;
    f.c(0).lock(fds[i], LockMode::kExclusive, [&](Status s) { st = s; });
    f.run_for(0.1);
    ASSERT_TRUE(st.has_value() && st->is_ok()) << "lock " << i;
  }

  f.server->crash();
  f.run_for(0.5);
  f.server->restart();
  // The next request meets the new incarnation and triggers re-registration.
  f.c(0).getattr(fds[0], [](Result<protocol::FileAttr>) {});
  f.run_for(2.0);
  ASSERT_EQ(f.c(0).server_incarnation(), 2u);
  ASSERT_EQ(rec.dropped_events(), 0u);

  const std::uint64_t reassert_kind = protocol::RequestBody{protocol::ReassertLockReq{}}.index();
  std::vector<std::uint64_t> sent;                // msg ids, in send order
  std::map<std::uint64_t, std::uint64_t> file_of;  // msg id -> reasserted file
  std::uint64_t last_ack = 0;
  rec.visit_node(f.c(0).id(), [&](const obs::Event& e) {
    if (e.kind == obs::EventKind::kReqSend && e.b == reassert_kind) sent.push_back(e.a);
    if (e.kind == obs::EventKind::kAckRecv) last_ack = e.a;
    if (e.kind == obs::EventKind::kLockReassert) {
      EXPECT_EQ(e.b, 1u) << "reassertion of file " << e.a << " refused";
      file_of[last_ack] = e.a;
    }
  });
  ASSERT_EQ(sent.size(), locked.size());
  std::vector<std::uint64_t> files;
  for (std::uint64_t msg : sent) {
    ASSERT_TRUE(file_of.contains(msg)) << "no reply traced for msg " << msg;
    files.push_back(file_of[msg]);
  }
  EXPECT_TRUE(std::adjacent_find(files.begin(), files.end(),
                                 std::greater_equal<>()) == files.end())
      << "ReassertLockReqs not sent in strictly ascending FileId order";
  for (std::size_t i : locked) EXPECT_EQ(f.c(0).lock_mode(fds[i]), LockMode::kExclusive);
}

// A pending op on file A survives the per-file table growing under it: the
// lock() stays queued behind an unreachable holder while 200 more opens
// rehash the table several times, then completes with the holder's data.
TEST(Client, PendingLockSurvivesPerFileTableGrowth) {
  Fixture f;
  const Fd held = f.must_open(1, "/a");
  ASSERT_TRUE(f.must_write(1, held, 0, Bytes(Fixture::kBs, 0x3C)).is_ok());
  ASSERT_EQ(f.c(1).lock_mode(held), LockMode::kExclusive);
  const Fd fd = f.must_open(0, "/a");
  // The holder cannot hear the demand: the lock is stolen only once its
  // lease has run out, seconds from now (phase 4 flushes its data first).
  f.net.reachability().sever_pair(NodeId{101}, NodeId{1});

  std::optional<Status> locked;
  f.c(0).lock(fd, LockMode::kExclusive, [&](Status s) { locked = s; });
  f.run_for(0.05);
  int opened = 0;
  for (int i = 0; i < 200; ++i) {
    f.c(0).open("/g" + std::to_string(i), true, [&](Result<Fd> r) { opened += r.ok() ? 1 : 0; });
  }
  f.run_for(1.0);
  ASSERT_EQ(opened, 200);
  ASSERT_FALSE(locked.has_value()) << "the lock must still be pending across the rehashes";

  f.run_for(15.0);
  ASSERT_TRUE(locked.has_value());
  EXPECT_TRUE(locked->is_ok());
  EXPECT_EQ(f.c(0).lock_mode(fd), LockMode::kExclusive);
  auto r = f.must_read(0, fd, 0, Fixture::kBs);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), Bytes(Fixture::kBs, 0x3C));
}

// Fig. 4: phase 3 drains in-flight ops and phase 4 flushes the cache, so
// nothing may dirty the cache once phase 4 has begun: a page dirtied there
// is dropped unwritten at expiry. Each test below resumes a write inside
// phase 4 and expects kLeaseExpired with no new dirty page.

// Steps the engine in 10 ms slices until `done` holds (at most `limit_s`).
template <typename Pred>
void step_until(Fixture& f, Pred done, double limit_s = 8.0) {
  for (double t = 0; t < limit_s && !done(); t += 0.01) f.run_for(0.01);
}

void lock_exclusive(Fixture& f, int ci, Fd fd) {
  std::optional<Status> st;
  f.c(ci).lock(fd, LockMode::kExclusive, [&](Status s) { st = s; });
  f.run_for(0.05);
  ASSERT_TRUE(st.has_value() && st->is_ok());
}

// (a) The write's SetSizeReq crawls to the server; its ACK lands in phase 4.
TEST(ClientPhase4, SizeRoundAckFailsTheWrite) {
  Fixture f(1, core::LeaseStrategy::kStorageTank, nullptr, [](auto&, ClientConfig& c) {
    c.transport.retransmit_timeout = sim::local_seconds(10);  // one transmission
  });
  const Fd fd = f.must_open(0, "/file");
  lock_exclusive(f, 0, fd);
  const net::NetConfig fast = f.net.config();
  net::NetConfig slow = fast;
  slow.latency = sim::millis(4300);
  slow.jitter = sim::Duration{0};
  f.net.set_config(slow);  // keep-alives and the SetSizeReq all crawl

  std::optional<Status> st;
  core::LeasePhase phase{};
  f.c(0).write(fd, 0, Bytes(Fixture::kBs, 7), [&](Status s) {
    st = s;
    phase = f.c(0).lease_phase();
  });
  step_until(f, [&] { return f.c(0).lease_phase() == core::LeasePhase::kFlush; });
  ASSERT_EQ(f.c(0).lease_phase(), core::LeasePhase::kFlush);
  ASSERT_FALSE(st.has_value());
  const std::size_t dirty = f.c(0).dirty_pages();
  f.net.set_config(fast);  // the server's reply comes straight back
  step_until(f, [&] { return st.has_value(); }, 1.0);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(phase, core::LeasePhase::kFlush);
  EXPECT_EQ(st->error(), ErrorCode::kLeaseExpired);
  EXPECT_EQ(f.c(0).dirty_pages(), dirty);
}

// (b) A partial write of an uncached block: its read-modify-write fill
// completes in phase 4.
TEST(ClientPhase4, FillCompletionFailsTheWrite) {
  Fixture f(1);
  const Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(2 * Fixture::kBs, 1)).is_ok());
  std::optional<Status> released;
  f.c(0).release(fd, LockMode::kNone, [&](Status s) { released = s; });  // flush, drop the pages
  f.run_for(0.2);
  ASSERT_TRUE(released.has_value() && released->is_ok());
  lock_exclusive(f, 0, fd);
  ASSERT_EQ(f.c(0).cache().page_count(), 0u);

  f.san.set_initiator_delay(NodeId{100}, sim::millis(4400));
  f.net.reachability().sever_pair(NodeId{100}, NodeId{1});  // the lease runs down
  std::optional<Status> st;
  core::LeasePhase phase{};
  f.c(0).write(fd, 8, Bytes(8, 9), [&](Status s) {
    st = s;
    phase = f.c(0).lease_phase();
  });
  step_until(f, [&] { return f.c(0).lease_phase() == core::LeasePhase::kFlush; });
  ASSERT_FALSE(st.has_value());
  const std::size_t dirty = f.c(0).dirty_pages();
  step_until(f, [&] { return st.has_value(); }, 1.0);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(phase, core::LeasePhase::kFlush);
  EXPECT_EQ(st->error(), ErrorCode::kLeaseExpired);
  EXPECT_EQ(f.c(0).dirty_pages(), dirty);
}

// (c) A write queued behind another client's exclusive lock resumes when the
// LockGrant arrives, in phase 4: the holder's revocation flush crawls.
TEST(ClientPhase4, LockGrantResumingAQueuedWriteFailsIt) {
  Fixture f(2, core::LeaseStrategy::kStorageTank, nullptr, [](server::ServerConfig& s, auto&) {
    s.demand_timeout = sim::local_seconds(10);  // the slow flush is no failure
  });
  const Fd held = f.must_open(1, "/a");
  ASSERT_TRUE(f.must_write(1, held, 0, Bytes(Fixture::kBs, 0x3C)).is_ok());
  const Fd fd = f.must_open(0, "/a");
  f.san.set_initiator_delay(NodeId{101}, sim::millis(4400));

  std::optional<Status> st;
  core::LeasePhase phase{};
  f.c(0).write(fd, 0, Bytes(Fixture::kBs, 0x5A), [&](Status s) {
    st = s;
    phase = f.c(0).lease_phase();
  });
  f.run_for(0.05);  // the LockReq is queued at the server and ACKed
  ASSERT_FALSE(st.has_value());
  // Nothing more from n100 reaches the server; the grant still reaches it.
  f.net.reachability().sever(NodeId{100}, NodeId{1});
  step_until(f, [&] { return f.c(0).lease_phase() == core::LeasePhase::kFlush; });
  ASSERT_FALSE(st.has_value());
  const std::size_t dirty = f.c(0).dirty_pages();
  step_until(f, [&] { return st.has_value(); }, 1.0);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(phase, core::LeasePhase::kFlush);
  EXPECT_EQ(st->error(), ErrorCode::kLeaseExpired);
  EXPECT_EQ(f.c(0).dirty_pages(), dirty);
}

// (d) The rule is the phase, not a latch: once a keep-alive ACK rescues the
// lease back to phase 1, a new write is admitted and buffered again.
TEST(ClientPhase4, RescuedLeaseAdmitsWritesAgain) {
  Fixture f(1);
  const Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(Fixture::kBs, 1)).is_ok());
  f.net.reachability().sever_pair(NodeId{100}, NodeId{1});
  step_until(f, [&] { return f.c(0).lease_phase() == core::LeasePhase::kFlush; });
  ASSERT_EQ(f.c(0).lease_phase(), core::LeasePhase::kFlush);
  f.net.reachability().restore_pair(NodeId{100}, NodeId{1});
  step_until(f, [&] { return f.c(0).lease_phase() == core::LeasePhase::kActive; }, 1.0);
  ASSERT_EQ(f.c(0).lease_phase(), core::LeasePhase::kActive);
  const std::size_t dirty = f.c(0).dirty_pages();
  EXPECT_TRUE(f.must_write(0, fd, 0, Bytes(Fixture::kBs, 2)).is_ok());
  EXPECT_EQ(f.c(0).dirty_pages(), dirty + 1);
}

// Paper section 6: a lost ReassertLockReq reply means the server is
// unreachable, not that it refused. The lock and the dirty page stay, held
// by the lease from before the restart, and its phase 4 writes the page to
// the SAN.
TEST(Client, LostReassertReplyLeavesTheDirtyPageToPhase4) {
  obs::Recorder rec;
  Fixture f(1, core::LeaseStrategy::kStorageTank, &rec);
  const Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(Fixture::kBs, 0x5A)).is_ok());
  ASSERT_EQ(f.c(0).dirty_pages(), 1u);

  f.server->crash();
  f.server->restart();
  // The re-registration is ACKed; every exchange after it is lost, the
  // ReassertLockReq it sends included.
  f.c(0).on_registered = [&f] { f.net.reachability().sever_pair(NodeId{100}, NodeId{1}); };
  f.c(0).getattr(fd, [](Result<protocol::FileAttr>) {});
  auto reasserts_lost = [&rec, &f] {
    std::size_t n = 0;
    rec.visit_node(f.c(0).id(), [&n](const obs::Event& e) {
      n += e.kind == obs::EventKind::kLockReassert && e.b == 0 ? 1 : 0;
    });
    return n;
  };
  step_until(f, [&] { return reasserts_lost() > 0; }, 3.0);
  ASSERT_EQ(reasserts_lost(), 1u);
  ASSERT_EQ(f.c(0).server_incarnation(), 2u);
  EXPECT_EQ(f.c(0).dirty_pages(), 1u);
  EXPECT_EQ(f.c(0).lock_mode(fd), LockMode::kExclusive);
  EXPECT_EQ(f.san.disk(DiskId{1}).writes_served(), 0u);

  step_until(f, [&] { return f.c(0).lease_phase() == core::LeasePhase::kExpired; });
  ASSERT_EQ(f.c(0).lease_phase(), core::LeasePhase::kExpired);
  EXPECT_GE(reasserts_lost(), 2u);  // resent until that phase 4
  EXPECT_EQ(f.san.disk(DiskId{1}).writes_served(), 1u);
  EXPECT_EQ(f.c(0).dirty_pages(), 0u);
}

// The lease that re-registration renews outlives the restarted server's
// grace period, so it may not cover a lock the server never confirmed. Only
// the lease from before the restart may: its last renewal was sent before the
// crash. Here client 100 learns of the restart 0.5 tau late and its
// ReassertLockReq is lost. It must flush in the old lease's phase 4, before
// grace ends. Client 101 takes the lock after grace, and a late flush from
// 100 would overwrite 101's write.
TEST(Client, UnconfirmedReassertFlushesUnderThePreRestartLease) {
  Fixture f(3);
  const Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(Fixture::kBs, 0x5A)).is_ok());
  ASSERT_EQ(f.c(0).dirty_pages(), 1u);

  const NodeId a{100};
  const NodeId srv{1};
  const sim::SimTime restarted = f.engine.now();
  f.server->crash();
  f.server->restart();
  f.net.reachability().sever_pair(a, srv);
  f.run_for(2.6);  // past 0.5 tau
  f.c(0).on_registered = [&f, a, srv] { f.net.reachability().sever_pair(a, srv); };
  f.net.reachability().restore_pair(a, srv);
  step_until(f, [&] { return f.c(0).server_incarnation() == 2; }, 1.0);
  ASSERT_EQ(f.c(0).server_incarnation(), 2u);
  ASSERT_GE((f.engine.now() - restarted).seconds(), 2.5);
  EXPECT_EQ(f.c(0).dirty_pages(), 1u);
  // No other flush writes a file whose lock is unconfirmed.
  std::optional<Status> fsynced;
  std::optional<Status> synced_all;
  f.c(0).fsync(fd, [&](Status s) { fsynced = s; });
  f.c(0).sync_all([&](Status s) { synced_all = s; });
  f.run_for(0.1);
  ASSERT_TRUE(fsynced.has_value() && synced_all.has_value());
  EXPECT_EQ(fsynced->error(), ErrorCode::kLockConflict);
  EXPECT_EQ(synced_all->error(), ErrorCode::kLockConflict);
  EXPECT_EQ(f.san.disk(DiskId{1}).writes_served(), 0u);

  // Grace ends at restart + tau(1 + eps); the page is on disk before that.
  f.engine.run_until(restarted + sim::seconds_d(5.0));
  EXPECT_EQ(f.c(0).dirty_pages(), 0u);
  EXPECT_EQ(f.san.disk(DiskId{1}).writes_served(), 1u);

  f.engine.run_until(restarted + sim::seconds_d(5.2));
  const Fd fd_b = f.must_open(1, "/file", false);
  const Bytes mine(Fixture::kBs, 0xB0);
  ASSERT_TRUE(f.must_write(1, fd_b, 0, mine).is_ok());
  std::optional<Status> synced;
  f.c(1).fsync(fd_b, [&](Status s) { synced = s; });
  f.run_for(0.2);
  ASSERT_TRUE(synced.has_value() && synced->is_ok());

  // Past client 100's renewed lease: nothing it held is left to write.
  f.run_for(5.0);
  EXPECT_EQ(f.c(0).dirty_pages(), 0u);
  EXPECT_EQ(f.san.disk(DiskId{1}).writes_served(), 2u);
  const Fd fd_c = f.must_open(2, "/file", false);
  const Result<Bytes> seen = f.must_read(2, fd_c, 0, Fixture::kBs);
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(seen.value(), mine);
}

// A client re-registering after a server restart still holds its lease, and
// that lease expires like any other. Client 101 holds /file and cannot flush
// it (its SAN path is cut), so client 100's lock(kExclusive) waits. The server
// restarts; client 100 learns of it and, cut off from the server from that
// moment, rides its lease down. Expiry must answer the wait, as it does
// without a restart, and the client registers again once the link heals.
TEST(Client, LeaseExpiryWhileReregisteringAnswersLockWaits) {
  Fixture f(2);
  const NodeId a{100};
  const NodeId srv{1};
  const Fd fd_b = f.must_open(1, "/file");
  ASSERT_TRUE(f.must_write(1, fd_b, 0, Bytes(Fixture::kBs, 0xB0)).is_ok());
  f.san.reachability().sever(NodeId{101}, DiskId{1});
  const Fd fd_a = f.must_open(0, "/file", false);
  std::optional<Status> waited;
  f.c(0).lock(fd_a, LockMode::kExclusive, [&](Status s) { waited = s; });
  f.run_for(0.1);
  ASSERT_FALSE(waited.has_value());

  f.server->crash();
  f.server->restart();
  // One event at a time: the RegisterReq leaves in the event that learns of
  // the restart, and the cut drops it on arrival.
  const sim::SimTime deadline = f.engine.now() + sim::seconds(5);
  while (f.c(0).registered() && f.engine.now() < deadline && f.engine.step()) {
  }
  ASSERT_FALSE(f.c(0).registered());
  f.net.reachability().sever_pair(a, srv);
  step_until(f, [&] { return f.c(0).lease_phase() == core::LeasePhase::kExpired; });
  ASSERT_EQ(f.c(0).lease_phase(), core::LeasePhase::kExpired);
  ASSERT_TRUE(waited.has_value());
  EXPECT_EQ(waited->error(), ErrorCode::kLeaseExpired);

  f.net.reachability().restore_pair(a, srv);
  step_until(f, [&] { return f.c(0).registered(); }, 3.0);
  EXPECT_TRUE(f.c(0).registered());
}

// The same lock wait without the cut: the lease survives the restart, and
// the client reasserts nothing for the file (it holds no lock on it). The
// queued LockReq died with the old server's lock table, so re-registration
// asks again; the grace period answers kRetryLater until fresh grants
// resume. Then the holder, cut from the disk, cannot flush for the demand:
// the wait is answered once the demand times out (3 s) and the holder's
// lease has run out (tau(1+eps)), by a steal and a grant.
TEST(Client, LockWaitQueuedBeforeServerRestartIsAnsweredAfterGrace) {
  Fixture f(2);
  const Fd fd_b = f.must_open(1, "/file");
  ASSERT_TRUE(f.must_write(1, fd_b, 0, Bytes(Fixture::kBs, 0xB0)).is_ok());
  f.san.reachability().sever(NodeId{101}, DiskId{1});
  const Fd fd_a = f.must_open(0, "/file", false);
  std::optional<Status> waited;
  f.c(0).lock(fd_a, LockMode::kExclusive, [&](Status s) { waited = s; });
  f.run_for(0.1);
  ASSERT_FALSE(waited.has_value());

  f.server->crash();
  f.server->restart();
  const sim::SimTime restarted = f.engine.now();
  const double tau_eps = 5.0 * (1 + core::LeaseConfig{}.epsilon);
  step_until(f, [&] { return waited.has_value(); }, 30.0);
  ASSERT_TRUE(waited.has_value());
  EXPECT_TRUE(waited->is_ok());
  EXPECT_EQ(f.c(0).lock_mode(fd_a), LockMode::kExclusive);
  EXPECT_EQ(f.server->counters().lock_steals, 1u);
  // Grace, a pump retry, the demand timeout and the holder's lease, plus 1 s.
  EXPECT_LT(f.engine.now() - restarted, sim::seconds_d(tau_eps + 0.3 + 3.0 + tau_eps + 1.0));
}

TEST(Client, VLeaseStrategySendsPerObjectRenewals) {
  Fixture f(1, core::LeaseStrategy::kVLeases);
  Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(64, 1)).is_ok());
  f.run_for(10.0);  // several renewal periods
  EXPECT_GT(f.c(0).counters().lease_only_msgs, 2u);
  EXPECT_TRUE(f.c(0).registered());
  EXPECT_EQ(f.c(0).lock_mode(fd), LockMode::kExclusive);  // lease kept alive
}

TEST(Client, FrangipaniStrategyHeartbeats) {
  Fixture f(1, core::LeaseStrategy::kFrangipani);
  f.run_for(10.0);
  // tau=5, beat frac 0.34 -> a heartbeat roughly every 1.7s, idle or not.
  EXPECT_GE(f.c(0).counters().lease_only_msgs, 5u);
  EXPECT_TRUE(f.c(0).registered());
}

// A server cluster (paper Figure 1; section 3: "a client must have a valid
// lease on all servers with which it holds locks"): one machine runs one
// Client per server, client 100+k for server k+1 on its own disk, all on the
// machine's one clock. Each Client is exactly one (client, server) lease.
struct ClusterFixture {
  sim::Engine engine;
  net::ControlNet net;
  storage::SanFabric san;
  std::vector<std::unique_ptr<server::Server>> servers;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<Fd> fds;
  static constexpr std::uint32_t kBs = 64;

  ClusterFixture() : net(engine, sim::Rng(1), {}), san(engine, sim::Rng(2)) {
    const sim::LocalClock machine_clock(1.0);
    for (std::uint32_t k = 0; k < 2; ++k) {
      const DiskId disk{k + 1};
      san.add_disk(disk, 4096, kBs);
      server::ServerConfig scfg;
      scfg.id = NodeId{k + 1};
      scfg.lease.tau = sim::local_seconds(5);
      scfg.block_size = kBs;
      scfg.data_disks = {disk};
      servers.push_back(
          std::make_unique<server::Server>(engine, net, san, sim::LocalClock(1.0), scfg));
      servers.back()->start();
      ClientConfig ccfg;
      ccfg.id = NodeId{100 + k};
      ccfg.server = scfg.id;
      ccfg.lease.tau = sim::local_seconds(5);
      ccfg.block_size = kBs;
      clients.push_back(std::make_unique<Client>(engine, net, san, machine_clock, ccfg));
      clients.back()->start();
    }
    run_for(0.5);
    for (std::uint32_t k = 0; k < 2; ++k) {
      std::optional<Result<Fd>> r;
      clients[k]->open("/m/f" + std::to_string(k), true, [&](Result<Fd> res) { r = res; });
      run_for(0.1);
      EXPECT_TRUE(r && r->ok());
      fds.push_back(r && r->ok() ? r->value() : 0);
    }
  }

  void run_for(double s) { engine.run_until(engine.now() + sim::seconds_d(s)); }
};

TEST(ClientCluster, RegistersWithEveryServer) {
  ClusterFixture f;
  for (std::uint32_t k = 0; k < 2; ++k) {
    EXPECT_TRUE(f.clients[k]->registered());
    EXPECT_TRUE(f.servers[k]->session_valid(NodeId{100 + k}));
    EXPECT_FALSE(f.servers[1 - k]->session_valid(NodeId{100 + k}));
  }
}

TEST(ClientCluster, OpenWriteReadOnEachServer) {
  ClusterFixture f;
  for (std::size_t k = 0; k < 2; ++k) {
    const Bytes data(ClusterFixture::kBs, static_cast<std::uint8_t>(k + 1));
    std::optional<Status> wst;
    f.clients[k]->write(f.fds[k], 0, data, [&](Status st) { wst = st; });
    f.run_for(0.2);
    ASSERT_TRUE(wst && wst->is_ok());
    std::optional<Result<Bytes>> r;
    f.clients[k]->read(f.fds[k], 0, ClusterFixture::kBs,
                       [&](Result<Bytes> res) { r = std::move(res); });
    f.run_for(0.2);
    ASSERT_TRUE(r && r->ok());
    EXPECT_EQ(r->value(), data);
  }
}

TEST(ClientCluster, SyncAllOnEachClientFlushesItsServersDisk) {
  ClusterFixture f;
  for (std::size_t k = 0; k < 2; ++k) {
    f.clients[k]->write(f.fds[k], 0, Bytes(ClusterFixture::kBs, 1), [](Status) {});
  }
  f.run_for(0.2);
  for (std::uint32_t k = 0; k < 2; ++k) {
    ASSERT_EQ(f.clients[k]->dirty_pages(), 1u);
    std::optional<Status> st;
    f.clients[k]->sync_all([&](Status s) { st = s; });
    f.run_for(0.2);
    ASSERT_TRUE(st && st->is_ok());
    EXPECT_EQ(f.clients[k]->dirty_pages(), 0u);
    EXPECT_EQ(f.san.disk(DiskId{k + 1}).writes_served(), 1u);
  }
}

TEST(ClientCluster, CrashAndRestartReregistersEverywhere) {
  ClusterFixture f;
  for (auto& c : f.clients) c->crash();
  f.run_for(0.5);
  for (auto& c : f.clients) c->restart();
  f.run_for(1.0);
  for (std::uint32_t k = 0; k < 2; ++k) {
    EXPECT_TRUE(f.clients[k]->registered());
    EXPECT_EQ(f.servers[k]->session_epoch(NodeId{100 + k}), 2u);
  }
}

TEST(ClientCluster, PerServerLeasesAreIndependent) {
  ClusterFixture f;
  for (std::size_t k = 0; k < 2; ++k) {
    f.clients[k]->write(f.fds[k], 0, Bytes(ClusterFixture::kBs, static_cast<std::uint8_t>(k + 1)),
                        [](Status) {});
  }
  f.run_for(0.2);

  // Partition the machine from SERVER 1 only.
  f.net.reachability().sever_pair(NodeId{100}, NodeId{1});
  f.run_for(8.0);  // past tau: client 100's lease expired...
  EXPECT_EQ(f.clients[0]->lease_phase(), core::LeasePhase::kExpired);
  // ...but client 101's lease is alive and its files remain fully usable.
  EXPECT_EQ(f.clients[1]->lease_phase(), core::LeasePhase::kActive);
  std::optional<Result<Bytes>> r;
  f.clients[1]->read(f.fds[1], 0, ClusterFixture::kBs,
                     [&](Result<Bytes> res) { r = std::move(res); });
  f.run_for(0.2);
  ASSERT_TRUE(r && r->ok());
  EXPECT_EQ(r->value(), Bytes(ClusterFixture::kBs, 2));

  // Ops on the partitioned server's file fail; the other server is unaware.
  std::optional<Result<Bytes>> r0;
  f.clients[0]->read(f.fds[0], 0, ClusterFixture::kBs,
                     [&](Result<Bytes> res) { r0 = std::move(res); });
  f.run_for(0.2);
  ASSERT_TRUE(r0.has_value());
  EXPECT_FALSE(r0->ok());
  EXPECT_TRUE(f.servers[1]->session_valid(NodeId{101}));
}

TEST(ClientCluster, PartitionedServersDirtyDataStillFlushes) {
  ClusterFixture f;
  f.clients[0]->write(f.fds[0], 0, Bytes(ClusterFixture::kBs, 7), [](Status) {});
  f.run_for(0.2);
  ASSERT_EQ(f.clients[0]->dirty_pages(), 1u);

  f.net.reachability().sever_pair(NodeId{100}, NodeId{1});
  f.run_for(8.0);
  // Phase 4 flushed client 100's dirty page over the (healthy) SAN before
  // expiry.
  EXPECT_EQ(f.clients[0]->dirty_pages(), 0u);
  EXPECT_EQ(f.san.disk(DiskId{1}).writes_served(), 1u);
}

}  // namespace
}  // namespace stank::client
