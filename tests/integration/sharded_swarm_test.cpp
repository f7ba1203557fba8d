// Full-stack determinism of the sharded engine: real clients, servers,
// lease renewals, lock traffic, and SAN I/O on a ShardedEngine + ShardedNet.
//
// Two contracts are pinned here:
//  * A fixed (seed, K) run is bit-identical — same per-client op outcomes,
//    same network counters, same recorded trace streams — at every worker
//    thread count (the scheduler may only change WHERE a shard runs, never
//    what it computes).
//  * K=1 reproduces the plain serial Engine + ControlNet stack exactly,
//    event for event, so growing a deployment to shards is not a behaviour
//    change until K > 1.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "client/client.hpp"
#include "net/control_net.hpp"
#include "net/sharded_net.hpp"
#include "obs/counters.hpp"
#include "obs/recorder.hpp"
#include "obs/watchdog.hpp"
#include "server/server.hpp"
#include "sim/engine.hpp"
#include "sim/sharded_engine.hpp"
#include "storage/san.hpp"

namespace stank {
namespace {

constexpr std::uint32_t kServerBase = 1;
constexpr std::uint32_t kClientBase = 100;
constexpr std::uint32_t kClients = 24;
constexpr std::size_t kFiles = 16;
constexpr double kRunS = 3.0;

core::LeaseConfig mini_lease() {
  core::LeaseConfig lease;
  lease.tau = sim::local_seconds(1);  // several renewal rounds inside kRunS
  return lease;
}

// Everything a run produces that determinism must preserve.
struct RunResult {
  std::vector<std::uint64_t> member_ok;      // per client, index order
  std::vector<std::uint64_t> member_failed;  // per client, index order
  std::uint64_t events_executed{0};
  std::uint64_t net_sent{0};
  std::uint64_t net_delivered{0};
  std::uint64_t net_bytes{0};
  // The merged typed trace, flattened: (t, node, kind, a, b, aux) per event.
  std::vector<std::uint64_t> trace;
  // Events the recorder rings overwrote; nonzero means `trace` is a window.
  std::uint64_t trace_dropped{0};

  bool operator==(const RunResult&) const = default;
};

void flatten_trace(const std::vector<const obs::Recorder*>& recs, std::vector<std::uint64_t>& out) {
  obs::Recorder::visit_merged_across(recs, [&](const obs::Event& e) {
    out.push_back(static_cast<std::uint64_t>(e.at.ns));
    out.push_back(e.node.value());
    out.push_back(static_cast<std::uint64_t>(e.kind));
    out.push_back(e.a);
    out.push_back(e.b);
    out.push_back(e.aux);
  });
}

struct Member {
  std::unique_ptr<client::Client> cl;
  client::Fd fd{0};
  sim::Rng rng{0};
  bool ready{false};
  std::uint64_t ops_ok{0};
  std::uint64_t ops_failed{0};
  unsigned shard{0};
};

// Same swarm loop as bench_swarm, shrunk: open a file, then lock/release on
// an exponential gap while lease renewals run underneath. It drives both
// stacks: engines[s] is shard s's engine, and the plain serial stack passes
// its one Engine.
struct Loop {
  std::vector<Member>& members;
  std::vector<sim::Engine*> engines;

  void open_file(std::size_t idx) {
    Member& m = members[idx];
    char path[16];
    std::snprintf(path, sizeof(path), "f%zu", m.rng.zipf(kFiles, 0.9));
    m.cl->open(path, /*create=*/false, [this, idx](Result<client::Fd> res) {
      Member& m2 = members[idx];
      if (!res.ok()) {
        ++m2.ops_failed;
        engines[m2.shard]->schedule_after(sim::millis(100), [this, idx]() { open_file(idx); });
        return;
      }
      m2.fd = res.value();
      if (!m2.ready) {
        m2.ready = true;
        next(idx);
      }
    });
  }
  void next(std::size_t idx) {
    Member& m = members[idx];
    engines[m.shard]->schedule_after(sim::seconds_d(m.rng.exponential(0.3)),
                                     [this, idx]() { op(idx); });
  }
  void op(std::size_t idx) {
    Member& m = members[idx];
    const auto mode = m.rng.uniform() < 0.2 ? protocol::LockMode::kExclusive
                                            : protocol::LockMode::kShared;
    m.cl->lock(m.fd, mode, [this, idx](Status st) {
      Member& m2 = members[idx];
      if (!st.is_ok()) {
        ++m2.ops_failed;
        next(idx);
        return;
      }
      m2.cl->release(m2.fd, protocol::LockMode::kNone, [this, idx](Status st2) {
        (st2.is_ok() ? members[idx].ops_ok : members[idx].ops_failed)++;
        next(idx);
      });
    });
  }
};

RunResult run_sharded(unsigned k, unsigned threads, bool telemetry = false) {
  sim::ShardedEngine::Config ecfg;
  ecfg.shards = k;
  ecfg.threads = threads;
  sim::ShardedEngine engine(ecfg);
  sim::Rng root(0xDEC0DEu);
  auto fabric = std::make_unique<net::ShardedNet>(engine, root);
  (void)root.fork(1);  // the stream the fabric consumed from its copy

  // Armed telemetry must be invisible to everything RunResult captures: the
  // counters observe, the watchdog records to its own recorder (never one of
  // the per-shard trace recorders below), and neither schedules events.
  obs::Counters ctr;
  obs::Recorder wd_rec;
  std::unique_ptr<obs::Watchdog> watchdog;
  if (telemetry) {
    watchdog = std::make_unique<obs::Watchdog>(wd_rec);
    obs::Watchdog* wd = watchdog.get();
    sim::ShardedEngine::Telemetry tel;
    tel.counters = &ctr;
    tel.snapshot_every_windows = 64;
    tel.on_snapshot = [wd](sim::SimTime at) { wd->evaluate(at); };
    engine.set_telemetry(std::move(tel));
    fabric->set_counters(&ctr);
    ctr.freeze(k);
    watchdog->add_probe(
        "mailbox_hw",
        [f = fabric.get()] { return static_cast<double>(f->mailbox_high_water()); }, 0.0,
        1e6);
  }

  // One recorder per shard: rings are single-threaded, exactly like every
  // other piece of shard state.
  std::vector<std::unique_ptr<obs::Recorder>> recs;
  std::vector<std::unique_ptr<storage::SanFabric>> sans;
  std::vector<std::unique_ptr<server::Server>> servers;
  const DiskId disk{1};
  for (unsigned j = 0; j < k; ++j) {
    recs.push_back(std::make_unique<obs::Recorder>());
    sans.push_back(std::make_unique<storage::SanFabric>(engine.shard(j), root.fork(2 + j)));
    sans.back()->add_disk(disk, /*blocks=*/kFiles * 16, /*block_size=*/4096);
    fabric->place(NodeId{kServerBase + j}, j);
  }
  for (unsigned j = 0; j < k; ++j) {
    server::ServerConfig scfg;
    scfg.id = NodeId{kServerBase + j};
    scfg.lease = mini_lease();
    scfg.block_size = 4096;
    scfg.data_disks = {disk};
    servers.push_back(std::make_unique<server::Server>(engine.shard(j), fabric->shard(j),
                                                       *sans[j], sim::LocalClock(1.0), scfg,
                                                       recs[j].get()));
    for (std::size_t f = 0; f < kFiles; ++f) {
      char path[16];
      std::snprintf(path, sizeof(path), "f%zu", f);
      auto res = servers.back()->preallocate(path, 4096);
      if (!res.ok()) ADD_FAILURE() << "preallocate failed";
    }
    servers.back()->start();
  }

  std::vector<Member> members(kClients);
  Loop loop{members, {}};
  for (unsigned j = 0; j < k; ++j) loop.engines.push_back(&engine.shard(j));
  for (std::uint32_t i = 0; i < kClients; ++i) {
    const unsigned shard = (2 * i + 1) % k;
    fabric->place(NodeId{kClientBase + i}, shard);
    client::ClientConfig ccfg;
    ccfg.id = NodeId{kClientBase + i};
    ccfg.server = NodeId{kServerBase + i % k};
    ccfg.lease = mini_lease();
    ccfg.block_size = 4096;
    Member& m = members[i];
    m.shard = shard;
    m.rng = root.fork(1000 + i);
    m.cl = std::make_unique<client::Client>(engine.shard(shard), fabric->shard(shard),
                                            *sans[shard], sim::LocalClock(1.0), ccfg,
                                            recs[shard].get());
    m.cl->on_registered = [&loop, i]() { loop.open_file(i); };
    const double start_at = 0.001 + 0.2 * m.rng.uniform();
    engine.shard(shard).schedule_after(sim::seconds_d(start_at),
                                       [&members, i]() { members[i].cl->start(); });
  }

  engine.run_until(sim::SimTime{} + sim::seconds_d(kRunS));

  RunResult r;
  for (const Member& m : members) {
    r.member_ok.push_back(m.ops_ok);
    r.member_failed.push_back(m.ops_failed);
  }
  r.events_executed = engine.events_executed();
  const net::NetStats st = fabric->stats();
  r.net_sent = st.sent;
  r.net_delivered = st.delivered;
  r.net_bytes = st.bytes;
  std::vector<const obs::Recorder*> rec_ptrs;
  for (const auto& rp : recs) {
    rec_ptrs.push_back(rp.get());
    r.trace_dropped += rp->dropped_events();
  }
  flatten_trace(rec_ptrs, r.trace);
  return r;
}

// The identical workload on the plain serial stack (Engine + ControlNet),
// mirroring run_sharded(k=1)'s RNG stream layout exactly.
RunResult run_plain_serial() {
  sim::Engine engine;
  sim::Rng root(0xDEC0DEu);
  auto fabric = std::make_unique<net::ControlNet>(engine, root.fork(1));
  auto rec = std::make_unique<obs::Recorder>();
  auto san = std::make_unique<storage::SanFabric>(engine, root.fork(2));
  const DiskId disk{1};
  san->add_disk(disk, /*blocks=*/kFiles * 16, /*block_size=*/4096);

  server::ServerConfig scfg;
  scfg.id = NodeId{kServerBase};
  scfg.lease = mini_lease();
  scfg.block_size = 4096;
  scfg.data_disks = {disk};
  auto server = std::make_unique<server::Server>(engine, *fabric, *san, sim::LocalClock(1.0),
                                                 scfg, rec.get());
  for (std::size_t f = 0; f < kFiles; ++f) {
    char path[16];
    std::snprintf(path, sizeof(path), "f%zu", f);
    auto res = server->preallocate(path, 4096);
    if (!res.ok()) ADD_FAILURE() << "preallocate failed";
  }
  server->start();

  // A single-shard ShardedEngine runs everything on shard 0; mirror that.
  std::vector<Member> members(kClients);
  Loop loop{members, {&engine}};
  for (std::uint32_t i = 0; i < kClients; ++i) {
    client::ClientConfig ccfg;
    ccfg.id = NodeId{kClientBase + i};
    ccfg.server = NodeId{kServerBase};
    ccfg.lease = mini_lease();
    ccfg.block_size = 4096;
    Member& m = members[i];
    m.rng = root.fork(1000 + i);
    m.cl = std::make_unique<client::Client>(engine, *fabric, *san, sim::LocalClock(1.0), ccfg,
                                            rec.get());
    m.cl->on_registered = [&loop, i]() { loop.open_file(i); };
    const double start_at = 0.001 + 0.2 * m.rng.uniform();
    engine.schedule_after(sim::seconds_d(start_at), [&members, i]() { members[i].cl->start(); });
  }

  engine.run_until(sim::SimTime{} + sim::seconds_d(kRunS));

  RunResult r;
  for (const Member& m : members) {
    r.member_ok.push_back(m.ops_ok);
    r.member_failed.push_back(m.ops_failed);
  }
  r.events_executed = engine.events_executed();
  const net::NetStats st = fabric->stats();
  r.net_sent = st.sent;
  r.net_delivered = st.delivered;
  r.net_bytes = st.bytes;
  flatten_trace({rec.get()}, r.trace);
  r.trace_dropped = rec->dropped_events();
  return r;
}

TEST(ShardedSwarm, WorkloadActuallyRuns) {
  const RunResult r = run_sharded(2, 2);
  std::uint64_t total_ok = 0;
  for (std::uint64_t ok : r.member_ok) total_ok += ok;
  EXPECT_GT(total_ok, 50u) << "swarm should complete plenty of lock/release ops";
  EXPECT_GT(r.net_delivered, 0u);
  EXPECT_FALSE(r.trace.empty());
  ASSERT_EQ(r.trace_dropped, 0u);
}

TEST(ShardedSwarm, BitIdenticalAcrossWorkerThreadCounts) {
  const RunResult t1 = run_sharded(2, 1);
  const RunResult t2 = run_sharded(2, 2);
  const RunResult t8 = run_sharded(2, 8);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
}

TEST(ShardedSwarm, BitIdenticalAcrossRepeats) {
  const RunResult a = run_sharded(3, 3);
  const RunResult b = run_sharded(3, 3);
  EXPECT_EQ(a, b);
}

TEST(ShardedSwarm, SingleShardMatchesPlainSerialStack) {
  const RunResult sharded = run_sharded(1, 1);
  const RunResult plain = run_plain_serial();
  EXPECT_EQ(sharded, plain);
}

// The ISSUE's core telemetry contract: arming the counter registry and the
// watchdog changes NOTHING the determinism digest folds — same member op
// outcomes, same NetStats, same events_executed, same recorded trace — at
// every worker thread count. Counters observe; they never schedule or draw.
TEST(ShardedSwarm, InstrumentedRunBitIdenticalToDark) {
  const RunResult dark = run_sharded(2, 2, /*telemetry=*/false);
  const RunResult armed1 = run_sharded(2, 1, /*telemetry=*/true);
  const RunResult armed2 = run_sharded(2, 2, /*telemetry=*/true);
  const RunResult armed8 = run_sharded(2, 8, /*telemetry=*/true);
  EXPECT_EQ(dark, armed1);
  EXPECT_EQ(dark, armed2);
  EXPECT_EQ(dark, armed8);
}

TEST(ShardedSwarm, InstrumentedSingleShardMatchesPlainSerial) {
  const RunResult armed = run_sharded(1, 1, /*telemetry=*/true);
  const RunResult plain = run_plain_serial();
  EXPECT_EQ(armed, plain);
}

}  // namespace
}  // namespace stank
