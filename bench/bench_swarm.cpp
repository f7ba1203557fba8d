// bench_swarm — simulator scaling curves for one-server swarms and for the
// sharded parallel engine.
//
// Part 1 (one shard): client count N = 100 … 50,000 on a one-shard
// ShardedEngine, which reproduces the serial Engine stack byte for byte. Each
// swarm member registers with the one server, opens a Zipf-chosen file from a
// weak-scaled pool (512 files up to N=51k, N/100 beyond), and then loops:
// acquire a data lock (mostly shared, occasionally exclusive), release it,
// sleep an exponential gap. A short tau
// keeps a renewal storm running underneath the lock traffic. This is the mix
// the paper's deployment sizing question asks about: how much simulator (and
// per-client protocol) capacity does one server's swarm cost as N grows?
//
// Part 2 (sharded): the same workload at N up to 1,000,000 on a ShardedEngine
// with K ∈ {1, 2, 4, 8} shards. K servers (server j on shard j); client i
// talks to server i mod K and lives on shard (i + i/K) mod K, so every shard
// hosts N/K clients, 1/K of the traffic is shard-local and the rest crosses
// shards through the mailbox exchange. The events/s-vs-K column is the
// scaling curve; the run digest (FNV over per-member op counts, net counters,
// and event totals) pins the determinism contract — a fixed (seed, K) must
// print the same digest at any worker-thread count, on every run.
//
// Environment knobs (all strictly validated; a malformed value aborts with
// exit code 2 rather than silently running the wrong sweep):
//   STANK_SWARM_NS        comma-separated serial Ns       (default 100,1000,10000,50000)
//   STANK_SWARM_N_SHARDED single sharded N                (default 1000000)
//   STANK_SWARM_KS        comma-separated shard counts    (default 1,2,4,8)
//   STANK_SWARM_THREADS   worker threads for sharded runs (default: one per shard)
//   STANK_SWARM_TELEMETRY 0 disables the per-shard counter registry and
//                         watchdog (the overhead-gate A/B switch; default on).
//                         Arming MUST NOT change the digest — counters add no
//                         engine events and draw no randomness.
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "alloc_hooks.hpp"
#include "bench_util.hpp"
#include "client/client.hpp"
#include "common/byte_pool.hpp"
#include "common/table.hpp"
#include "net/sharded_net.hpp"
#include "obs/counters.hpp"
#include "obs/recorder.hpp"
#include "obs/watchdog.hpp"
#include "server/server.hpp"
#include "sim/rng.hpp"
#include "sim/sharded_engine.hpp"
#include "storage/san.hpp"

using namespace stank;

namespace {

constexpr std::uint32_t kServerNode = 1;
constexpr std::uint32_t kClientBase = 100;
constexpr std::size_t kFilePool = 512;

// The pool weak-scales with the swarm so per-file contention stays bounded
// near the serial sweep's densest point (~100 clients/file at N=50k). The
// same pool serves every K at a fixed N, so the Zipf draws — and therefore
// the offered workload — are identical across the K curve; only the
// partitioning changes. For N <= ~51k this is exactly kFilePool.
std::size_t pool_for(std::uint32_t n) {
  return std::max<std::size_t>(kFilePool, n / 100);
}
constexpr double kMeanGapS = 2.0;
constexpr double kExclusiveProb = 0.05;
// Gate on every sharded point: bench_swarm exits 1 above this. See the
// resident-bytes bound in DESIGN.md §12 for how it was set.
constexpr double kResidentBytesPerClientBound = 3300.0;
constexpr double kWarmS = 3.0;     // registration + opens finish well before this
constexpr double kMeasureS = 8.0;  // measured steady window

// ---------------------------------------------------------------------------
// Environment parsing. The old parser fed strtoul whatever it found and
// silently dropped empty tokens, so STANK_SWARM_NS=100;1000 (wrong separator)
// quietly benchmarked N=100 only. Every token must now be pure digits with a
// sane value, or the bench refuses to run.

[[noreturn]] void die_env(const char* name, const std::string& value, const char* why) {
  std::fprintf(stderr, "bench_swarm: bad %s=\"%s\": %s\n", name, value.c_str(), why);
  std::exit(2);
}

std::uint32_t parse_u32_token(const char* name, const std::string& whole,
                              const std::string& tok) {
  if (tok.empty()) die_env(name, whole, "empty element (stray or trailing comma?)");
  for (char c : tok) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) {
      die_env(name, whole, "elements must be plain decimal integers");
    }
  }
  errno = 0;
  const unsigned long v = std::strtoul(tok.c_str(), nullptr, 10);
  if (errno != 0 || v == 0 || v > 100'000'000ul) {
    die_env(name, whole, "elements must be in [1, 100000000]");
  }
  return static_cast<std::uint32_t>(v);
}

// Parses a comma-separated list of u32s from the environment; returns
// `fallback` when the variable is unset.
std::vector<std::uint32_t> env_u32_list(const char* name, std::vector<std::uint32_t> fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const std::string s(env);
  std::vector<std::uint32_t> out;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok =
        comma == std::string::npos ? s.substr(pos) : s.substr(pos, comma - pos);
    out.push_back(parse_u32_token(name, s, tok));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out.empty()) die_env(name, s, "expected at least one element");
  return out;
}

std::uint32_t env_u32(const char* name, std::uint32_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const std::string s(env);
  if (s.find(',') != std::string::npos) die_env(name, s, "expected a single integer, not a list");
  return parse_u32_token(name, s, s);
}

// ---------------------------------------------------------------------------
// Shared workload configuration.

core::LeaseConfig swarm_lease() {
  core::LeaseConfig lease;
  lease.tau = sim::local_seconds(2);  // renewal storm under the lock traffic
  return lease;
}

protocol::TransportConfig swarm_transport() {
  protocol::TransportConfig transport;
  // 8 in-flight-window entries per session keeps the million-client server's
  // reply-cache footprint bounded (the default 128 would cost gigabytes).
  transport.reply_cache_size = 8;
  return transport;
}

void preallocate_pool(server::Server& server, std::size_t pool) {
  // Preallocate the shared pool server-side so every member opens with
  // create=false and the open ramp carries no metadata churn.
  for (std::size_t f = 0; f < pool; ++f) {
    char path[24];
    std::snprintf(path, sizeof(path), "f%zu", f);
    auto res = server.preallocate(path, 4096);
    if (!res.ok()) {
      std::fprintf(stderr, "swarm: preallocate(%s) failed\n", path);
      std::exit(1);
    }
  }
}

struct Member {
  std::unique_ptr<client::Client> cl;
  client::Fd fd{0};
  sim::Rng rng{0};
  bool ready{false};
  std::uint64_t ops_ok{0};
  std::uint64_t ops_failed{0};
  // Engine shard the member lives on; its op-loop timers must be scheduled
  // there and nowhere else.
  unsigned shard{0};
};

// The open → lock/release → sleep loop.
struct OpLoop {
  std::vector<Member>& members;
  sim::ShardedEngine& engine;
  const sim::ZipfTable* zipf;   // shared file-pool CDF (one table, not one per member)

  void open_file(std::size_t idx) {
    Member& m = members[idx];
    char path[24];
    std::snprintf(path, sizeof(path), "f%zu", zipf->pick(m.rng.uniform()));
    m.cl->open(path, /*create=*/false, [this, idx](Result<client::Fd> res) {
      Member& m2 = members[idx];
      if (!res.ok()) {
        ++m2.ops_failed;
        // Pool not visible yet (or a transient NACK): retry shortly.
        engine.shard(m2.shard).schedule_after(sim::millis(200), [this, idx]() { open_file(idx); });
        return;
      }
      m2.fd = res.value();
      // on_registered re-fires after a lease expiry + re-registration; refresh
      // the fd but never spawn a second op loop.
      if (!m2.ready) {
        m2.ready = true;
        schedule_next(idx);
      }
    });
  }

  void schedule_next(std::size_t idx) {
    Member& m = members[idx];
    const double gap = m.rng.exponential(kMeanGapS);
    engine.shard(m.shard).schedule_after(sim::seconds_d(gap), [this, idx]() { op(idx); });
  }

  void op(std::size_t idx) {
    Member& m = members[idx];
    const auto mode = m.rng.uniform() < kExclusiveProb ? protocol::LockMode::kExclusive
                                                       : protocol::LockMode::kShared;
    m.cl->lock(m.fd, mode, [this, idx](Status st) {
      Member& m2 = members[idx];
      if (!st.is_ok()) {
        ++m2.ops_failed;
        schedule_next(idx);
        return;
      }
      m2.cl->release(m2.fd, protocol::LockMode::kNone, [this, idx](Status st2) {
        Member& m3 = members[idx];
        if (st2.is_ok()) {
          ++m3.ops_ok;
        } else {
          ++m3.ops_failed;
        }
        schedule_next(idx);
      });
    });
  }
};

// ---------------------------------------------------------------------------
// The swarm runner: Part 1 is its K=1 column over N, Part 2 its K sweep.

struct ShardedPoint {
  std::uint32_t n;
  std::uint32_t k;
  std::uint32_t threads;
  double wall_s;
  std::uint64_t sim_events;
  double events_per_sec;
  double wire_bytes_per_client;      // control-net bytes sent in the window / N
  double resident_bytes_per_client;  // live-heap high-water the clients add / N
  double reply_cache_bytes_per_client;  // servers' reply caches at the end / N
  double engine_queue_bytes_per_client;  // every shard's event queue at the end / N
  std::uint64_t ops_ok;
  std::uint64_t ops_failed;
  std::uint64_t digest;
  // Telemetry columns (zero when the registry is dark or K == 1).
  bool telemetry{false};
  std::vector<double> shard_events_per_window;  // per shard
  double imbalance_permille{0.0};               // max/mean shard events, x1000
  std::uint64_t mailbox_hw{0};                  // deepest SPSC mailbox seen
  std::uint64_t barrier_p50_ns{0};
  std::uint64_t barrier_p99_ns{0};
  std::uint64_t idle_windows{0};
  std::uint64_t watchdog_trips{0};
};

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ull;
}

ShardedPoint run_sharded_swarm(std::uint32_t n, std::uint32_t k, std::uint32_t threads,
                               bool telemetry) {
  // Every point starts from empty thread-local pools (datagram buffers,
  // engine slot chunks and heaps, client op records): a pool that earlier
  // points warmed would serve this one's growth from memory counted before
  // live0, and its resident bytes would depend on the points before it.
  // Worker threads die with each run, so only this thread's pools persist.
  stank::release_buf_pool();
  sim::Engine::release_pools();
  client::Client::release_op_pool();
  sim::ShardedEngine::Config ecfg;
  ecfg.shards = k;
  ecfg.threads = threads;
  sim::ShardedEngine engine(ecfg);
  // Same seed for every K so the workload (per-member gaps, Zipf choices) is
  // identical across the curve; only the partitioning changes.
  sim::Rng root(0x5Aa3F00Du ^ n);
  auto fabric = std::make_unique<net::ShardedNet>(engine, root);

  // Shard-aware telemetry: the engine and fabric register their counters,
  // the registry freezes into per-shard banks, and the watchdog rides the
  // engine's snapshot hook (worker 0, everyone else parked) so
  // arming adds zero engine events — the digest column proves it.
  obs::Counters ctr;
  obs::Recorder wd_rec;
  std::unique_ptr<obs::Watchdog> watchdog;
  if (telemetry) {
    sim::ShardedEngine::Telemetry tel;
    tel.counters = &ctr;
    // ~410ms of sim time between snapshots at the 100us sub-window (half
    // the ControlNet latency): even at N = 1,000 each imbalance sample
    // averages hundreds of events per shard, so Poisson noise stays inside
    // the band.
    tel.snapshot_every_windows = 4096;
    watchdog = std::make_unique<obs::Watchdog>(wd_rec);
    obs::Watchdog* wd = watchdog.get();
    tel.on_snapshot = [wd](sim::SimTime at) { wd->evaluate(at); };
    engine.set_telemetry(std::move(tel));
    fabric->set_counters(&ctr);
    ctr.freeze(k);
    // Probes read merged counters: legal in the snapshot hook (every
    // producer is parked) and after the run.
    const obs::Counters::Id id_hw = ctr.find("net.mailbox_hw");
    const obs::Counters::Id id_imb = ctr.find("engine.imbalance_permille");
    // A mailbox a million datagrams deep means a consumer shard stopped
    // draining — that is a hang signature, not load.
    watchdog->add_probe(
        "mailbox_hw",
        [&ctr, id_hw]() { return static_cast<double>(ctr.merged(id_hw)); }, 0.0,
        1 << 20);
    // Placement gives every shard N/K clients; 1.25x mean on one shard
    // means the placement scheme broke.
    watchdog->add_probe(
        "imbalance_permille",
        [&ctr, id_imb]() { return static_cast<double>(ctr.merged(id_imb)); }, 0.0,
        1250.0);
  }
  // Burn the stream ShardedNet consumed from its copy of root, so the SAN
  // forks below line up with the serial bench's (fork(2), fork(1000+i), …).
  (void)root.fork(1);

  // One SAN fabric and one server per shard; server j owns shard j.
  std::vector<std::unique_ptr<storage::SanFabric>> sans;
  std::vector<std::unique_ptr<server::Server>> servers;
  const DiskId disk{1};
  const std::size_t pool = pool_for(n);
  for (std::uint32_t j = 0; j < k; ++j) {
    sans.push_back(std::make_unique<storage::SanFabric>(engine.shard(j), root.fork(2 + j)));
    sans.back()->add_disk(disk, /*blocks=*/pool * 16, /*block_size=*/4096);
    fabric->place(NodeId{kServerNode + j}, j);
  }
  for (std::uint32_t j = 0; j < k; ++j) {
    server::ServerConfig scfg;
    scfg.id = NodeId{kServerNode + j};
    scfg.lease = swarm_lease();
    scfg.transport = swarm_transport();
    scfg.block_size = 4096;
    scfg.data_disks = {disk};
    servers.push_back(std::make_unique<server::Server>(
        engine.shard(j), fabric->shard(j), *sans[j], sim::LocalClock(1.0), scfg));
    preallocate_pool(*servers.back(), pool);
    servers.back()->start();
  }

  // Resident bytes per client count what the clients add from here on:
  // server session tables, reply caches, net queues and engine timers grow
  // with them, while the engine, the fabric and the servers' preallocated
  // pool are fixed costs that would dominate at small N.
  bench::reset_high_water();
  const std::uint64_t live0 = bench::live_bytes();

  // Client i registers with server i mod K but lives on shard (i + i/K) mod K:
  // each run of K consecutive clients covers every shard once, so shards hold
  // N/K clients each; 1/K of them are co-located with their server, the rest
  // exercise the cross-shard mailbox path in both directions.
  std::vector<Member> members(n);
  const sim::ZipfTable zipf(pool, 0.9);
  OpLoop loop{members, engine, &zipf};
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t server_of = i % k;
    const unsigned shard = (i + i / k) % k;
    fabric->place(NodeId{kClientBase + i}, shard);
    client::ClientConfig ccfg;
    ccfg.id = NodeId{kClientBase + i};
    ccfg.server = NodeId{kServerNode + server_of};
    ccfg.lease = swarm_lease();
    ccfg.transport = swarm_transport();
    ccfg.block_size = 4096;
    Member& m = members[i];
    m.shard = shard;
    m.rng = root.fork(1000 + i);
    m.cl = std::make_unique<client::Client>(engine.shard(shard), fabric->shard(shard),
                                            *sans[shard], sim::LocalClock(1.0), ccfg);
    const double start_at = 0.001 + 0.999 * m.rng.uniform();
    m.cl->on_registered = [&loop, i]() { loop.open_file(i); };
    engine.shard(shard).schedule_after(sim::seconds_d(start_at),
                                       [&members, i]() { members[i].cl->start(); });
  }

  engine.run_until(sim::SimTime{} + sim::seconds_d(kWarmS));

  const std::uint64_t events0 = engine.events_executed();
  const std::uint64_t bytes0 = fabric->stats().bytes;
  const auto wall0 = std::chrono::steady_clock::now();
  engine.run_until(sim::SimTime{} + sim::seconds_d(kWarmS + kMeasureS));
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();

  ShardedPoint p;
  p.n = n;
  p.k = k;
  p.threads = threads;
  p.wall_s = wall;
  p.sim_events = engine.events_executed() - events0;
  p.events_per_sec = wall > 0 ? static_cast<double>(p.sim_events) / wall : 0.0;
  p.wire_bytes_per_client = static_cast<double>(fabric->stats().bytes - bytes0) / n;
  p.resident_bytes_per_client = static_cast<double>(bench::high_water_bytes() - live0) / n;
  std::size_t reply_cache_bytes = 0;
  for (const auto& server : servers) reply_cache_bytes += server->reply_cache_bytes();
  p.reply_cache_bytes_per_client = static_cast<double>(reply_cache_bytes) / n;
  std::size_t queue_bytes = 0;
  for (unsigned s = 0; s < engine.shard_count(); ++s) {
    queue_bytes += engine.shard(s).queue_bytes();
  }
  p.engine_queue_bytes_per_client = static_cast<double>(queue_bytes) / n;
  p.ops_ok = 0;
  p.ops_failed = 0;
  // The digest folds in every member's op counts in index order plus the
  // aggregate network counters: any nondeterminism in event order anywhere in
  // the run shows up here as a different hex string.
  std::uint64_t digest = 14695981039346656037ull;
  for (const Member& m : members) {
    p.ops_ok += m.ops_ok;
    p.ops_failed += m.ops_failed;
    digest = fnv_mix(digest, m.ops_ok);
    digest = fnv_mix(digest, m.ops_failed);
  }
  const net::NetStats st = fabric->stats();
  digest = fnv_mix(digest, st.sent);
  digest = fnv_mix(digest, st.delivered);
  digest = fnv_mix(digest, st.bytes);
  digest = fnv_mix(digest, engine.events_executed());
  p.digest = digest;

  if (telemetry) {
    p.telemetry = true;
    const obs::Counters::Id id_events = ctr.find("engine.events");
    const obs::Counters::Id id_windows = ctr.find("engine.windows");
    const obs::Counters::HistId id_bwait = ctr.find_hist("barrier.wait_ns");
    const std::uint64_t windows = ctr.merged(id_windows);
    p.shard_events_per_window.resize(k, 0.0);
    for (std::uint32_t s = 0; s < k; ++s) {
      p.shard_events_per_window[s] =
          windows > 0 ? static_cast<double>(ctr.value(s, id_events)) /
                            static_cast<double>(windows)
                      : 0.0;
    }
    p.imbalance_permille =
        static_cast<double>(ctr.merged(ctr.find("engine.imbalance_permille")));
    p.mailbox_hw = ctr.merged(ctr.find("net.mailbox_hw"));
    p.barrier_p50_ns = ctr.hist_quantile(id_bwait, 0.50);
    p.barrier_p99_ns = ctr.hist_quantile(id_bwait, 0.99);
    p.idle_windows = ctr.merged(ctr.find("engine.idle_windows"));
    p.watchdog_trips = watchdog->trips();
  }
  return p;
}

}  // namespace

int main() {
  bench::Reporter reporter("swarm");
  const char* tel_env = std::getenv("STANK_SWARM_TELEMETRY");
  const bool telemetry = tel_env == nullptr || std::string(tel_env) != "0";
  std::uint64_t total_trips = 0;
  std::printf("Swarm scaling: one server, N clients of renewal-storm + Zipf lock traffic\n\n");

  Table tbl({"N clients", "sim events", "wall (s)", "events/s", "wire B/client",
             "resident B/client", "reply cache B/client", "engine queue B/client", "ops ok",
             "ops failed"});
  tbl.title("8 s measured window; tau = 2 s; Zipf(0.9) over pool_for(N) files; 5% exclusive");
  for (std::uint32_t n : env_u32_list("STANK_SWARM_NS", {100, 1000, 10000, 50000})) {
    const ShardedPoint p = run_sharded_swarm(n, 1, 1, telemetry);
    total_trips += p.watchdog_trips;
    tbl.row()
        .cell(p.n)
        .cell(p.sim_events)
        .cell(p.wall_s, 2)
        .cell(p.events_per_sec, 0)
        .cell(p.wire_bytes_per_client, 0)
        .cell(p.resident_bytes_per_client, 0)
        .cell(p.reply_cache_bytes_per_client, 0)
        .cell(p.engine_queue_bytes_per_client, 0)
        .cell(p.ops_ok)
        .cell(p.ops_failed);
    char key[48];
    std::snprintf(key, sizeof(key), "swarm_n%u_events_per_sec", p.n);
    reporter.value(key, p.events_per_sec);
    std::snprintf(key, sizeof(key), "swarm_n%u_wire_bytes_per_client", p.n);
    reporter.value(key, p.wire_bytes_per_client);
    std::snprintf(key, sizeof(key), "swarm_n%u_resident_bytes_per_client", p.n);
    reporter.value(key, p.resident_bytes_per_client);
    std::snprintf(key, sizeof(key), "swarm_n%u_reply_cache_bytes_per_client", p.n);
    reporter.value(key, p.reply_cache_bytes_per_client);
    std::snprintf(key, sizeof(key), "swarm_n%u_engine_queue_bytes_per_client", p.n);
    reporter.value(key, p.engine_queue_bytes_per_client);
  }
  tbl.print(std::cout);

  std::printf(
      "\nReading: events/s is simulator throughput at that swarm size — flat-to-rising\n"
      "means per-event cost does not degrade with population (batched delivery, pooled\n"
      "timer slots). wire B/client is the control-net bytes each client's protocol sends\n"
      "and receives over the window and should be roughly constant: the lease protocol's\n"
      "cost scales with N, not N^2. resident B/client is the live-heap high-water the\n"
      "clients add (their own state plus what they grow in servers, net and engine)\n"
      "divided by N. reply cache B/client is the part of it the servers' at-most-once\n"
      "reply caches report holding at the end of the run, engine queue B/client what\n"
      "the event queues hold (Engine::queue_bytes: heap, far ring and chunks, overflow).\n\n");

  const std::uint32_t sharded_n = env_u32("STANK_SWARM_N_SHARDED", 1'000'000);
  const std::uint32_t threads_override = env_u32("STANK_SWARM_THREADS", 0xFFFFFFFFu);
  const std::vector<std::uint32_t> ks = env_u32_list("STANK_SWARM_KS", {1, 2, 4, 8});

  std::printf("Sharded engine: N=%u clients, K servers/shards, conservative %lld us sub-windows\n"
              "(half the ControlNet base latency, the cross-shard lookahead)\n",
              sharded_n, static_cast<long long>(net::NetConfig{}.latency.ns / 2000));
  std::printf("Telemetry: %s (STANK_SWARM_TELEMETRY=0 to disable; must not change digests)\n\n",
              telemetry ? "counters + watchdog armed" : "dark");
  Table stbl({"K", "threads", "sim events", "wall (s)", "events/s", "speedup", "wire B/client",
              "resident B/client", "reply cache B/client", "engine queue B/client", "ops ok",
              "ops failed", "imb", "mbox hw", "bar p50us", "bar p99us", "digest"});
  stbl.title("client i -> server i%K, shard (i+i/K)%K: 1/K co-located, rest cross-shard");
  double base_eps = 0.0;
  int over_bound = 0;
  for (std::uint32_t k : ks) {
    const std::uint32_t threads = threads_override != 0xFFFFFFFFu ? threads_override : k;
    const ShardedPoint p = run_sharded_swarm(sharded_n, k, threads, telemetry);
    if (k == 1) base_eps = p.events_per_sec;
    const double speedup = base_eps > 0 ? p.events_per_sec / base_eps : 0.0;
    char digest_hex[24];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(p.digest));
    auto& row = stbl.row()
                    .cell(p.k)
                    .cell(p.threads)
                    .cell(p.sim_events)
                    .cell(p.wall_s, 2)
                    .cell(p.events_per_sec, 0)
                    .cell(speedup, 2)
                    .cell(p.wire_bytes_per_client, 0)
                    .cell(p.resident_bytes_per_client, 0)
                    .cell(p.reply_cache_bytes_per_client, 0)
                    .cell(p.engine_queue_bytes_per_client, 0)
                    .cell(p.ops_ok)
                    .cell(p.ops_failed);
    if (p.telemetry && p.k > 1) {
      row.cell(p.imbalance_permille / 1000.0, 2)
          .cell(p.mailbox_hw)
          .cell(static_cast<double>(p.barrier_p50_ns) / 1e3, 1)
          .cell(static_cast<double>(p.barrier_p99_ns) / 1e3, 1);
    } else {
      row.cell("-").cell("-").cell("-").cell("-");
    }
    row.cell(digest_hex);
    total_trips += p.watchdog_trips;
    char key[96];
    std::snprintf(key, sizeof(key), "swarm_sharded_n%u_k%u_events_per_sec", p.n, p.k);
    reporter.value(key, p.events_per_sec);
    std::snprintf(key, sizeof(key), "swarm_sharded_n%u_k%u_wire_bytes_per_client", p.n, p.k);
    reporter.value(key, p.wire_bytes_per_client);
    std::snprintf(key, sizeof(key), "swarm_sharded_n%u_k%u_resident_bytes_per_client", p.n,
                  p.k);
    reporter.value(key, p.resident_bytes_per_client);
    std::snprintf(key, sizeof(key), "swarm_sharded_n%u_k%u_reply_cache_bytes_per_client", p.n,
                  p.k);
    reporter.value(key, p.reply_cache_bytes_per_client);
    std::snprintf(key, sizeof(key), "swarm_sharded_n%u_k%u_engine_queue_bytes_per_client",
                  p.n, p.k);
    reporter.value(key, p.engine_queue_bytes_per_client);
    if (p.resident_bytes_per_client > kResidentBytesPerClientBound) ++over_bound;
    if (p.telemetry && p.k > 1) {
      // Shard-utilization columns for BENCH_core.json: per-shard events per
      // executed window, plus the health gauges the ROADMAP's multi-core
      // validation item needs to see.
      for (std::uint32_t s = 0; s < p.k; ++s) {
        std::snprintf(key, sizeof(key), "swarm_sharded_n%u_k%u_s%u_events_per_window", p.n,
                      p.k, s);
        reporter.value(key, p.shard_events_per_window[s]);
      }
      std::snprintf(key, sizeof(key), "swarm_sharded_n%u_k%u_imbalance", p.n, p.k);
      reporter.value(key, p.imbalance_permille / 1000.0);
      std::snprintf(key, sizeof(key), "swarm_sharded_n%u_k%u_mailbox_hw", p.n, p.k);
      reporter.value(key, static_cast<double>(p.mailbox_hw));
      std::snprintf(key, sizeof(key), "swarm_sharded_n%u_k%u_barrier_wait_p50_ns", p.n, p.k);
      reporter.value(key, static_cast<double>(p.barrier_p50_ns));
      std::snprintf(key, sizeof(key), "swarm_sharded_n%u_k%u_barrier_wait_p99_ns", p.n, p.k);
      reporter.value(key, static_cast<double>(p.barrier_p99_ns));
      std::snprintf(key, sizeof(key), "swarm_sharded_n%u_k%u_idle_windows", p.n, p.k);
      reporter.value(key, static_cast<double>(p.idle_windows));
    }
  }
  stbl.print(std::cout);

  std::printf(
      "\nReading: speedup is events/s relative to K=1 on the same workload. The digest\n"
      "is the determinism witness: a fixed (seed, K) must print the same value on every\n"
      "run at every worker-thread count — armed or dark. imb is max/mean shard events\n"
      "between snapshots (1.00 = perfectly balanced); mbox hw is the deepest SPSC\n"
      "mailbox slot; bar p50/p99 are quantiles of the per-sub-window wait for other\n"
      "shards' progress.\n");
  if (total_trips > 0) {
    std::printf("WATCHDOG: %llu invariant probe trip(s) during the sweep — inspect before\n"
                "trusting these numbers.\n",
                static_cast<unsigned long long>(total_trips));
  }
  if (over_bound > 0) {
    std::printf("RESIDENT: %d sharded point(s) above %.0f resident B/client.\n", over_bound,
                kResidentBytesPerClientBound);
    return 1;
  }
  return 0;
}
