// Zero-allocation steady-state gates.
//
// Three hot paths must run without touching the global allocator once warm:
//
//   renewal_tick   — the lease keep-alive cycle (phase-2 keepalive timer,
//                    KeepAliveReq encode/send, server ACK, opportunistic
//                    renew). This is the per-client background cost every
//                    idle second of a deployment pays, times N clients.
//   grant_release  — an uncontended shared lock() + release() round trip:
//                    client transport retry state, server lock table, reply
//                    cache ring, and the batched ControlNet delivery path.
//   data_op        — contended reads and partial writes from 8 clients on
//                    4 files x 4 blocks: lock demands, revocation flushes,
//                    read-modify-write fills, SAN I/O, the client's op
//                    records and block cache. Gated at 0.01 allocations per
//                    op rather than zero.
//
// Each gate warms the system (registration, reply-cache rings, engine slot
// pools, codec buffer pools, FlatMap high-water capacity), snapshots the
// operator-new counter from alloc_hooks, runs the steady window, and FAILS
// THE BENCH (exit 1) if a single allocation happened. The counts are also
// reported, so BENCH_core.json records the invariant and bench_diff.py can
// flag any regression against it.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "alloc_hooks.hpp"
#include "bench_util.hpp"
#include "common/byte_pool.hpp"
#include "obs/counters.hpp"
#include "sim/rng.hpp"
#include "workload/scenario.hpp"

using namespace stank;

namespace {

// Keep-alive renewal traffic only: generators are never started, and the
// tiny run_seconds horizon quiesces the lease-state sampling timer before
// the measured window opens.
std::uint64_t renewal_tick_allocs() {
  workload::ScenarioConfig cfg;
  cfg.workload.num_clients = 8;
  cfg.workload.num_files = 2;
  cfg.workload.file_blocks = 4;
  cfg.workload.run_seconds = 0.1;
  cfg.lease.tau = sim::local_seconds_d(0.5);  // aggressive renewal cadence
  // Small reply-cache ring so the per-session FlatMap reaches its steady
  // capacity within the warm-up (the default 128 would still be growing —
  // and legitimately allocating — 30 s in at this keep-alive rate).
  cfg.transport.reply_cache_size = 8;
  workload::Scenario sc(cfg);
  sc.setup();
  sc.run_until_s(5.0);  // warm: registration, rings, pools
  const std::uint64_t snap = bench::allocs();
  // Debug aid: abort at the first steady-window allocation so a debugger
  // shows the site.
  if (std::getenv("STANK_STEADY_TRAP") != nullptr) bench::trap_next_alloc(true);
  sc.run_until_s(15.0);  // 10 simulated seconds of pure keep-alive traffic
  bench::trap_next_alloc(false);
  return bench::allocs() - snap;
}

struct CycleCtx {
  client::Client* cl{nullptr};
  client::Fd fd{0};
  std::uint64_t remaining{0};
  std::uint64_t completed{0};
  std::uint64_t failed{0};
};

// One uncontended shared-lock acquire/release cycle; re-issues itself until
// the budget is spent. Every lambda captures exactly one pointer, so the
// std::function callbacks stay inline (no allocation from the driver).
void cycle(CycleCtx* c) {
  if (c->remaining == 0) return;
  --c->remaining;
  c->cl->lock(c->fd, protocol::LockMode::kShared, [c](Status st) {
    if (!st.is_ok()) {
      ++c->failed;
      return;
    }
    c->cl->release(c->fd, protocol::LockMode::kNone, [c](Status st2) {
      if (!st2.is_ok()) {
        ++c->failed;
        return;
      }
      ++c->completed;
      cycle(c);
    });
  });
}

std::uint64_t grant_release_allocs(std::uint64_t iters, std::uint64_t* completed_out) {
  workload::ScenarioConfig cfg;
  cfg.workload.num_clients = 1;
  cfg.workload.num_files = 1;
  cfg.workload.file_blocks = 4;
  cfg.workload.run_seconds = 0.1;
  workload::Scenario sc(cfg);
  sc.setup();
  sc.run_until_s(1.0);

  CycleCtx ctx;
  ctx.cl = &sc.client(0);
  ctx.fd = sc.fd(0, 0);
  // Warm-up: enough cycles to saturate the reply-cache ring (default 128
  // entries) on both sides and reach every FlatMap's high-water capacity.
  ctx.remaining = 400;
  cycle(&ctx);
  sc.run_until_s(20.0);
  if (ctx.remaining != 0 || ctx.failed != 0) {
    std::fprintf(stderr, "steady: warm-up incomplete (%llu left, %llu failed)\n",
                 static_cast<unsigned long long>(ctx.remaining),
                 static_cast<unsigned long long>(ctx.failed));
    return UINT64_MAX;
  }

  ctx.remaining = iters;
  ctx.completed = 0;
  const std::uint64_t snap = bench::allocs();
  cycle(&ctx);
  sc.run_until_s(60.0);
  const std::uint64_t delta = bench::allocs() - snap;
  if (ctx.remaining != 0 || ctx.failed != 0) {
    std::fprintf(stderr, "steady: measured window incomplete (%llu left, %llu failed)\n",
                 static_cast<unsigned long long>(ctx.remaining),
                 static_cast<unsigned long long>(ctx.failed));
    return UINT64_MAX;
  }
  *completed_out = ctx.completed;
  return delta;
}

// One closed-loop data client: reads whole blocks and writes half blocks at
// random offsets (70/30) on 4 shared files, pausing a random think time
// between ops so a cache hit never recurses into the next issue. Callbacks
// capture one pointer, so the driver itself never allocates.
struct DataCtx {
  workload::Scenario* sc{nullptr};
  std::size_t ci{0};
  sim::Rng rng{0};
  bool running{false};
  std::uint64_t* done{nullptr};
};

void data_issue(DataCtx* c);

void data_next(DataCtx* c) {
  ++*c->done;
  if (!c->running) return;
  const double think_s = c->rng.exponential(0.002);
  c->sc->engine().schedule_after(sim::seconds_d(think_s), [c]() { data_issue(c); });
}

void data_issue(DataCtx* c) {
  if (!c->running) return;
  client::Client& cl = c->sc->client(c->ci);
  const std::uint32_t bs = c->sc->config().block_size;
  const auto fi = static_cast<std::size_t>(c->rng.uniform_int(0, 3));
  const auto block = static_cast<std::uint64_t>(c->rng.uniform_int(0, 3));
  if (cl.crashed() || !cl.registered()) {
    data_next(c);
    return;
  }
  const client::Fd fd = c->sc->fd(c->ci, fi);
  if (c->rng.uniform() < 0.7) {
    cl.read(fd, block * bs, bs, [c](Result<Bytes> res) {
      if (res.ok()) recycle_buf(std::move(res).value());
      data_next(c);
    });
    return;
  }
  // A half-block write: on an uncached block this is a read-modify-write.
  Bytes data = take_buf();
  data.assign(bs / 2, static_cast<std::uint8_t>(c->rng.uniform_int(0, 255)));
  const std::uint64_t at = block * bs + (c->rng.bernoulli(0.5) ? bs / 2 : 0);
  cl.write(fd, at, std::move(data), [c](Status) { data_next(c); });
}

// Allocations per op over >= min_ops contended data ops, after a warm-up
// that brings the op-record pool, the SAN slot table, the block caches and
// every FlatMap to their high water. The verifier's history is detached: it
// is append-only by design and not part of the data path.
double data_op_allocs_per_op(std::uint64_t min_ops, std::uint64_t* ops_out) {
  workload::ScenarioConfig cfg;
  cfg.workload.num_clients = 8;
  cfg.workload.num_files = 4;
  cfg.workload.file_blocks = 4;
  cfg.workload.run_seconds = 0.1;
  workload::Scenario sc(cfg);
  sc.setup();
  sc.san().on_io = nullptr;
  sc.run_until_s(1.0);

  std::uint64_t done = 0;
  std::vector<DataCtx> ctxs(sc.num_clients());
  for (std::size_t i = 0; i < ctxs.size(); ++i) {
    ctxs[i] = DataCtx{&sc, i, sim::Rng(1000 + i), true, &done};
    data_issue(&ctxs[i]);
  }
  double t = 1.0;
  while (done < 4 * min_ops) {  // warm-up
    t += 1.0;
    sc.run_until_s(t);
  }

  const std::uint64_t done0 = done;
  const std::uint64_t snap = bench::allocs();
  if (std::getenv("STANK_STEADY_TRAP") != nullptr) bench::trap_next_alloc(true);
  while (done - done0 < min_ops) {
    t += 1.0;
    sc.run_until_s(t);
  }
  bench::trap_next_alloc(false);
  const std::uint64_t delta = bench::allocs() - snap;
  *ops_out = done - done0;
  for (DataCtx& c : ctxs) c.running = false;
  sc.run_until_s(t + 5.0);  // drain: no callback may outlive ctxs
  return static_cast<double>(delta) / static_cast<double>(*ops_out);
}

// The telemetry registry's hot path (add_to / gauge_max / record_hist on a
// frozen obs::Counters) must also be allocation-free: it is called from
// inside the sharded engine's window loop and ShardedNet::post(), both of
// which sit on the steady-state paths gated above. Registration and
// freeze() allocate (once, at setup); increments must not.
std::uint64_t counter_registry_allocs(std::uint64_t iters) {
  obs::Counters ctr;
  const obs::Counters::Id events = ctr.add("engine.events");
  const obs::Counters::Id bytes = ctr.add("net.xshard_bytes");
  const obs::Counters::Id hw = ctr.add("net.mailbox_hw", obs::Counters::Merge::kMax);
  const obs::Counters::HistId wait = ctr.add_hist("barrier.wait_ns");
  ctr.freeze(8);

  const std::uint64_t snap = bench::allocs();
  if (std::getenv("STANK_STEADY_TRAP") != nullptr) bench::trap_next_alloc(true);
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::uint32_t shard = static_cast<std::uint32_t>(i & 7);
    ctr.add_to(shard, events, 1);
    ctr.add_to(shard, bytes, 40 + (i & 63));
    ctr.gauge_max(shard, hw, i & 31);
    ctr.record_hist(shard, wait, 100 + (i & 8191));
  }
  bench::trap_next_alloc(false);
  // Keep the registry observable so the loop cannot be dead-code-eliminated.
  if (ctr.merged(events) != iters) return UINT64_MAX;
  return bench::allocs() - snap;
}

}  // namespace

int main() {
  bench::Reporter reporter("steady_alloc");
  std::printf("Steady-state allocation gates (operator new interposition)\n\n");

  int rc = 0;

  const std::uint64_t renewal = renewal_tick_allocs();
  std::printf("  renewal_tick : %llu allocations over 10 s x 8 clients of keep-alive "
              "traffic %s\n",
              static_cast<unsigned long long>(renewal), renewal == 0 ? "[ok]" : "[FAIL]");
  reporter.alloc("renewal_tick", renewal);
  if (renewal != 0) rc = 1;

  std::uint64_t completed = 0;
  const std::uint64_t grant = grant_release_allocs(2000, &completed);
  std::printf("  grant_release: %llu allocations over %llu uncontended shared "
              "lock/release cycles %s\n",
              static_cast<unsigned long long>(grant),
              static_cast<unsigned long long>(completed), grant == 0 ? "[ok]" : "[FAIL]");
  reporter.alloc("grant_release", grant == UINT64_MAX ? 1 : grant);
  if (grant != 0) rc = 1;

  std::uint64_t data_ops = 0;
  const double per_op = data_op_allocs_per_op(20'000, &data_ops);
  const bool data_ok = per_op <= 0.01;
  std::printf("  data_op      : %.4f allocations per op over %llu contended read/partial-write "
              "ops (gate 0.01) %s\n",
              per_op, static_cast<unsigned long long>(data_ops), data_ok ? "[ok]" : "[FAIL]");
  reporter.alloc("data_op", static_cast<std::uint64_t>(per_op * static_cast<double>(data_ops)));
  if (!data_ok) rc = 1;

  const std::uint64_t ctr_allocs = counter_registry_allocs(100'000);
  std::printf("  counter_inc  : %llu allocations over 100000 armed add/gauge/hist "
              "increments on a frozen 8-shard registry %s\n",
              static_cast<unsigned long long>(ctr_allocs),
              ctr_allocs == 0 ? "[ok]" : "[FAIL]");
  reporter.alloc("counter_inc", ctr_allocs == UINT64_MAX ? 1 : ctr_allocs);
  if (ctr_allocs != 0) rc = 1;

  if (rc != 0) {
    std::fprintf(stderr,
                 "\nsteady: ZERO-ALLOCATION GATE FAILED — a hot path touched the global "
                 "allocator after warm-up.\n");
  } else {
    std::printf("\nAll steady-state paths ran allocation-free.\n");
  }
  return rc;
}
