// Experiment M2 — simulation-core hot-path benchmarks.
//
// Five workloads that dominate every experiment in this repo:
//  * schedule+fire    — the basic event-loop cycle (message delivery, disk
//                       service completions).
//  * cancel churn     — the lease keep-alive pattern: a timer is scheduled,
//                       then cancelled and replaced by the next renewal long
//                       before it fires. Schedule/cancel-heavy by design
//                       (paper section 3.1: opportunistic renewal re-arms the
//                       expiry timer on every acknowledged request).
//  * self-reschedule  — periodic timer chains (retry schedules, workload
//                       generators).
//  * datagram path    — codec encode -> ControlNet send -> delivery, the full
//                       per-message cost of a simulated control-network frame.
//  * standing far timers — near-term schedule+fire with 100k timers armed
//                       0.5-4 s out, the swarm's queue shape. Exits 1 when
//                       the far timers sit in the near heap mid-run, or when
//                       the row costs more than twice the schedule+fire row.
//
// Prints a table and, when $STANK_BENCH_JSON is set, appends one JSON line
// per metric for bench/run_all to collect into BENCH_core.json.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "net/control_net.hpp"
#include "protocol/codec.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

using namespace stank;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Metric {
  const char* name;
  std::uint64_t ops;
  double wall_s;
  [[nodiscard]] double per_sec() const { return static_cast<double>(ops) / wall_s; }
  [[nodiscard]] double ns_per_op() const { return wall_s * 1e9 / static_cast<double>(ops); }
};

// Schedule `batch` events, drain, repeat. The pure event-loop cycle.
Metric bench_schedule_fire() {
  constexpr std::uint64_t kBatch = 100'000;
  constexpr int kRounds = 20;
  sim::Engine e;
  e.set_event_limit(~0ull);
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < kRounds; ++r) {
    const sim::SimTime base = e.now();
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      e.schedule_at(base + sim::Duration{static_cast<std::int64_t>(i + 1)}, [&sink]() { ++sink; });
    }
    e.run();
  }
  const double wall = seconds_since(t0);
  STANK_ASSERT(sink == kBatch * kRounds);
  return {"schedule+fire", kBatch * kRounds, wall};
}

// Keep `kLive` armed timers; each iteration cancels one and re-arms it
// further out — the lease-renewal pattern. Almost no timer ever fires.
Metric bench_cancel_churn() {
  constexpr std::size_t kLive = 10'000;
  constexpr std::uint64_t kIters = 2'000'000;
  sim::Engine e;
  e.set_event_limit(~0ull);
  std::vector<sim::TimerId> ids(kLive);
  std::int64_t t = 1'000'000;
  for (std::size_t i = 0; i < kLive; ++i) {
    ids[i] = e.schedule_at(sim::SimTime{t + static_cast<std::int64_t>(i)}, []() {});
  }
  sim::Rng rng(42);
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    const auto k = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(kLive) - 1));
    e.cancel(ids[k]);
    ++t;
    ids[k] = e.schedule_at(sim::SimTime{t + 1'000'000}, []() {});
  }
  const double wall = seconds_since(t0);
  for (auto id : ids) e.cancel(id);
  e.run();
  return {"cancel churn", kIters, wall};
}

// A few periodic timers each re-arming themselves — retry schedules.
Metric bench_self_reschedule() {
  constexpr int kChains = 64;
  constexpr std::uint64_t kTotal = 2'000'000;
  sim::Engine e;
  e.set_event_limit(~0ull);
  std::uint64_t fired = 0;
  struct Chain {
    sim::Engine* e;
    std::uint64_t* fired;
    std::uint64_t budget;
    void operator()() {
      ++*fired;
      if (--budget > 0) {
        e->schedule_after(sim::Duration{100}, *this);
      }
    }
  };
  for (int c = 0; c < kChains; ++c) {
    e.schedule_at(sim::SimTime{c + 1}, Chain{&e, &fired, kTotal / kChains});
  }
  const auto t0 = Clock::now();
  e.run();
  const double wall = seconds_since(t0);
  STANK_ASSERT(fired == kTotal);
  return {"self-reschedule", kTotal, wall};
}

// The swarm's queue shape: 100k armed timers 0.5-4 s out (retransmit and
// lease timers) stand behind a stream of near-term events, each firing one
// 200 us later than it was scheduled and re-arming itself. Simulated time
// stays below 0.5 s, so no standing timer fires: every op is the near
// schedule+fire cycle, priced with the far timers in the queue. A probe at
// 200 ms records the near heap's depth into *near_depth.
Metric bench_standing_far_timers(std::size_t* near_depth) {
  constexpr std::size_t kStanding = 100'000;
  constexpr int kChains = 1'000;
  constexpr std::uint64_t kTotal = 2'000'000;
  sim::Engine e;
  e.set_event_limit(~0ull);
  sim::Rng rng(11);
  std::vector<sim::TimerId> standing;
  standing.reserve(kStanding);
  for (std::size_t i = 0; i < kStanding; ++i) {
    const auto out = sim::Duration{rng.uniform_int(500'000'000, 4'000'000'000)};
    standing.push_back(
        e.schedule_after(out, []() { STANK_ASSERT_MSG(false, "standing timer fired"); }));
  }
  std::uint64_t fired = 0;
  struct Chain {
    sim::Engine* e;
    std::uint64_t* fired;
    std::uint64_t budget;
    void operator()() {
      ++*fired;
      if (--budget > 0) {
        e->schedule_after(sim::micros(200), *this);
      }
    }
  };
  for (int c = 0; c < kChains; ++c) {
    e.schedule_at(sim::SimTime{c + 1}, Chain{&e, &fired, kTotal / kChains});
  }
  e.schedule_at(sim::SimTime{} + sim::millis(200), [&e, near_depth]() {
    *near_depth = e.near_queue_depth();
  });
  const auto t0 = Clock::now();
  e.run_until(sim::SimTime{} + sim::millis(450));
  const double wall = seconds_since(t0);
  STANK_ASSERT(fired == kTotal);
  for (sim::TimerId id : standing) e.cancel(id);
  return {"standing far timers", kTotal, wall};
}

// Full control-network datagram cost: encode a lock request, send it through
// ControlNet (latency + jitter sampling), deliver to the peer's handler.
Metric bench_datagram_path() {
  constexpr std::uint64_t kMsgs = 1'048'576;  // multiple of the send window
  sim::Engine e;
  e.set_event_limit(~0ull);
  net::ControlNet cnet(e, sim::Rng(7), {});
  const NodeId a{1}, b{2};
  std::uint64_t received = 0;
  net::FnReceiver rx_a([](NodeId, const Bytes&) {});
  net::FnReceiver rx_b([&](NodeId, const Bytes& dg) { received += dg.size() != 0; });
  cnet.attach(a, rx_a);
  cnet.attach(b, rx_b);

  protocol::Frame f;
  f.kind = protocol::FrameKind::kRequest;
  f.sender = a;
  f.epoch = 1;
  f.body = protocol::RequestBody{protocol::LockReq{FileId{7}, protocol::LockMode::kExclusive}};

  const auto t0 = Clock::now();
  constexpr std::uint64_t kWindow = 1024;  // keep the in-flight queue small
  Bytes buf;  // scratch encode buffer, the same idiom the transports use
  for (std::uint64_t i = 0; i < kMsgs; i += kWindow) {
    for (std::uint64_t j = 0; j < kWindow; ++j) {
      f.msg_id = MsgId{i + j};
      protocol::encode_into(f, buf);
      cnet.send(a, b, std::move(buf));
    }
    e.run();
  }
  const double wall = seconds_since(t0);
  STANK_ASSERT(received == kMsgs);
  return {"datagram path", kMsgs, wall};
}

}  // namespace

int main() {
  bench::Reporter reporter("m2_engine");
  std::printf("M2: simulation-core hot-path benchmarks\n\n");

  std::size_t near_depth = 0;
  const Metric metrics[] = {
      bench_schedule_fire(),
      bench_cancel_churn(),
      bench_self_reschedule(),
      bench_datagram_path(),
      bench_standing_far_timers(&near_depth),
  };

  Table tbl({"workload", "ops", "wall (s)", "ops/sec", "ns/op"});
  tbl.title("Hot-path cost per simulated event / datagram");
  for (const auto& m : metrics) {
    tbl.row().cell(m.name).cell(m.ops).cell(m.wall_s, 3).cell(m.per_sec(), 0).cell(m.ns_per_op(), 1);
    reporter.metric(m.name, m.per_sec(), m.ns_per_op());
  }
  tbl.print(std::cout);

  std::printf(
      "\nReading: schedule+fire and cancel churn bound how many simulated seconds\n"
      "of protocol traffic one wall-clock second buys; every experiment in this\n"
      "repo (Fig. 2-5, T1-T8) is paid for at these rates. The datagram path adds\n"
      "the codec and network-delivery overhead per control message.\n");

  // Gates: far timers must stay out of the near heap, and must not tax near
  // events. The depth is exact: at 200 ms the heap holds the 1,000 chains,
  // and a single-heap queue would also hold the 100,000 standing timers. A
  // ratio of two rows from one process holds on a shared runner where
  // absolute ns/op does not.
  const bool depth_ok = near_depth < 10'000;
  std::printf("\nnear heap at 200 ms = %zu entries with 100000 far timers armed (gate < 10000) %s\n",
              near_depth, depth_ok ? "[ok]" : "[FAIL]");
  const double ratio = metrics[4].ns_per_op() / metrics[0].ns_per_op();
  const bool ratio_ok = ratio <= 2.0;
  std::printf("standing far timers / schedule+fire = %.2f (gate 2.00) %s\n", ratio,
              ratio_ok ? "[ok]" : "[FAIL]");
  return depth_ok && ratio_ok ? 0 : 1;
}
