// perfbench — the repository benchmark: host cost per simulated op.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale full|tiny] [--trace-out FILE]
//
// Workloads (each a fixed-size batch job built from --seed; every simulated
// client runs a closed loop: think for an exponential time, issue one op,
// wait for its completion callback):
//
//   swarm_100k      100,000 lock/release clients on a ShardedEngine with K=4
//                   shards and 4 servers, on up to 4 worker threads. Zipf
//                   file pool, tau = 2 s renewal storm, no data I/O.
//   data_contended  one serial workload::Scenario: 128 clients, Zipf(0.8)
//                   over 512 files, 70/30 reads/writes on the direct-SAN data
//                   path, checked by the consistency checker.
//   fault_sweep     a seeded batch of small paper-valid fuzz episodes
//                   (adversarial net, random failure plans, tau/eps/clock
//                   skew) on up to 4 threads; each checked by the checker.
//
// A run repeats the identical batch until --seconds of measurement have
// passed; it reports the fastest repetition's host time per op and the
// median set-up time. Every repetition must reproduce the same simulated
// digest, so repetitions double as a determinism check.
//
// --trace 0 prints the end-to-end metrics, measured untraced. --trace 1
// alternates untraced and traced repetitions and prints the per-layer
// metrics: spans around the benchmark's own calls into the simulator
// (trace.hpp), the layers' public counters, codec and lock-manager probes,
// and a ledger of where the traced wall time went.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every correctness check passed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "common/byte_pool.hpp"
#include "metrics/counters.hpp"
#include "net/control_net.hpp"
#include "net/sharded_net.hpp"
#include "obs/counters.hpp"
#include "protocol/codec.hpp"
#include "protocol/messages.hpp"
#include "rt/parallel.hpp"
#include "server/lock_manager.hpp"
#include "server/server.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/sharded_engine.hpp"
#include "storage/san.hpp"
#include "trace.hpp"
#include "verify/stamp.hpp"
#include "workload/scenario.hpp"

using namespace stank;
namespace tr = perfbench::trace;

namespace {

// ---------------------------------------------------------------------------
// Small helpers.

double wall_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) { return (h ^ v) * 1099511628211ull; }
constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

// splitmix64: decorrelates the user's --seed from the fixed per-workload salts.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Host time per op is reported as the fastest repetition. Load from other
// processes on a shared host only ever slows a repetition, and it comes and
// goes within a run: across ten seeds on a loaded 4-core host, the median
// repetition of data_contended spread 22% (interquartile range over median)
// while the fastest spread 7%. The fastest repetition is the closest reading
// of the code's own cost. Set-up time keeps the median.
double best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

// Nearest-rank quantiles of simulated op latency, plus the sample count.
struct Latency {
  double p50_ms{0.0};
  double p99_ms{0.0};
  double p999_ms{0.0};
  std::uint64_t samples{0};
  std::uint64_t sum_ns{0};  // digest input
};

Latency summarize_latency(std::vector<std::int64_t> ns) {
  Latency l;
  l.samples = ns.size();
  if (ns.empty()) return l;
  std::sort(ns.begin(), ns.end());
  auto at = [&](double q) {
    auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(ns.size())));
    if (rank > 0) --rank;
    return static_cast<double>(ns[std::min(rank, ns.size() - 1)]) / 1e6;
  };
  l.p50_ms = at(0.50);
  l.p99_ms = at(0.99);
  l.p999_ms = at(0.999);
  for (std::int64_t v : ns) l.sum_ns += static_cast<std::uint64_t>(v);
  return l;
}

// Drives a serial engine to `horizon`. Untraced this is Engine::run_until;
// traced, the benchmark steps the engine itself so each Engine::step gets a
// span, then lets run_until advance the idle clock exactly as it would have.
// `every64` runs on every 64th step (traced only) for gauge sampling.
void advance(sim::Engine& eng, sim::SimTime horizon, bool traced,
             const std::function<void()>& every64 = {}) {
  if (!traced) {
    eng.run_until(horizon);
    return;
  }
  std::uint64_t n = 0;
  while (eng.next_event_time() <= horizon) {
    {
      tr::Scope s(tr::Span::kStep);
      eng.step();
    }
    if ((++n & 63u) == 0 && every64) every64();
  }
  eng.run_until(horizon);
}

// ---------------------------------------------------------------------------
// Probes: per-call host cost of two layers, measured in isolation on the
// workload's own mix, multiplied by the layer's call count in the ledger.

// Times encode_into/decode on one representative frame per FrameKind,
// weighted by the frame kinds the workload sent, and records
// protocol.encode_ns / protocol.decode_ns plus the ledger's codec estimate
// (probe ns x datagrams sent and delivered) into `layer`.
void probe_codec(const metrics::Counters& mix, std::uint64_t sent, std::uint64_t delivered,
                 std::map<std::string, double>& layer) {
  using namespace protocol;
  std::vector<std::pair<Frame, double>> frames;
  Frame req;
  req.kind = FrameKind::kRequest;
  req.sender = NodeId{100};
  req.msg_id = MsgId{12345};
  req.epoch = 3;
  req.body = RequestBody{LockReq{FileId{42}, LockMode::kShared}};
  frames.emplace_back(req, static_cast<double>(mix.requests_sent));
  Frame ack = req;
  ack.kind = FrameKind::kAck;
  ack.sender = NodeId{1};
  ack.incarnation = 1;
  ack.body = ReplyBody{LockReply{true, LockMode::kShared, 7, 0x1234567890ABCDEFull}};
  frames.emplace_back(ack, static_cast<double>(mix.acks_sent));
  Frame nack = ack;
  nack.kind = FrameKind::kNack;
  nack.body = std::monostate{};
  frames.emplace_back(nack, static_cast<double>(mix.nacks_sent));
  Frame smsg = ack;
  smsg.kind = FrameKind::kServerMsg;
  smsg.body = ServerBody{LockDemand{FileId{42}, LockMode::kNone, 7}};
  frames.emplace_back(smsg, static_cast<double>(mix.server_msgs_sent));
  Frame cack = req;
  cack.kind = FrameKind::kClientAck;
  cack.body = std::monostate{};
  frames.emplace_back(cack, static_cast<double>(mix.client_acks_sent));

  constexpr int kIters = 20000;
  double wsum = 0.0;
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  std::size_t sink = 0;
  Bytes buf;
  for (const auto& [frame, weight] : frames) {
    if (weight <= 0.0) continue;
    const double t0 = wall_s();
    for (int i = 0; i < kIters; ++i) {
      buf.clear();
      encode_into(frame, buf);
      sink += buf.size();
    }
    const double t1 = wall_s();
    for (int i = 0; i < kIters; ++i) {
      auto f = decode(buf);
      sink += f.has_value() ? 1 : 0;
    }
    const double t2 = wall_s();
    encode_ns += weight * (t1 - t0) * 1e9 / kIters;
    decode_ns += weight * (t2 - t1) * 1e9 / kIters;
    wsum += weight;
  }
  if (sink == 0 || wsum <= 0.0) return;
  encode_ns /= wsum;
  decode_ns /= wsum;
  layer["protocol.encode_ns"] = encode_ns;
  layer["protocol.decode_ns"] = decode_ns;
  layer["codec_total_ns"] =
      encode_ns * static_cast<double>(sent) + decode_ns * static_cast<double>(delivered);
}

// ns per LockManager call (acquire, set_mode/cancel_waiter) on a stream of
// (client, file, mode) drawn like the workload's: Zipf file popularity, the
// workload's exclusive share, a sliding window of kWindow outstanding locks.
double probe_lock_manager(std::uint32_t clients, std::uint32_t files, double zipf_s,
                          double exclusive, std::uint64_t seed) {
  server::LockManager lm;
  sim::Rng rng(seed);
  const sim::ZipfTable zipf(files, zipf_s);
  struct Held {
    NodeId c;
    FileId f;
  };
  constexpr std::size_t kWindow = 32;
  constexpr int kOps = 100000;
  std::vector<Held> ring(kWindow, Held{NodeId{0}, FileId{0}});
  std::vector<server::LockManager::Demand> demands;
  server::LockManager::Update upd;
  std::uint64_t calls = 0;
  std::size_t sink = 0;
  const double t0 = wall_s();
  for (int i = 0; i < kOps; ++i) {
    Held& slot = ring[static_cast<std::size_t>(i) % kWindow];
    if (slot.c.value() != 0) {
      upd.clear();
      if (lm.mode_of(slot.c, slot.f) != protocol::LockMode::kNone) {
        lm.set_mode(slot.c, slot.f, protocol::LockMode::kNone, upd);
      } else {
        lm.cancel_waiter(slot.c, slot.f, upd);
      }
      sink += upd.grants.size() + upd.demands.size();
      ++calls;
      slot.c = NodeId{0};
    }
    const NodeId c{static_cast<std::uint32_t>(100 + rng.uniform_int(0, clients - 1))};
    const FileId f{static_cast<std::uint32_t>(1 + zipf.pick(rng.uniform()))};
    bool busy = false;
    for (const Held& h : ring) busy = busy || (h.c == c && h.f == f);
    if (busy) continue;
    const auto mode =
        rng.uniform() < exclusive ? protocol::LockMode::kExclusive : protocol::LockMode::kShared;
    demands.clear();
    const auto outcome = lm.acquire(c, f, mode, demands);
    sink += demands.size() + static_cast<std::size_t>(outcome);
    ++calls;
    slot = Held{c, f};
  }
  const double t1 = wall_s();
  if (sink == SIZE_MAX || calls == 0) return 0.0;
  return (t1 - t0) * 1e9 / static_cast<double>(calls);
}

// ---------------------------------------------------------------------------
// Result plumbing shared by the workloads.

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

struct Outcome {
  bool correct{true};
  std::vector<std::string> errors;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> metrics;

  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

// The simulated result of one repetition: identical for every repetition at
// one seed, whatever the thread count or tracing.
struct SimResult {
  std::uint64_t digest{kFnvBasis};
  std::uint64_t ops{0};        // completed ops in the measured phase
  std::uint64_t attempted{0};  // ops issued (completed + errored)
  std::uint64_t op_errors{0};  // ops whose callback reported an error
  std::uint64_t wrong{0};      // checker violations (ops with a wrong result)
  Latency lat;
  double ctrl_msgs{0.0};
  double wire_bytes{0.0};
  // Deterministic per-layer counts, keyed by metric name.
  std::map<std::string, double> layer;
};

// Host-side timings of one repetition.
struct HostResult {
  double setup_s{0.0};
  double measured_s{0.0};
  bool traced{false};
  tr::Summary spans{};
  // Ledger inputs beyond spans.
  unsigned workers{1};          // threads that did the measured work
  double barrier_ns{0.0};       // sharded only: worker ns inside the barrier
  std::map<std::string, double> layer;  // host-time layer metrics
};

struct Rep {
  SimResult sim;
  HostResult host;
  std::vector<std::string> errors;
};

// ---------------------------------------------------------------------------
// swarm_100k

struct SwarmShape {
  std::uint32_t n{100000};
  std::uint32_t k{4};
  double warm_s{3.0};
  double measure_s{8.0};
  double slice_s{1.0};
};

constexpr std::uint32_t kServerNode = 1;
constexpr std::uint32_t kClientBase = 100;
constexpr double kSwarmGapS = 2.0;
constexpr double kSwarmExclusive = 0.05;
constexpr double kSwarmZipf = 0.9;

std::size_t swarm_pool(std::uint32_t n) { return std::max<std::size_t>(512, n / 100); }

core::LeaseConfig swarm_lease() {
  core::LeaseConfig lease;
  lease.tau = sim::local_seconds(2);  // renewal storm under the lock traffic
  return lease;
}

protocol::TransportConfig swarm_transport() {
  protocol::TransportConfig t;
  t.reply_cache_size = 8;  // bounded per-session reply cache at 100k sessions
  return t;
}

class Swarm {
 public:
  Swarm(const SwarmShape& shape, std::uint64_t seed, unsigned threads, bool telemetry)
      : shape_(shape),
        engine_(engine_config(shape, threads)),
        root_(mix_seed(seed, 0x5A4A)),
        zipf_(swarm_pool(shape.n), kSwarmZipf),
        lat_(shape.k) {
    fabric_ = std::make_unique<net::ShardedNet>(engine_, root_);
    if (telemetry) {
      sim::ShardedEngine::Telemetry tel;
      tel.counters = &ctr_;
      tel.snapshot_every_windows = 2048;
      engine_.set_telemetry(std::move(tel));
      fabric_->set_counters(&ctr_);
      ctr_.freeze(shape.k);
      telemetry_ = true;
    }
    (void)root_.fork(1);  // the stream ShardedNet consumed from its copy
    const std::size_t pool = swarm_pool(shape.n);
    const DiskId disk{1};
    for (std::uint32_t j = 0; j < shape.k; ++j) {
      sans_.push_back(std::make_unique<storage::SanFabric>(engine_.shard(j), root_.fork(2 + j)));
      sans_.back()->add_disk(disk, pool * 16, 4096);
      fabric_->place(NodeId{kServerNode + j}, j);
    }
    for (std::uint32_t j = 0; j < shape.k; ++j) {
      server::ServerConfig scfg;
      scfg.id = NodeId{kServerNode + j};
      scfg.lease = swarm_lease();
      scfg.transport = swarm_transport();
      scfg.block_size = 4096;
      scfg.data_disks = {disk};
      servers_.push_back(std::make_unique<server::Server>(
          engine_.shard(j), fabric_->shard(j), *sans_[j], sim::LocalClock(1.0), scfg));
      for (std::size_t f = 0; f < pool; ++f) {
        if (!servers_.back()->preallocate("f" + std::to_string(f), 4096).ok()) {
          preallocate_failed_ = true;
        }
      }
      servers_.back()->start();
    }
    // Client i talks to server i mod K and lives on shard (i + i/K) mod K:
    // every shard hosts N/K clients, a quarter of them co-located with their
    // server, so each shard carries an equal share of local and cross-shard
    // traffic.
    members_.resize(shape.n);
    for (std::uint32_t i = 0; i < shape.n; ++i) {
      const std::uint32_t shard = (i + i / shape.k) % shape.k;
      fabric_->place(NodeId{kClientBase + i}, shard);
      client::ClientConfig ccfg;
      ccfg.id = NodeId{kClientBase + i};
      ccfg.server = NodeId{kServerNode + i % shape.k};
      ccfg.lease = swarm_lease();
      ccfg.transport = swarm_transport();
      ccfg.block_size = 4096;
      Member& m = members_[i];
      m.shard = shard;
      m.rng = root_.fork(1000 + i);
      m.cl = std::make_unique<client::Client>(engine_.shard(shard), fabric_->shard(shard),
                                              *sans_[shard], sim::LocalClock(1.0), ccfg);
      // Registration is staggered over the first second; the op loop starts
      // from the open's completion callback.
      const double start_at = 0.001 + 0.999 * m.rng.uniform();
      m.cl->on_registered = [this, i]() {
        tr::Scope cb(tr::Span::kClientCallback, i);
        open_file(i);
      };
      engine_.shard(shard).schedule_after(sim::seconds_d(start_at), [this, i]() {
        tr::Scope call(tr::Span::kClientCall, i);
        members_[i].cl->start();
      });
    }
  }

  Swarm(const Swarm&) = delete;
  Swarm& operator=(const Swarm&) = delete;

  void run_to(double t_s) {
    tr::Scope s(tr::Span::kRunSlice);
    engine_.run_until(sim::SimTime{} + sim::seconds_d(t_s));
  }

  void set_measuring(bool on) { measuring_ = on; }
  [[nodiscard]] bool preallocate_failed() const { return preallocate_failed_; }

  [[nodiscard]] std::uint64_t ops_ok() const {
    std::uint64_t s = 0;
    for (const Member& m : members_) s += m.ops_ok;
    return s;
  }
  [[nodiscard]] std::uint64_t ops_failed() const {
    std::uint64_t s = 0;
    for (const Member& m : members_) s += m.ops_failed;
    return s;
  }

  // Everything simulated so far: per-member op counts in index order, the
  // fabric's counters, the engine's event total and the latency samples.
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = kFnvBasis;
    for (const Member& m : members_) {
      h = fnv(h, m.ops_ok);
      h = fnv(h, m.ops_failed);
    }
    const net::NetStats st = fabric_->stats();
    h = fnv(h, st.sent);
    h = fnv(h, st.delivered);
    h = fnv(h, st.bytes);
    h = fnv(h, engine_.events_executed());
    for (const auto& v : lat_) {
      h = fnv(h, v.size());
      for (std::int64_t x : v) h = fnv(h, static_cast<std::uint64_t>(x));
    }
    return h;
  }

  [[nodiscard]] net::NetStats net_stats() const { return fabric_->stats(); }
  [[nodiscard]] std::uint64_t events() const { return engine_.events_executed(); }
  [[nodiscard]] std::vector<std::int64_t> latencies() const {
    std::vector<std::int64_t> all;
    for (const auto& v : lat_) all.insert(all.end(), v.begin(), v.end());
    return all;
  }
  [[nodiscard]] std::vector<std::unique_ptr<server::Server>>& servers() { return servers_; }
  [[nodiscard]] metrics::Counters client_counters() const {
    metrics::Counters c;
    for (const Member& m : members_) c += m.cl->counters();
    return c;
  }
  [[nodiscard]] metrics::Counters server_counters() const {
    metrics::Counters c;
    for (const auto& sv : servers_) c += sv->counters();
    return c;
  }
  [[nodiscard]] obs::Counters* telemetry() { return telemetry_ ? &ctr_ : nullptr; }

 private:
  struct Member {
    std::unique_ptr<client::Client> cl;
    client::Fd fd{0};
    sim::Rng rng{0};
    std::int64_t issued_ns{0};
    std::uint64_t ops_ok{0};
    std::uint64_t ops_failed{0};
    std::uint32_t shard{0};
    bool ready{false};
  };

  static sim::ShardedEngine::Config engine_config(const SwarmShape& shape, unsigned threads) {
    sim::ShardedEngine::Config c;
    c.shards = shape.k;
    c.threads = threads;  // window: the library default
    return c;
  }

  sim::Engine& shard_engine(const Member& m) { return engine_.shard(m.shard); }

  void open_file(std::size_t i) {
    Member& m = members_[i];
    const std::string path = "f" + std::to_string(zipf_.pick(m.rng.uniform()));
    tr::Scope call(tr::Span::kClientCall, i);
    m.cl->open(path, /*create=*/false, [this, i](Result<client::Fd> res) {
      tr::Scope cb(tr::Span::kClientCallback, i);
      Member& m2 = members_[i];
      if (!res.ok()) {
        ++m2.ops_failed;
        return;
      }
      m2.fd = res.value();
      // on_registered fires again after a re-registration: refresh the fd,
      // never start a second loop.
      if (!m2.ready) {
        m2.ready = true;
        schedule_next(i);
      }
    });
  }

  void schedule_next(std::size_t i) {
    Member& m = members_[i];
    const double gap = m.rng.exponential(kSwarmGapS);
    shard_engine(m).schedule_after(sim::seconds_d(gap), [this, i]() { op(i); });
  }

  void op(std::size_t i) {
    Member& m = members_[i];
    const auto mode = m.rng.uniform() < kSwarmExclusive ? protocol::LockMode::kExclusive
                                                        : protocol::LockMode::kShared;
    m.issued_ns = shard_engine(m).now().ns;
    tr::Scope call(tr::Span::kClientCall, i);
    m.cl->lock(m.fd, mode, [this, i](Status st) {
      tr::Scope cb(tr::Span::kClientCallback, i);
      Member& m2 = members_[i];
      if (!st.is_ok()) {
        ++m2.ops_failed;
        schedule_next(i);
        return;
      }
      tr::Scope call2(tr::Span::kClientCall, i);
      m2.cl->release(m2.fd, protocol::LockMode::kNone, [this, i](Status st2) {
        tr::Scope cb2(tr::Span::kClientCallback, i);
        Member& m3 = members_[i];
        if (st2.is_ok()) {
          ++m3.ops_ok;
          if (measuring_) {
            lat_[m3.shard].push_back(shard_engine(m3).now().ns - m3.issued_ns);
          }
        } else {
          ++m3.ops_failed;
        }
        schedule_next(i);
      });
    });
  }

  SwarmShape shape_;
  sim::ShardedEngine engine_;
  sim::Rng root_;
  const sim::ZipfTable zipf_;
  obs::Counters ctr_;
  bool telemetry_{false};
  std::unique_ptr<net::ShardedNet> fabric_;
  std::vector<std::unique_ptr<storage::SanFabric>> sans_;
  std::vector<std::unique_ptr<server::Server>> servers_;
  std::vector<Member> members_;
  // Per-shard latency samples: written only by the worker running that shard.
  std::vector<std::vector<std::int64_t>> lat_;
  bool measuring_{false};
  bool preallocate_failed_{false};
};

// One swarm repetition. With `probe_only` it stops after the first measured
// slice and returns the digest there (the thread-count determinism check);
// otherwise it runs the whole window. `first_slice_digest` is filled either way.
Rep run_swarm_rep(const SwarmShape& shape, std::uint64_t seed, unsigned threads, bool traced,
                  bool probe_only, std::uint64_t* first_slice_digest,
                  double* rss_per_client) {
  Rep rep;
  const double rss0 = peak_rss_bytes();
  const double t0 = wall_s();
  auto swarm = std::make_unique<Swarm>(shape, seed, threads, traced);
  swarm->run_to(shape.warm_s);
  const double t1 = wall_s();
  rep.host.setup_s = t1 - t0;
  if (swarm->preallocate_failed()) rep.errors.push_back("swarm: preallocate failed");

  obs::Counters* ctr = swarm->telemetry();
  auto merged = [&](const char* name) -> double {
    return ctr != nullptr ? static_cast<double>(ctr->merged(ctr->find(name))) : 0.0;
  };
  const double windows0 = merged("engine.windows");
  const double idle0 = merged("engine.idle_windows");
  const double bwait0 = merged("barrier.wait_ns_total");
  const std::uint64_t ok0 = swarm->ops_ok();
  const std::uint64_t failed0 = swarm->ops_failed();
  const std::uint64_t ev0 = swarm->events();
  const net::NetStats net0 = swarm->net_stats();
  const metrics::Counters cc0 = swarm->client_counters();
  const metrics::Counters srv0 = swarm->server_counters();

  if (traced) {
    tr::Tracer::get().reset();
    tr::Tracer::get().enable();
  }
  swarm->set_measuring(true);
  const double m0 = wall_s();
  double t = shape.warm_s;
  bool first = true;
  while (t < shape.warm_s + shape.measure_s - 1e-9) {
    t = std::min(t + shape.slice_s, shape.warm_s + shape.measure_s);
    swarm->run_to(t);
    if (first) {
      first = false;
      if (first_slice_digest != nullptr) *first_slice_digest = swarm->digest();
      if (probe_only) break;
    }
  }
  const double m1 = wall_s();
  swarm->set_measuring(false);
  if (traced) tr::Tracer::get().disable();
  rep.host.measured_s = m1 - m0;
  if (rss_per_client != nullptr) *rss_per_client = (peak_rss_bytes() - rss0) / shape.n;
  if (probe_only) return rep;

  SimResult& s = rep.sim;
  s.ops = swarm->ops_ok() - ok0;
  s.op_errors = swarm->ops_failed();  // whole run, setup included: must be 0
  s.attempted = s.ops + (swarm->ops_failed() - failed0);
  s.lat = summarize_latency(swarm->latencies());
  const net::NetStats net1 = swarm->net_stats();
  const double ops = std::max<double>(1.0, static_cast<double>(s.ops));
  s.ctrl_msgs = static_cast<double>(net1.sent - net0.sent) / ops;
  s.wire_bytes = static_cast<double>(net1.bytes - net0.bytes) / ops;
  s.digest = swarm->digest();

  for (auto& sv : swarm->servers()) {
    if (!sv->locks().invariants_hold()) {
      rep.errors.push_back("swarm: LockManager invariants broken on a server");
    }
  }
  const metrics::Counters srv1 = swarm->server_counters();
  const metrics::Counters cc1 = swarm->client_counters();
  // Per-op layer counts cover the measured window only.
  auto per_op = [&](std::uint64_t metrics::Counters::*f) {
    return static_cast<double>(srv1.*f - srv0.*f + cc1.*f - cc0.*f) / ops;
  };
  s.layer["sim.events_per_op"] = static_cast<double>(swarm->events() - ev0) / ops;
  s.layer["core.lease_only_msgs_per_op"] = per_op(&metrics::Counters::lease_only_msgs);
  s.layer["core.server_lease_ops"] = static_cast<double>(srv1.lease_ops);  // whole run
  s.layer["server.lock_grants_per_op"] = per_op(&metrics::Counters::lock_grants);
  s.layer["server.lock_demands_per_op"] = per_op(&metrics::Counters::lock_demands);
  s.layer["protocol.retransmits_per_op"] = per_op(&metrics::Counters::retransmissions);
  s.layer["protocol.nacks_per_op"] = per_op(&metrics::Counters::nacks_sent);
  s.layer["protocol.reply_cache_hits_per_op"] = per_op(&metrics::Counters::reply_cache_hits);
  s.layer["net.delivered_ratio"] =
      net1.sent > 0 ? static_cast<double>(net1.delivered) / static_cast<double>(net1.sent) : 0.0;
  if (srv1.lease_ops != 0) {
    rep.errors.push_back("swarm: server performed lease work in a failure-free run");
  }
  if (s.op_errors != 0) rep.errors.push_back("swarm: operations failed");

  HostResult& h = rep.host;
  h.traced = traced;
  h.workers = std::min(threads, shape.k);
  if (traced) {
    h.spans = tr::Tracer::get().summary();
    metrics::Counters all = srv1;
    all += cc1;
    probe_codec(all, net1.sent - net0.sent, net1.delivered - net0.delivered, h.layer);
    const double lock_ns =
        probe_lock_manager(shape.n, static_cast<std::uint32_t>(swarm_pool(shape.n)), kSwarmZipf,
                           kSwarmExclusive, mix_seed(seed, 77));
    h.layer["server.lock_op_ns"] = lock_ns;
    // Each lock/release op costs the lock manager an acquire and a set_mode.
    h.layer["lock_total_ns"] = lock_ns * 2.0 * static_cast<double>(s.ops);
    const double windows = merged("engine.windows") - windows0;
    const double idle = merged("engine.idle_windows") - idle0;
    h.barrier_ns = merged("barrier.wait_ns_total") - bwait0;
    h.layer["sim.imbalance"] = merged("engine.imbalance_permille") / 1000.0;
    h.layer["sim.idle_window_ratio"] = windows + idle > 0 ? idle / (windows + idle) : 0.0;
    h.layer["sim.windows_per_sim_s"] = windows / shape.measure_s;
    h.layer["rt.barrier_wait_ns_p99"] =
        ctr != nullptr ? static_cast<double>(ctr->hist_quantile(ctr->find_hist("barrier.wait_ns"),
                                                                0.99))
                       : 0.0;
    double xshard = 0.0;
    for (std::uint32_t d = 0; d < shape.k; ++d) {
      xshard += merged(("net.xshard_to_s" + std::to_string(d)).c_str());
    }
    h.layer["net.xshard_share"] =
        net1.sent > 0 ? xshard / static_cast<double>(net1.sent) : 0.0;  // whole run
    h.layer["net.mailbox_hw"] = merged("net.mailbox_hw");
  }
  return rep;
}

// ---------------------------------------------------------------------------
// data_contended

struct DataShape {
  std::uint32_t clients{128};
  std::uint32_t files{512};
  std::uint32_t file_blocks{16};
  double think_s{0.05};
  double warm_s{1.0};
  double run_s{30.0};
  double slice_s{1.0};
};

constexpr double kDataZipf = 0.8;
constexpr double kDataReadFraction = 0.7;

// Closed-loop op generator over a Scenario's clients. Scenario::setup() builds the
// installation, registers every client and opens the file pool; this loop
// replaces the scenario's open-loop generator with its own closed loop and
// records every read and write into the scenario's history exactly as the
// scenario's generator would, so Scenario::finish() checks them.
class DataLoop {
 public:
  DataLoop(workload::Scenario& sc, const DataShape& shape, std::uint64_t seed)
      : sc_(sc), shape_(shape), run_end_(shape.warm_s + shape.run_s) {
    sim::Rng root(mix_seed(seed, 0xDA7A));
    for (std::uint32_t c = 0; c < shape.clients; ++c) rngs_.push_back(root.fork(c + 1));
  }

  // Copies the fds the scenario opened; false if any open had not finished.
  bool collect_fds() {
    fds_.assign(shape_.clients, std::vector<client::Fd>(shape_.files, 0));
    try {
      for (std::uint32_t c = 0; c < shape_.clients; ++c) {
        for (std::uint32_t f = 0; f < shape_.files; ++f) fds_[c][f] = sc_.fd(c, f);
      }
    } catch (const std::out_of_range&) {
      return false;
    }
    return true;
  }

  void start() {
    for (std::uint32_t c = 0; c < shape_.clients; ++c) schedule_next(c);
  }

  std::uint64_t reads_ok{0};
  std::uint64_t writes_ok{0};
  std::uint64_t errors{0};
  std::vector<std::int64_t> lat_ns;
  std::vector<std::int64_t> lock_wait_ns;

 private:
  void schedule_next(std::size_t ci) {
    const double think = rngs_[ci].exponential(shape_.think_s);
    if (now_s() + think >= run_end_) return;  // the client's loop ends with the window
    sc_.engine().schedule_after(sim::seconds_d(think), [this, ci]() { issue(ci); });
  }

  [[nodiscard]] double now_s() const { return sc_.engine().now().seconds(); }

  void note(std::int64_t t0) { lat_ns.push_back(sc_.engine().now().ns - t0); }

  void issue(std::size_t ci) {
    sim::Rng& rng = rngs_[ci];
    const std::size_t fi = rng.zipf(shape_.files, kDataZipf);
    const auto block = static_cast<std::uint64_t>(rng.uniform_int(0, shape_.file_blocks - 1));
    const bool is_read = rng.uniform() < kDataReadFraction;
    const std::uint32_t bs = sc_.config().block_size;
    const client::Fd fd = fds_[ci][fi];
    const FileId file = sc_.file_id(fi);
    const NodeId node = sc_.client_node(ci);
    const std::int64_t t0 = sc_.engine().now().ns;
    client::Client& cl = sc_.client(ci);
    if (is_read) {
      tr::Scope call(tr::Span::kClientCall, ci);
      cl.read(fd, block * bs, bs, [this, ci, file, block, node, t0, bs](Result<Bytes> res) {
        tr::Scope cb(tr::Span::kClientCallback, ci);
        if (!res.ok() || res.value().size() != bs) {
          ++errors;
          schedule_next(ci);
          return;
        }
        ++reads_ok;
        note(t0);
        const auto stamp = verify::decode_stamp(res.value());
        recycle_buf(std::move(res).value());
        verify::ReadRec rec;
        rec.start = sim::SimTime{t0};
        rec.end = sc_.engine().now();
        rec.client = node;
        rec.file = file;
        rec.block = block;
        rec.observed_version = stamp ? stamp->version : 0;
        sc_.history().on_read(rec);
        schedule_next(ci);
      });
      return;
    }
    tr::Scope call(tr::Span::kClientCall, ci);
    cl.lock(fd, protocol::LockMode::kExclusive,
            [this, ci, fd, file, block, node, t0, bs](Status st) {
              tr::Scope cb(tr::Span::kClientCallback, ci);
              if (!st.is_ok()) {
                ++errors;
                schedule_next(ci);
                return;
              }
              lock_wait_ns.push_back(sc_.engine().now().ns - t0);
              // Versions are drawn under the exclusive lock, as the
              // scenario's own generator does.
              const verify::Stamp stamp{file, block, sc_.next_version(file, block), node};
              Bytes data = verify::make_stamped_block(bs, stamp);
              tr::Scope call2(tr::Span::kClientCall, ci);
              sc_.client(ci).write(fd, block * bs, std::move(data),
                                   [this, ci, stamp, node, t0](Status st2) {
                                     tr::Scope cb2(tr::Span::kClientCallback, ci);
                                     if (st2.is_ok()) {
                                       ++writes_ok;
                                       sc_.history().on_buffered_write(sc_.engine().now(), node,
                                                                       stamp);
                                       note(t0);
                                     } else {
                                       ++errors;
                                     }
                                     schedule_next(ci);
                                   });
            });
  }

  workload::Scenario& sc_;
  DataShape shape_;
  double run_end_;
  std::vector<sim::Rng> rngs_;
  std::vector<std::vector<client::Fd>> fds_;
};

Rep run_data_rep(const DataShape& shape, std::uint64_t seed, bool traced) {
  Rep rep;
  workload::ScenarioConfig cfg;
  cfg.workload.pattern = workload::Pattern::kRandomZipf;
  cfg.workload.num_clients = shape.clients;
  cfg.workload.num_files = shape.files;
  cfg.workload.file_blocks = shape.file_blocks;
  cfg.workload.read_fraction = kDataReadFraction;
  cfg.workload.zipf_s = kDataZipf;
  cfg.workload.mean_interarrival_s = shape.think_s;
  cfg.workload.run_seconds = shape.warm_s + shape.run_s;
  cfg.workload.seed = mix_seed(seed, 0xC0DE);

  const double t0 = wall_s();
  workload::Scenario sc(cfg);
  sc.setup();
  sc.run_until_s(shape.warm_s);
  DataLoop loop(sc, shape, seed);
  const bool opened = loop.collect_fds();
  const double t1 = wall_s();
  rep.host.setup_s = t1 - t0;
  if (!opened) {
    rep.errors.push_back("data_contended: file opens unfinished at the end of warm-up");
    return rep;
  }

  sim::Engine& eng = sc.engine();
  const std::uint64_t ev0 = eng.events_executed();
  std::size_t queued_max = 0;
  const std::function<void()> sample = [&]() {
    queued_max = std::max(queued_max, sc.server().locks().queued_waiters());
  };

  if (traced) {
    tr::Tracer::get().reset();
    tr::Tracer::get().enable();
  }
  const double m0 = wall_s();
  loop.start();
  for (double t = shape.warm_s; t < shape.warm_s + shape.run_s - 1e-9;) {
    t = std::min(t + shape.slice_s, shape.warm_s + shape.run_s);
    tr::Scope s(tr::Span::kRunSlice);
    advance(eng, sim::SimTime{} + sim::seconds_d(t), traced, sample);
  }
  const double f0 = wall_s();
  workload::ScenarioResult r;
  {
    tr::Scope s(tr::Span::kScenarioFinish);
    r = sc.finish();
  }
  const double m1 = wall_s();
  if (traced) tr::Tracer::get().disable();
  rep.host.measured_s = m1 - m0;

  SimResult& s = rep.sim;
  s.ops = loop.reads_ok + loop.writes_ok;
  s.op_errors = loop.errors;
  s.attempted = s.ops + s.op_errors;
  s.wrong = r.violation_list.size();
  s.lat = summarize_latency(loop.lat_ns);
  const double ops = std::max<double>(1.0, static_cast<double>(s.ops));
  s.ctrl_msgs = static_cast<double>(r.net.sent) / ops;
  s.wire_bytes = static_cast<double>(r.net.bytes) / ops;
  std::uint64_t hits = 0, misses = 0;
  for (std::size_t c = 0; c < sc.num_clients(); ++c) {
    hits += sc.client(c).cache().hits();
    misses += sc.client(c).cache().misses();
  }
  std::uint64_t h = kFnvBasis;
  for (std::uint64_t v : {loop.reads_ok, loop.writes_ok, loop.errors, s.lat.samples, s.lat.sum_ns,
                          r.net.sent, r.net.delivered, r.net.bytes, r.engine_events,
                          r.san.ios_submitted, r.server.lock_grants, r.server.lock_demands,
                          hits, misses, static_cast<std::uint64_t>(s.wrong)}) {
    h = fnv(h, v);
  }
  s.digest = h;

  s.layer["sim.events_per_op"] = static_cast<double>(eng.events_executed() - ev0) / ops;
  s.layer["server.lock_grants_per_op"] = static_cast<double>(r.server.lock_grants) / ops;
  s.layer["server.lock_demands_per_op"] = static_cast<double>(r.server.lock_demands) / ops;
  s.layer["client.cache_hit_ratio"] =
      hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0;
  s.layer["client.lock_wait_ms_p99"] = summarize_latency(loop.lock_wait_ns).p99_ms;
  s.layer["storage.san_ios_per_op"] = static_cast<double>(r.san.ios_submitted) / ops;
  s.layer["storage.fence_rejects"] = static_cast<double>(r.san.ios_failed_fenced);
  s.layer["core.lease_only_msgs_per_op"] = static_cast<double>(r.clients.lease_only_msgs) / ops;
  s.layer["core.server_lease_ops"] = static_cast<double>(r.server.lease_ops);
  s.layer["core.lease_state_bytes_max"] = static_cast<double>(r.max_lease_state_bytes);
  s.layer["protocol.retransmits_per_op"] =
      static_cast<double>(r.server.retransmissions + r.clients.retransmissions) / ops;
  s.layer["protocol.nacks_per_op"] = static_cast<double>(r.server.nacks_sent) / ops;
  s.layer["protocol.reply_cache_hits_per_op"] =
      static_cast<double>(r.server.reply_cache_hits) / ops;
  s.layer["net.delivered_ratio"] =
      r.net.sent > 0 ? static_cast<double>(r.net.delivered) / static_cast<double>(r.net.sent)
                     : 0.0;

  if (!r.violation_list.empty()) rep.errors.push_back("data_contended: checker found violations");
  if (s.op_errors != 0) rep.errors.push_back("data_contended: operations failed");
  if (r.server.lease_ops != 0) {
    rep.errors.push_back("data_contended: server performed lease work in a failure-free run");
  }
  if (!sc.server().locks().invariants_hold()) {
    rep.errors.push_back("data_contended: LockManager invariants broken");
  }

  HostResult& hr = rep.host;
  hr.traced = traced;
  hr.layer["verify.finish_share"] = (m1 - f0) / (m1 - m0);
  if (traced) {
    hr.spans = tr::Tracer::get().summary();
    metrics::Counters all = r.server;
    all += r.clients;
    probe_codec(all, r.net.sent, r.net.delivered, hr.layer);
    const double lock_ns = probe_lock_manager(shape.clients, shape.files, kDataZipf,
                                              1.0 - kDataReadFraction, mix_seed(seed, 77));
    hr.layer["server.lock_op_ns"] = lock_ns;
    // A grant and its later release (or demand compliance) per lock.
    hr.layer["lock_total_ns"] = lock_ns * 2.0 * static_cast<double>(r.server.lock_grants);
    hr.layer["server.queued_waiters_max"] = static_cast<double>(queued_max);
  }
  return rep;
}

// ---------------------------------------------------------------------------
// fault_sweep

struct SweepShape {
  std::uint32_t episodes{16000};
};

// The sweep's episodes are paper-valid fuzz episodes over tools/fuzz_safety's
// valid-mode (non-byzantine) ranges: a small contended workload, tau /
// epsilon / clock-skew mode, an adversarial control net (dup, reorder spikes,
// Gilbert-Elliott burst loss) and a random failure plan. fuzz_safety draws
// every parameter independently per episode; here each parameter is a
// Latin-hypercube column instead: over the sweep, episode i takes stratum
// perm_j(i) of parameter j's range (a seeded permutation per parameter) plus
// a uniform offset inside it. Every seed then covers each range evenly, so
// sweep-level latency percentiles move with the code, not with which corner
// of the parameter space a seed happened to sample. Workload seeds, failure
// plans and all network randomness stay free draws.
class EpisodeDesign {
 public:
  enum Column : std::size_t {
    kPattern, kClients, kFiles, kReadFraction, kInterarrival, kRunSeconds, kTau, kEpsilon,
    kSkew, kLatency, kDrop, kDup, kReorder, kSpike, kBurstOn, kGoodToBad, kBadToGood,
    kBurstLoss, kFailures, kColumns
  };

  EpisodeDesign(std::uint64_t master_seed, std::uint32_t episodes)
      : master_(master_seed), n_(episodes), perm_(kColumns) {
    sim::Rng rng(mix_seed(master_seed, 0x1A7));
    for (auto& p : perm_) {
      p.resize(episodes);
      for (std::uint32_t i = 0; i < episodes; ++i) p[i] = i;
      for (std::uint32_t i = episodes; i > 1; --i) {
        std::swap(p[i - 1], p[static_cast<std::size_t>(rng.uniform_int(0, i - 1))]);
      }
    }
  }

  [[nodiscard]] workload::ScenarioConfig episode(std::uint32_t index) const {
    sim::Rng rng = sim::Rng(master_).fork(index + 1);
    auto u = [&](Column c) { return (perm_[c][index] + rng.uniform()) / n_; };
    auto pick = [&](Column c, int k) { return std::min(k - 1, static_cast<int>(u(c) * k)); };
    workload::ScenarioConfig cfg;
    cfg.workload.pattern = static_cast<workload::Pattern>(pick(kPattern, 4));
    cfg.workload.num_clients = static_cast<std::uint32_t>(2 + pick(kClients, 3));
    cfg.workload.num_files = static_cast<std::uint32_t>(2 + pick(kFiles, 3));
    cfg.workload.file_blocks = 4;
    cfg.workload.read_fraction = 0.3 + 0.5 * u(kReadFraction);
    cfg.workload.mean_interarrival_s = 0.02 + 0.06 * u(kInterarrival);
    cfg.workload.run_seconds = 8.0 + 6.0 * u(kRunSeconds);
    cfg.workload.seed = rng.next_u64();

    cfg.lease.tau = sim::local_seconds_d(1.5 + 2.5 * u(kTau));
    const double epsilons[] = {1e-6, 1e-4, 1e-2, 5e-2};
    cfg.lease.epsilon = epsilons[pick(kEpsilon, 4)];
    const int skew_modes[] = {0, 0, -1, +1};
    cfg.clock_skew_mode = skew_modes[pick(kSkew, 4)];

    cfg.control_net.latency = sim::micros(100 + pick(kLatency, 1900));
    cfg.control_net.jitter = sim::Duration{cfg.control_net.latency.ns / 2};
    cfg.control_net.delivery_bucket = sim::Duration{1};  // exact-time delivery, as the fuzzer
    cfg.control_net.drop_probability = 0.10 * u(kDrop);
    cfg.control_net.dup_probability = 0.25 * u(kDup);
    cfg.control_net.reorder_probability = 0.40 * u(kReorder);
    cfg.control_net.reorder_spike = sim::millis(1 + pick(kSpike, 999));
    if (u(kBurstOn) < 0.5) {
      cfg.control_net.ge_good_to_bad = 0.02 * u(kGoodToBad);
      cfg.control_net.ge_bad_to_good = 0.05 + 0.45 * u(kBadToGood);
      cfg.control_net.burst_loss = 0.8 + 0.2 * u(kBurstLoss);
    }

    // fuzz_safety also injects server crash/restart pairs in a quarter of
    // its episodes. They stay out of this sweep: some currently end in a
    // lost-update violation (see perfbench/README.md), and a benchmark
    // workload must pass its checker on every seed.
    workload::FailurePlan::RandomMix mix;
    mix.server_restarts = false;
    const auto failures = static_cast<std::size_t>(pick(kFailures, 5));
    cfg.failures = workload::FailurePlan::random(rng, cfg.workload, failures, mix);
    return cfg;
  }

 private:
  std::uint64_t master_;
  double n_;
  std::vector<std::vector<std::uint32_t>> perm_;
};

struct EpisodeOut {
  std::uint64_t ops{0};
  std::uint64_t op_errors{0};
  std::uint64_t violations{0};
  std::string verdict;  // the scenario's verdict line, kept for violating episodes
  std::uint64_t events{0};
  net::NetStats net;
  metrics::Counters server;
  metrics::Counters clients;
  std::vector<double> lat_ms;
  std::size_t lease_bytes_max{0};
  std::size_t suspects_max{0};
  std::uint64_t san_ios{0};
  std::uint64_t fence_rejects{0};
  double setup_ns{0.0};   // construct + setup
  double finish_ns{0.0};
};

EpisodeOut run_episode(const workload::ScenarioConfig& cfg, std::uint64_t idx, bool traced) {
  EpisodeOut out;
  const std::uint64_t t0 = tr::now_ns();
  std::unique_ptr<workload::Scenario> sc;
  {
    tr::Scope s(tr::Span::kScenarioConstruct, idx);
    sc = std::make_unique<workload::Scenario>(cfg);
  }
  {
    tr::Scope s(tr::Span::kScenarioSetup, idx);
    sc->setup();
  }
  const std::uint64_t t1 = tr::now_ns();
  {
    tr::Scope s(tr::Span::kScenarioRun, idx);
    sc->run_generators();
    advance(sc->engine(), sim::SimTime{} + sim::seconds_d(cfg.workload.run_seconds), traced,
            [&]() {
              out.suspects_max =
                  std::max(out.suspects_max, sc->server().authority().suspect_count());
            });
  }
  const std::uint64_t t2 = tr::now_ns();
  workload::ScenarioResult r;
  {
    tr::Scope s(tr::Span::kScenarioFinish, idx);
    r = sc->finish();
  }
  const std::uint64_t t3 = tr::now_ns();
  {
    tr::Scope s(tr::Span::kScenarioTeardown, idx);
    sc.reset();
  }
  out.setup_ns = static_cast<double>(t1 - t0);
  out.finish_ns = static_cast<double>(t3 - t2);
  out.ops = r.reads_ok + r.writes_ok;
  out.op_errors = r.ops_failed;
  out.violations = r.violation_list.size();
  if (out.violations != 0) out.verdict = r.verdict_line();
  out.events = r.engine_events;
  out.net = r.net;
  out.server = r.server;
  out.clients = r.clients;
  out.lat_ms = r.op_latency_ms.samples();
  out.lease_bytes_max = r.max_lease_state_bytes;
  out.san_ios = r.san.ios_submitted;
  out.fence_rejects = r.san.ios_failed_fenced;
  return out;
}

Rep run_sweep_rep(const SweepShape& shape, std::uint64_t seed, unsigned threads, bool traced) {
  Rep rep;
  const std::uint64_t master = mix_seed(seed, 0xF5);
  std::vector<workload::ScenarioConfig> cfgs;
  cfgs.reserve(shape.episodes);
  const EpisodeDesign design(master, shape.episodes);
  for (std::uint32_t i = 0; i < shape.episodes; ++i) cfgs.push_back(design.episode(i));

  std::vector<EpisodeOut> outs(shape.episodes);
  if (traced) {
    tr::Tracer::get().reset();
    tr::Tracer::get().enable();
  }
  const double m0 = wall_s();
  rt::parallel_for(
      shape.episodes, [&](std::size_t i) { outs[i] = run_episode(cfgs[i], i, traced); }, threads);
  const double m1 = wall_s();
  if (traced) tr::Tracer::get().disable();
  const unsigned workers = std::min<unsigned>(threads, shape.episodes);
  const double capacity_ns = (m1 - m0) * 1e9 * workers;

  SimResult& s = rep.sim;
  std::vector<std::int64_t> lat_ns;
  metrics::Counters srv, cli;
  std::uint64_t sent = 0, delivered = 0, bytes = 0, dup_reorder = 0, events = 0, san_ios = 0;
  std::uint64_t fence_rejects = 0;
  std::size_t lease_bytes_max = 0, suspects_max = 0;
  double setup_ns = 0.0, finish_ns = 0.0;
  std::uint64_t h = kFnvBasis;
  for (const EpisodeOut& o : outs) {
    s.ops += o.ops;
    s.op_errors += o.op_errors;
    s.wrong += o.violations;
    for (double ms : o.lat_ms) lat_ns.push_back(std::llround(ms * 1e6));
    srv += o.server;
    cli += o.clients;
    sent += o.net.sent;
    delivered += o.net.delivered;
    bytes += o.net.bytes;
    dup_reorder += o.net.duplicated + o.net.reordered;
    events += o.events;
    san_ios += o.san_ios;
    fence_rejects += o.fence_rejects;
    lease_bytes_max = std::max(lease_bytes_max, o.lease_bytes_max);
    suspects_max = std::max(suspects_max, o.suspects_max);
    setup_ns += o.setup_ns;
    finish_ns += o.finish_ns;
    for (std::uint64_t v : {o.ops, o.op_errors, o.violations, o.events, o.net.sent, o.net.bytes}) {
      h = fnv(h, v);
    }
  }
  s.attempted = s.ops + s.op_errors;
  s.lat = summarize_latency(std::move(lat_ns));
  h = fnv(h, s.lat.sum_ns);
  s.digest = h;
  const double ops = std::max<double>(1.0, static_cast<double>(s.ops));
  s.ctrl_msgs = static_cast<double>(sent) / ops;
  s.wire_bytes = static_cast<double>(bytes) / ops;
  s.layer["sim.events_per_op"] = static_cast<double>(events) / ops;
  s.layer["net.delivered_ratio"] =
      sent > 0 ? static_cast<double>(delivered) / static_cast<double>(sent) : 0.0;
  s.layer["net.dup_reorder_per_op"] = static_cast<double>(dup_reorder) / ops;
  s.layer["protocol.retransmits_per_op"] =
      static_cast<double>(srv.retransmissions + cli.retransmissions) / ops;
  s.layer["protocol.nacks_per_op"] = static_cast<double>(srv.nacks_sent) / ops;
  s.layer["protocol.reply_cache_hits_per_op"] = static_cast<double>(srv.reply_cache_hits) / ops;
  s.layer["core.lease_only_msgs_per_op"] = static_cast<double>(cli.lease_only_msgs) / ops;
  s.layer["core.server_lease_ops"] = static_cast<double>(srv.lease_ops);
  s.layer["core.lease_state_bytes_max"] = static_cast<double>(lease_bytes_max);
  s.layer["server.lock_grants_per_op"] = static_cast<double>(srv.lock_grants) / ops;
  s.layer["server.lock_demands_per_op"] = static_cast<double>(srv.lock_demands) / ops;
  s.layer["server.lock_steals"] = static_cast<double>(srv.lock_steals);
  s.layer["server.fences_issued"] = static_cast<double>(srv.fences_issued);
  s.layer["storage.san_ios_per_op"] = static_cast<double>(san_ios) / ops;
  s.layer["storage.fence_rejects"] = static_cast<double>(fence_rejects);
  for (std::size_t i = 0; i < outs.size(); ++i) {
    if (outs[i].violations == 0) continue;
    rep.errors.push_back("fault_sweep: episode " + std::to_string(i) + " of master seed " +
                         std::to_string(master) + ": " + outs[i].verdict);
  }

  HostResult& hr = rep.host;
  hr.traced = traced;
  hr.workers = workers;
  hr.measured_s = m1 - m0;
  // Episode set-up is paid inside the sweep; setup_s reports its share in
  // wall-clock seconds (thread time spread over the workers).
  hr.setup_s = setup_ns / 1e9 / workers;
  hr.layer["workload.episode_setup_share"] = setup_ns / capacity_ns;
  hr.layer["verify.finish_share"] = finish_ns / capacity_ns;
  if (traced) {
    hr.spans = tr::Tracer::get().summary();
    metrics::Counters all = srv;
    all += cli;
    probe_codec(all, sent, delivered, hr.layer);
    hr.layer["core.suspects_max"] = static_cast<double>(suspects_max);
  }
  return rep;
}

// ---------------------------------------------------------------------------
// The traced ledger: where the traced measured wall time went.
//
// Capacity is workers x wall (thread time); rows are reported divided by
// the worker count, so they read as wall-clock ns and sum to the traced wall
// time exactly. Rows:
//   * self time of each span name recorded on the worker threads (in the
//     sharded swarm the main thread's run_until slices only wait for the
//     workers and frame the capacity instead);
//   * probe estimates (codec ns x datagrams, lock-manager ns x calls). They
//     run inside engine events, so they are carved out of sim.step self time
//     where steps are spanned and out of the unattributed remainder otherwise;
//   * barrier wait (sharded only, from the engine's telemetry);
//   * the unattributed remainder: time outside every span and probe.
struct LedgerRow {
  std::string name;
  double ns{0.0};
};

std::vector<LedgerRow> build_ledger(const HostResult& h, bool slices_frame) {
  std::vector<LedgerRow> rows;
  const double workers = h.workers;
  const double capacity = h.measured_s * 1e9 * workers;
  auto get = [&](const char* k) {
    const auto it = h.layer.find(k);
    return it != h.layer.end() ? it->second : 0.0;
  };
  const double codec = get("codec_total_ns");
  const double lock = get("lock_total_ns");
  for (std::size_t i = 0; i < h.spans.size(); ++i) {
    const auto span = static_cast<tr::Span>(i);
    if (h.spans[i].count == 0) continue;
    if (slices_frame && span == tr::Span::kRunSlice) continue;
    double self = static_cast<double>(h.spans[i].self_ns);
    if (span == tr::Span::kStep) {
      self -= codec + lock;
    }
    rows.push_back({tr::name_of(span), self});
  }
  rows.push_back({"probe:protocol.codec", codec});
  rows.push_back({"probe:server.lock_manager", lock});
  if (h.barrier_ns > 0.0) rows.push_back({"rt.barrier_wait", h.barrier_ns});
  double attributed = 0.0;
  for (const LedgerRow& r : rows) attributed += r.ns;
  rows.push_back({"unattributed", capacity - attributed});
  for (LedgerRow& r : rows) r.ns /= workers;
  return rows;
}

// ---------------------------------------------------------------------------
// Options and the repetition loop.

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  bool tiny{false};
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload swarm_100k|data_contended|fault_sweep --seed N\n"
               "                 --seconds S --trace 0|1 [--scale full|tiny] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (v == nullptr) usage(("missing value for " + a).c_str());
    ++i;
    std::uint64_t n = 0;
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      if (!parse_u64(v, &o.seed)) usage("--seed takes a non-negative integer");
    } else if (a == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 3600.0) usage("bad --seconds");
    } else if (a == "--trace") {
      if (!parse_u64(v, &n) || n > 1) usage("--trace takes 0 or 1");
      o.trace = n == 1;
    } else if (a == "--scale") {
      if (std::strcmp(v, "full") != 0 && std::strcmp(v, "tiny") != 0) usage("bad --scale");
      o.tiny = std::strcmp(v, "tiny") == 0;
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (o.workload != "swarm_100k" && o.workload != "data_contended" &&
      o.workload != "fault_sweep") {
    usage("unknown workload");
  }
  return o;
}

// Repeats `one(traced)` until `seconds` of wall time have passed (and at
// least `min_reps` ran). In trace mode repetitions alternate untraced and
// traced, starting untraced.
template <typename F>
std::vector<Rep> repeat(double seconds, int min_reps, bool trace, F&& one) {
  std::vector<Rep> reps;
  const double deadline = wall_s() + seconds;
  int untraced = 0, traced = 0;
  while (reps.empty() || wall_s() < deadline || untraced < min_reps ||
         (trace && traced < 1)) {
    const bool t = trace && traced < untraced;
    reps.push_back(one(t));
    (t ? traced : untraced) += 1;
    if (!reps.back().errors.empty()) break;  // wrong output: stop, report
  }
  return reps;
}

void print_json(const Outcome& o) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              o.correct ? "true" : "false", static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Every per-layer metric the traced run prints, with its unit, in print order.
const std::vector<std::pair<const char*, const char*>>& layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> k = {
      {"sim.events_per_op", "events/op"},
      {"sim.step_ns_p50", "ns"},
      {"sim.step_ns_p99", "ns"},
      {"sim.imbalance", "ratio"},
      {"sim.idle_window_ratio", "ratio"},
      {"sim.windows_per_sim_s", "1/s"},
      {"sim.op_samples", "count"},
      {"rt.barrier_wait_share", "ratio"},
      {"rt.barrier_wait_ns_p99", "ns"},
      {"net.xshard_share", "ratio"},
      {"net.mailbox_hw", "count"},
      {"net.delivered_ratio", "ratio"},
      {"net.dup_reorder_per_op", "count/op"},
      {"protocol.encode_ns", "ns"},
      {"protocol.decode_ns", "ns"},
      {"protocol.codec_share", "ratio"},
      {"protocol.retransmits_per_op", "count/op"},
      {"protocol.nacks_per_op", "count/op"},
      {"protocol.reply_cache_hits_per_op", "count/op"},
      {"core.lease_only_msgs_per_op", "msgs/op"},
      {"core.server_lease_ops", "count"},
      {"core.suspects_max", "count"},
      {"core.lease_state_bytes_max", "B"},
      {"server.lock_grants_per_op", "count/op"},
      {"server.lock_demands_per_op", "count/op"},
      {"server.queued_waiters_max", "count"},
      {"server.lock_steals", "count"},
      {"server.fences_issued", "count"},
      {"server.lock_op_ns", "ns"},
      {"client.call_ns_p50", "ns"},
      {"client.call_ns_p99", "ns"},
      {"client.cache_hit_ratio", "ratio"},
      {"client.lock_wait_ms_p99", "ms"},
      {"storage.san_ios_per_op", "count/op"},
      {"storage.fence_rejects", "count"},
      {"verify.finish_share", "ratio"},
      {"workload.episode_setup_share", "ratio"},
      {"mem.rss_bytes_per_client", "B"},
      {"ops_failed_ratio", "ratio"},
      {"trace.overhead_pct", "%"},
      {"trace.unattributed_share", "ratio"},
  };
  return k;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = std::min(4u, hw);
  Outcome out;
  std::vector<Rep> reps;
  double rss_per_client = 0.0;
  bool slices_frame = false;

  if (opt.workload == "swarm_100k") {
    SwarmShape shape;
    if (opt.tiny) {
      shape.n = 2000;
      shape.warm_s = 2.0;
      shape.measure_s = 2.0;
    }
    slices_frame = true;
    // Determinism across thread counts: the first measured slice at one
    // worker thread must reproduce the digest every full-width repetition
    // reaches at the same simulated instant.
    std::uint64_t serial_digest = 0;
    (void)run_swarm_rep(shape, opt.seed, 1, false, true, &serial_digest, &rss_per_client);
    reps = repeat(opt.seconds, 3, opt.trace, [&](bool traced) {
      std::uint64_t d = 0;
      Rep r = run_swarm_rep(shape, opt.seed, threads, traced, false, &d, nullptr);
      if (d != serial_digest) {
        r.errors.push_back("swarm: simulated counts differ between 1 and " +
                           std::to_string(threads) + " worker threads");
      }
      return r;
    });
  } else if (opt.workload == "data_contended") {
    DataShape shape;
    if (opt.tiny) {
      shape.clients = 16;
      shape.files = 32;
      shape.run_s = 3.0;
    }
    reps = repeat(opt.seconds, 3, opt.trace,
                  [&](bool traced) { return run_data_rep(shape, opt.seed, traced); });
  } else {
    SweepShape shape;
    if (opt.tiny) shape.episodes = 12;
    reps = repeat(opt.seconds, 3, opt.trace,
                  [&](bool traced) { return run_sweep_rep(shape, opt.seed, threads, traced); });
  }

  // Correctness: every repetition clean and simulating exactly the same thing.
  const SimResult& sim = reps.front().sim;
  for (const Rep& r : reps) {
    for (const std::string& e : r.errors) out.fail(e);
    if (r.sim.digest != sim.digest) {
      out.fail(std::string("repetitions diverged: ") +
               (r.host.traced ? "tracing changed the simulation" : "nondeterministic run"));
    }
  }
  out.attempted = std::max<std::uint64_t>(1, sim.attempted);
  out.failed = opt.workload == "fault_sweep" ? sim.wrong : sim.op_errors + sim.wrong;

  std::vector<double> ns_per_op_untraced, ns_per_op_traced, setup;
  const Rep* traced_rep = nullptr;
  std::printf("host_ns_per_op by repetition:");
  for (const Rep& r : reps) {
    const double v =
        r.host.measured_s * 1e9 / std::max<double>(1.0, static_cast<double>(r.sim.ops));
    std::printf(" %.0f%s", v, r.host.traced ? "(traced)" : "");
    if (r.host.traced) {
      ns_per_op_traced.push_back(v);
      traced_rep = &r;
    } else {
      ns_per_op_untraced.push_back(v);
      setup.push_back(r.host.setup_s);
    }
  }
  std::printf("\n");
  std::printf("perfbench %s seed=%llu threads=%u reps=%zu ops/rep=%llu digest=%016llx\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), threads,
              reps.size(), static_cast<unsigned long long>(sim.ops),
              static_cast<unsigned long long>(sim.digest));
  std::printf("SIM {\"digest\": \"%016llx\", \"ops\": %llu, \"op_errors\": %llu, \"wrong\": %llu, "
              "\"lat_samples\": %llu, \"p50_ms\": %.17g, \"p99_ms\": %.17g, \"p999_ms\": %.17g, "
              "\"ctrl_msgs_per_op\": %.17g, \"wire_bytes_per_op\": %.17g}\n",
              static_cast<unsigned long long>(sim.digest),
              static_cast<unsigned long long>(sim.ops),
              static_cast<unsigned long long>(sim.op_errors),
              static_cast<unsigned long long>(sim.wrong),
              static_cast<unsigned long long>(sim.lat.samples), sim.lat.p50_ms, sim.lat.p99_ms,
              sim.lat.p999_ms, sim.ctrl_msgs, sim.wire_bytes);
  for (const std::string& e : out.errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  if (!opt.trace) {
    out.add("host_ns_per_op", best(ns_per_op_untraced), "ns");
    out.add("setup_s", median(setup), "s");
    out.add("peak_rss_mb", peak_rss_bytes() / (1024.0 * 1024.0), "MB");
    out.add("sim_op_p50_ms", sim.lat.p50_ms, "ms");
    out.add("sim_op_p99_ms", sim.lat.p99_ms, "ms");
    out.add("sim_op_p999_ms", sim.lat.p999_ms, "ms");
    out.add("ctrl_msgs_per_op", sim.ctrl_msgs, "msgs/op");
    out.add("wire_bytes_per_op", sim.wire_bytes, "B/op");
    std::printf("latency samples: %llu\n", static_cast<unsigned long long>(sim.lat.samples));
    print_json(out);
    return out.correct ? 0 : 1;
  }

  // Traced run: per-layer metrics and the ledger.
  std::map<std::string, double> layer = sim.layer;
  const double untraced_ns = best(ns_per_op_untraced);
  const double traced_ns = best(ns_per_op_traced);
  layer["sim.op_samples"] = static_cast<double>(sim.lat.samples);
  layer["ops_failed_ratio"] =
      static_cast<double>(sim.op_errors) / static_cast<double>(out.attempted);
  layer["mem.rss_bytes_per_client"] = rss_per_client;
  layer["trace.overhead_pct"] =
      untraced_ns > 0.0 ? (traced_ns - untraced_ns) / untraced_ns * 100.0 : 0.0;
  if (traced_rep != nullptr) {
    const HostResult& h = traced_rep->host;
    for (const auto& [k, v] : h.layer) layer[k] = v;
    const tr::SpanStats& step = h.spans[static_cast<std::size_t>(tr::Span::kStep)];
    layer["sim.step_ns_p50"] = step.dur.quantile(0.50);
    layer["sim.step_ns_p99"] = step.dur.quantile(0.99);
    const tr::SpanStats& call = h.spans[static_cast<std::size_t>(tr::Span::kClientCall)];
    layer["client.call_ns_p50"] = call.self.quantile(0.50);
    layer["client.call_ns_p99"] = call.self.quantile(0.99);
    const double capacity = h.measured_s * 1e9 * h.workers;
    layer["protocol.codec_share"] = layer["codec_total_ns"] / capacity;
    layer["rt.barrier_wait_share"] = h.barrier_ns / capacity;

    const std::vector<LedgerRow> rows = build_ledger(h, slices_frame);
    double sum = 0.0;
    std::printf("ledger (traced wall %.3f ms on %u worker thread(s); rows in wall-clock ms)\n",
                h.measured_s * 1e3, h.workers);
    for (const LedgerRow& r : rows) {
      sum += r.ns;
      std::printf("  %-28s %12.3f ms  %6.2f%%\n", r.name.c_str(), r.ns / 1e6,
                  100.0 * r.ns / (h.measured_s * 1e9));
      if (r.name == "unattributed") {
        layer["trace.unattributed_share"] = r.ns / (h.measured_s * 1e9);
      }
    }
    std::printf("  %-28s %12.3f ms (traced wall %.3f ms)\n", "sum", sum / 1e6,
                h.measured_s * 1e3);
    std::printf("spans (count, self ms):");
    for (std::size_t i = 0; i < h.spans.size(); ++i) {
      if (h.spans[i].count == 0) continue;
      std::printf(" %s=%llu/%.1f", tr::kSpanNames[i],
                  static_cast<unsigned long long>(h.spans[i].count),
                  static_cast<double>(h.spans[i].self_ns) / 1e6);
    }
    std::printf("\n");
  }
  if (!opt.trace_out.empty()) {
    if (!tr::Tracer::get().write_tsv(opt.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
    } else {
      std::printf("spans written to %s\n", opt.trace_out.c_str());
    }
  }
  for (const auto& [name, unit] : layer_metrics()) {
    const auto it = layer.find(name);
    out.add(name, it != layer.end() ? it->second : 0.0, unit);
  }
  print_json(out);
  return out.correct ? 0 : 1;
}
