#include "workload/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/assert.hpp"
#include "common/byte_pool.hpp"

namespace stank::workload {

namespace {

constexpr std::uint32_t kServerNode = 1;
constexpr std::uint32_t kClientBase = 100;
// The one SAN disk: the server's only data disk.
constexpr DiskId kDisk{1};

std::string file_path(std::size_t i) { return "/data/f" + std::to_string(i); }

}  // namespace

Scenario::Scenario(ScenarioConfig cfg) : cfg_(std::move(cfg)), rng_(cfg_.workload.seed) {
  cfg_.lease.validate();
  settle_seconds_ = cfg_.workload.settle_seconds > 0.0
                        ? cfg_.workload.settle_seconds
                        : std::max(5.0, 3.0 * cfg_.lease.tau.seconds());
}

Scenario::~Scenario() = default;

NodeId Scenario::server_node() const { return NodeId{kServerNode}; }

NodeId Scenario::client_node(std::size_t i) const {
  return NodeId{static_cast<std::uint32_t>(kClientBase + i)};
}

client::Fd Scenario::fd(std::size_t client_idx, std::size_t file_idx) const {
  return drivers_.at(client_idx).fds.at(file_idx);
}

std::uint64_t Scenario::next_version(FileId file, std::uint64_t block) {
  return ++versions_[BlockKey{file, block}];
}

std::string ScenarioResult::verdict_line() const {
  char head[128];
  if (violations.total() == 0) {
    std::snprintf(head, sizeof(head), "verdict: CONSISTENT");
  } else {
    std::snprintf(head, sizeof(head),
                  "verdict: %zu VIOLATION(S) [stale=%zu lost=%zu order=%zu]",
                  violations.total(), violations.stale_reads, violations.lost_updates,
                  violations.write_order);
  }
  char ops[96];
  std::snprintf(ops, sizeof(ops), " | ops %llur/%lluw ok, %llu failed | net ",
                static_cast<unsigned long long>(reads_ok),
                static_cast<unsigned long long>(writes_ok),
                static_cast<unsigned long long>(ops_failed));
  std::string line = std::string(head) + ops + net.summary();
  // Telemetry caveats: a trace that overwrote events cannot prove where a
  // bad run started, and watchdog trips mean an invariant probe left its
  // band mid-run — both belong on the one line people actually read.
  if (trace_dropped > 0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " | trace dropped=%llu",
                  static_cast<unsigned long long>(trace_dropped));
    line += buf;
  }
  if (watchdog_trips > 0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " | watchdog trips=%llu",
                  static_cast<unsigned long long>(watchdog_trips));
    line += buf;
  }
  return line;
}

void Scenario::build() {
  if (cfg_.enable_trace) {
    rec_ = &recorder_;
    rec_->bind_engine(engine_);
  }
  net_ = std::make_unique<net::ControlNet>(engine_, rng_.fork(1), cfg_.control_net);
  san_ = std::make_unique<storage::SanFabric>(engine_, rng_.fork(2));
  san_->on_io = [this](const storage::IoRequest& rq, const storage::IoResult& rs,
                       sim::SimTime t) { history_.on_disk_io(rq, rs, t, cfg_.block_size); };

  san_->add_disk(kDisk, cfg_.disk_blocks, cfg_.block_size);

  // Clock rates: any two nodes must be mutually rate-synchronized within
  // epsilon, so individual rates live in [1/sqrt(1+eps), sqrt(1+eps)].
  const double eps = cfg_.lease.epsilon;
  const double hi = std::sqrt(1.0 + eps);
  const double lo = 1.0 / hi;
  auto draw_rate = [&](bool is_server) {
    switch (cfg_.clock_skew_mode) {
      case -1: return is_server ? hi : lo;  // safety-boundary: server fast, clients slow
      case +1: return is_server ? lo : hi;  // availability-worst: server slow, clients fast
      case +2: return 1.0;                  // ideal clocks
      default: return lo + (hi - lo) * rng_.uniform();
    }
  };

  server::ServerConfig scfg;
  scfg.id = server_node();
  scfg.lease = cfg_.lease;
  scfg.recovery = cfg_.recovery;
  scfg.strategy = cfg_.strategy;
  scfg.transport = cfg_.transport;
  scfg.block_size = cfg_.block_size;
  scfg.data_disks = {kDisk};
  scfg.recovery_grace = cfg_.recovery_grace;
  if (cfg_.demand_timeout.ns > 0) {
    scfg.demand_timeout = cfg_.demand_timeout;
  }
  server_ = std::make_unique<server::Server>(engine_, *net_, *san_,
                                             sim::LocalClock(draw_rate(true)), scfg, rec_);

  STANK_ASSERT_MSG(
      cfg_.byzantine.empty() || cfg_.byzantine.rbegin()->first < cfg_.workload.num_clients,
      "ScenarioConfig::byzantine names a client index >= num_clients");
  for (std::uint32_t c = 0; c < cfg_.workload.num_clients; ++c) {
    client::ClientConfig ccfg;
    ccfg.id = client_node(c);
    ccfg.server = server_node();
    ccfg.lease = cfg_.lease;
    if (cfg_.client_tau.ns > 0) {
      // Assumption-violation knob: the client's contract disagrees with the
      // server's (see ScenarioConfig::client_tau).
      ccfg.lease.tau = cfg_.client_tau;
    }
    ccfg.strategy = cfg_.strategy;
    ccfg.data_path = cfg_.data_path;
    ccfg.transport = cfg_.transport;
    ccfg.block_size = cfg_.block_size;
    const sim::LocalClock clock(draw_rate(false) * cfg_.client_rate_scale);
    if (auto bit = cfg_.byzantine.find(c); bit != cfg_.byzantine.end() && bit->second.any()) {
      history_.mark_byzantine(client_node(c));
      clients_.push_back(std::make_unique<client::ByzantineClient>(
          engine_, *net_, *san_, clock, ccfg, bit->second, rec_));
    } else {
      clients_.push_back(
          std::make_unique<client::Client>(engine_, *net_, *san_, clock, ccfg, rec_));
    }
  }

  drivers_.resize(clients_.size());
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    drivers_[c].index = c;
    drivers_[c].rng = rng_.fork(1000 + c);
  }

  if (rec_ != nullptr) {
    net_->set_recorder(rec_);
    // Time series and invariant bands, evaluated on the lease-state sampling
    // timer (sample_lease_state). The watchdog never schedules engine events
    // of its own, so arming it cannot perturb the event sequence. Probes are
    // added in the order of the recorded series.
    watchdog_ = std::make_unique<obs::Watchdog>(*rec_);
    const auto n = static_cast<double>(cfg_.workload.num_clients);
    watchdog_->add_series("lease_state_bytes",
                          [this]() { return static_cast<double>(server_->lease_state_bytes()); });
    watchdog_->add_series("held_files",
                          [this]() { return static_cast<double>(server_->locks().held_files()); });
    if (cfg_.strategy == core::LeaseStrategy::kStorageTank) {
      // More than half the population simultaneously suspect means the
      // failure detector is melting down, not detecting failures.
      watchdog_->add_probe(
          "suspect_clients",
          [this]() { return static_cast<double>(server_->authority().suspect_count()); },
          0.0, std::max(1.0, n / 2.0), /*sampled=*/true);
    }
    watchdog_->add_series(
        "net_sent", [this]() { return static_cast<double>(net_->stats().sent); }, /*delta=*/true);
    watchdog_->add_series(
        "net_delivered", [this]() { return static_cast<double>(net_->stats().delivered); },
        /*delta=*/true);
    watchdog_->add_series(
        "net_dropped",
        [this]() {
          const net::NetStats& s = net_->stats();
          return static_cast<double>(s.dropped_partition + s.dropped_random + s.dropped_burst +
                                     s.dropped_detached);
        },
        /*delta=*/true);
    if (cfg_.strategy == core::LeaseStrategy::kStorageTank) {
      // Lease-phase residency drift: clients stuck in the disruption phases
      // (suspect/flush/expired) outside an injected failure episode.
      watchdog_->add_probe(
          "clients_disrupted",
          [this]() {
            std::size_t disrupted = 0;
            for (const auto& cl : clients_) {
              if (static_cast<std::uint64_t>(cl->lease_phase()) >= 3) ++disrupted;
            }
            return static_cast<double>(disrupted);
          },
          0.0, std::max(1.0, n / 2.0));
    }
    // Any ring overwrite between two evaluations is an anomaly worth a
    // typed event: a violating run's trace may have lost its root cause.
    watchdog_->add_rate_probe(
        "trace_dropped", [this]() { return static_cast<double>(rec_->dropped_events()); },
        0.0);
    // Lock-convoy bound: the whole population queued four deep is a convoy,
    // not contention.
    watchdog_->add_probe(
        "lock_waiters",
        [this]() { return static_cast<double>(server_->locks().queued_waiters()); }, 0.0,
        std::max(4.0, 4.0 * n));
  }
}

void Scenario::setup() {
  STANK_ASSERT(!setup_done_);
  setup_done_ = true;
  build();

  // Preallocate the file pool so sizes and extents are stable.
  for (std::uint32_t f = 0; f < cfg_.workload.num_files; ++f) {
    auto res = server_->preallocate(
        file_path(f), static_cast<std::uint64_t>(cfg_.workload.file_blocks) * cfg_.block_size);
    STANK_ASSERT_MSG(res.ok(), "preallocation failed: disk too small for the file pool?");
    file_ids_.push_back(res.value());
  }

  server_->start();

  for (std::size_t c = 0; c < clients_.size(); ++c) {
    client::Client& cl = *clients_[c];
    cl.on_registered = [this, c]() { open_all_files(c, []() {}); };
    cl.start();
  }

  // Failure plan.
  for (const auto& ev : cfg_.failures.events) {
    engine_.schedule_at(sim::SimTime{} + sim::seconds_d(ev.at_s),
                        [this, ev]() { apply_failure(ev); });
  }

  // Lease-state sampler.
  sample_lease_state();
}

void Scenario::open_all_files(std::size_t ci, std::function<void()> done) {
  // Sequentially (re-)open every pool file; fds are replaced wholesale.
  auto fds = std::make_shared<std::map<std::size_t, client::Fd>>();
  auto step = std::make_shared<std::function<void(std::size_t)>>();
  auto done_shared = std::make_shared<std::function<void()>>(std::move(done));
  // The continuation callback holds the strong reference that keeps `step`
  // alive while an open is in flight; the closure itself only holds a weak
  // one, so the chain is freed when it ends instead of leaking as a cycle.
  *step = [this, ci, fds, wstep = std::weak_ptr(step), done_shared](std::size_t fi) {
    if (fi >= cfg_.workload.num_files) {
      drivers_[ci].fds = *fds;
      (*done_shared)();
      return;
    }
    clients_[ci]->open(file_path(fi), /*create=*/false,
                       [ci, fi, fds, step = wstep.lock()](Result<client::Fd> res) {
                         if (res.ok() && step) {
                           (*fds)[fi] = res.value();
                           (*step)(fi + 1);
                         }
                         // On failure (partition mid-open): leave fds partial;
                         // the next registration retriggers the sweep.
                       });
  };
  (*step)(0);
}

void Scenario::run_generators() {
  for (auto& d : drivers_) {
    d.running = true;
    schedule_next_op(d.index);
  }
}

bool Scenario::workload_over() const { return now_s() >= cfg_.workload.run_seconds; }

void Scenario::schedule_next_op(std::size_t ci) {
  ClientDriver& d = drivers_[ci];
  const double wait = d.rng.exponential(cfg_.workload.mean_interarrival_s);
  engine_.schedule_after(sim::seconds_d(wait), [this, ci]() { issue_op(ci); });
}

void Scenario::issue_op(std::size_t ci) {
  ClientDriver& d = drivers_[ci];
  if (!d.running || workload_over()) {
    d.running = false;
    return;
  }
  schedule_next_op(ci);  // open-loop arrivals: survive dropped callbacks

  client::Client& cl = *clients_[ci];
  if (cl.crashed() || d.fds.size() < cfg_.workload.num_files) {
    return;  // machine down or files not (re-)opened yet; skip this arrival
  }

  const OpChoice op = choose_op(d);
  if (op.is_read) {
    do_read(ci, op.file_idx, op.block);
  } else {
    do_write(ci, op.file_idx, op.block);
  }
}

Scenario::OpChoice Scenario::choose_op(ClientDriver& d) {
  const WorkloadSpec& w = cfg_.workload;
  OpChoice op;
  switch (w.pattern) {
    case Pattern::kRandomZipf:
      op.file_idx = d.rng.zipf(w.num_files, w.zipf_s);
      op.block = static_cast<std::uint64_t>(d.rng.uniform_int(0, w.file_blocks - 1));
      op.is_read = d.rng.uniform() < w.read_fraction;
      break;
    case Pattern::kSequential: {
      // Walk the whole pool block by block, wrapping around.
      const std::uint64_t total =
          static_cast<std::uint64_t>(w.num_files) * w.file_blocks;
      const std::uint64_t pos = d.cursor++ % total;
      op.file_idx = static_cast<std::size_t>(pos / w.file_blocks);
      op.block = pos % w.file_blocks;
      op.is_read = d.rng.uniform() < w.read_fraction;
      break;
    }
    case Pattern::kProducerConsumer:
      op.file_idx = d.rng.zipf(w.num_files, w.zipf_s);
      op.block = static_cast<std::uint64_t>(d.rng.uniform_int(0, w.file_blocks - 1));
      // Client 0 produces; everyone else consumes.
      op.is_read = d.index != 0;
      break;
    case Pattern::kPrivate: {
      // Client i owns the files congruent to i; nobody else touches them.
      const std::uint32_t owned =
          (w.num_files + w.num_clients - 1) / w.num_clients;
      const auto nth = static_cast<std::uint32_t>(
          d.rng.uniform_int(0, std::max<std::int64_t>(0, owned - 1)));
      std::size_t fi = d.index + static_cast<std::size_t>(nth) * w.num_clients;
      if (fi >= w.num_files) fi = d.index % w.num_files;
      op.file_idx = fi;
      op.block = static_cast<std::uint64_t>(d.rng.uniform_int(0, w.file_blocks - 1));
      op.is_read = d.rng.uniform() < w.read_fraction;
      break;
    }
  }
  return op;
}

void Scenario::note_op_latency(sim::SimTime t0) {
  const double ms = (engine_.now() - t0).millis();
  op_latency_ms_.add(ms);
  if (rec_ != nullptr) {
    rec_->span(obs::SpanKind::kOpLatency, ms);
  }
}

void Scenario::do_write(std::size_t ci, std::size_t fi, std::uint64_t block) {
  ClientDriver& d = drivers_[ci];
  client::Client& cl = *clients_[ci];
  const client::Fd fd = d.fds.at(fi);
  const FileId file = file_ids_.at(fi);
  const NodeId node = client_node(ci);
  const sim::SimTime t0 = engine_.now();

  cl.lock(fd, protocol::LockMode::kExclusive, [this, ci, fd, file, block, node, t0](Status st) {
    if (!st.is_ok()) {
      ++ops_failed_;
      return;
    }
    client::Client& cl2 = *clients_[ci];
    const std::uint64_t version = next_version(file, block);
    verify::Stamp stamp{file, block, version, node};
    Bytes data = verify::make_stamped_block(cfg_.block_size, stamp);
    cl2.write(fd, block * cfg_.block_size, std::move(data),
              [this, stamp, node, t0](Status wst) {
                if (wst.is_ok()) {
                  ++writes_ok_;
                  history_.on_buffered_write(engine_.now(), node, stamp);
                  note_op_latency(t0);
                } else {
                  ++ops_failed_;
                }
              });
  });
}

void Scenario::do_read(std::size_t ci, std::size_t fi, std::uint64_t block) {
  ClientDriver& d = drivers_[ci];
  client::Client& cl = *clients_[ci];
  const client::Fd fd = d.fds.at(fi);
  const FileId file = file_ids_.at(fi);
  const NodeId node = client_node(ci);
  const sim::SimTime t0 = engine_.now();

  cl.read(fd, block * cfg_.block_size, cfg_.block_size,
          [this, file, block, node, t0](Result<Bytes> res) {
            if (!res.ok() || res.value().size() != cfg_.block_size) {
              ++ops_failed_;
              return;
            }
            ++reads_ok_;
            note_op_latency(t0);
            auto stamp = verify::decode_stamp(res.value());
            recycle_buf(std::move(res).value());  // stamp decoded, data done
            verify::ReadRec rec;
            rec.start = t0;
            rec.end = engine_.now();
            rec.client = node;
            rec.file = file;
            rec.block = block;
            rec.observed_version = stamp ? stamp->version : 0;
            history_.on_read(rec);
          });
}

void Scenario::apply_failure(const FailureEvent& ev) {
  const std::size_t ci = ev.client_idx;
  if (ci >= clients_.size()) return;
  const NodeId node = client_node(ci);
  if (rec_ != nullptr) {
    rec_->annotate(engine_.now(), node, "failure", to_string(ev.kind));
  }

  switch (ev.kind) {
    case FailureKind::kCtrlIsolate:
      net_->reachability().sever_pair(node, server_node());
      break;
    case FailureKind::kCtrlSeverToServer:
      net_->reachability().sever(node, server_node());
      break;
    case FailureKind::kCtrlHeal:
      net_->reachability().restore_pair(node, server_node());
      break;
    case FailureKind::kSanIsolate:
      san_->reachability().sever(node, kDisk);
      break;
    case FailureKind::kSanHeal:
      san_->reachability().restore(node, kDisk);
      break;
    case FailureKind::kCrash:
      clients_[ci]->crash();
      history_.on_crash(node);
      drivers_[ci].fds.clear();
      break;
    case FailureKind::kRestart:
      if (clients_[ci]->crashed()) {
        clients_[ci]->restart();  // on_registered re-opens the file pool
      }
      break;
    case FailureKind::kSlowSan:
      san_->set_initiator_delay(node, sim::seconds_d(ev.param_s));
      break;
    case FailureKind::kServerCrash:
      server_->crash();
      break;
    case FailureKind::kServerRestart:
      // Random plans can overlap crash/restart pairs; a restart that lands
      // while the server is already up is a no-op, not an error.
      if (!server_->started()) {
        server_->restart();
      }
      break;
    case FailureKind::kSanIsolateServer:
      // The server loses its SAN path: fence admin commands cannot reach the
      // disks and a fence->steal must hold until the path heals.
      san_->reachability().sever(server_node(), kDisk);
      break;
    case FailureKind::kSanHealServer:
      san_->reachability().restore(server_node(), kDisk);
      break;
  }
}

void Scenario::sample_lease_state() {
  max_lease_bytes_ = std::max(max_lease_bytes_, server_->lease_state_bytes());
  if (watchdog_) {
    watchdog_->evaluate(engine_.now());
  }
  const double horizon = cfg_.workload.run_seconds + settle_seconds_;
  if (now_s() < horizon) {
    engine_.schedule_after(sim::millis(250), [this]() { sample_lease_state(); });
  }
}

void Scenario::run_until_s(double t_s) {
  engine_.run_until(sim::SimTime{} + sim::seconds_d(t_s));
}

ScenarioResult Scenario::run() {
  setup();
  run_generators();
  run_until_s(cfg_.workload.run_seconds);
  return finish();
}

ScenarioResult Scenario::finish() {
  const double end_run = std::max(now_s(), cfg_.workload.run_seconds);

  net_->reachability().heal();
  san_->reachability().heal();
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    if (clients_[c]->crashed()) {
      clients_[c]->restart();
      // A rebooted machine lost its volatile state; history already knows.
    }
  }

  // Phase A: let recovery machinery (lease expiries, re-registrations,
  // phase-4 flushes, steals) run its course.
  run_until_s(end_run + 0.7 * settle_seconds_);

  // Phase B: sync sweeps until quiescent. A single final sync races with
  // long-queued ops — a lock grant delayed past the sync can still complete
  // a write and buffer dirty data with no flush opportunity left. Sweep
  // instead, and end the run on a CLEAN check: the engine stops at that
  // instant, so nothing can dirty a cache after the verdict. Ops still
  // queued at the stop never buffered anything and are invisible to the
  // checker. Grant up to one extra settle budget if dirt lingers.
  // Sweep bounds in INTEGER sim time. The double-domain form
  // (`now_s() < hard_end` with run_until targets converted through
  // seconds_d) span a truncation gap: run_until advances now_ to the
  // ns-truncated horizon, which sits just below the double it came from, so
  // the comparison stays true forever with zero progress. Harmless while
  // every client drained before the bound — a byzantine client whose stolen
  // lock strands its dirty pages rides the sweep all the way there and spun
  // here (found by fuzz_safety --byzantine, ack-without-release).
  const sim::SimTime hard_end_t = sim::SimTime{} + sim::seconds_d(end_run + 2.0 * settle_seconds_);
  const sim::Duration sweep_step = sim::seconds_d(0.1 * settle_seconds_);
  bool clean = false;
  while (!clean && engine_.now() < hard_end_t) {
    for (auto& cl : clients_) {
      if (!cl->crashed() && cl->registered() && cl->accepting() &&
          cl->dirty_pages() > 0) {
        cl->sync_all([](Status) {});
      }
    }
    engine_.run_until(std::min(engine_.now() + sweep_step, hard_end_t));
    clean = true;
    for (auto& cl : clients_) {
      if (!cl->crashed() && cl->dirty_pages() > 0) clean = false;
    }
  }

  ScenarioResult r;
  const verify::ConsistencyChecker checker(history_);
  r.violation_list = checker.check_all();
  r.violations = verify::ConsistencyChecker::summarize(r.violation_list);
  auto split = checker.split(r.violation_list);
  r.honest_violations = std::move(split.honest);
  r.byzantine_violations = std::move(split.byzantine);
  r.reads_ok = reads_ok_;
  r.writes_ok = writes_ok_;
  r.ops_failed = ops_failed_;
  r.server = server_->counters();
  for (auto& cl : clients_) {
    r.clients += cl->counters();
  }
  const auto& disk = san_->disk(kDisk);
  for (std::size_t ci = 0; ci < clients_.size(); ++ci) {
    const NodeId node = client_node(ci);
    if (const auto n = disk.fenced_rejections(node); n > 0) {
      r.fence_rejects_by_initiator[node] += n;
    }
  }
  r.net = net_->stats();
  r.san = san_->stats();
  r.max_lease_state_bytes = std::max(max_lease_bytes_, server_->lease_state_bytes());
  r.final_lease_state_bytes = server_->lease_state_bytes();
  r.op_latency_ms = op_latency_ms_;
  r.sim_seconds = now_s();
  r.engine_events = engine_.events_executed();
  r.trace_dropped = rec_ != nullptr ? rec_->dropped_events() : 0;
  r.watchdog_trips = watchdog_ != nullptr ? watchdog_->trips() : 0;
  return r;
}

}  // namespace stank::workload
