// fuzz_safety — randomized protocol-safety sweep under an adversarial
// control network.
//
// Each episode draws a complete installation at random — lease periods,
// epsilon, per-node clock rates, workload pattern, a random failure plan,
// and adversarial network parameters (duplication, FIFO-violating reorder
// spikes, Gilbert–Elliott burst loss) — runs it end to end, and feeds the
// omniscient history to verify::ConsistencyChecker. Under paper-valid
// configurations (tau_c == tau_s, clocks inside the rate bound) the checker
// must find NOTHING, whatever the network does; any violation is a protocol
// bug.
//
// On a violation the driver writes a self-contained replay file (every
// sampled parameter, fully materialized) and greedily shrinks the failure
// plan to the minimal event subset that still violates, so the repro a
// developer picks up is already small.
//
// --negative-control proves the harness has teeth: it deliberately breaks
// the theorem's premises (tau_c >= tau_s(1+eps), or client clocks beyond the
// rate-synchronization band) and asserts the checker DOES report violations.
// A fuzzer whose negative control passes silently is not testing anything.
//
// --byzantine adds the adversary dimension (DESIGN.md §13): 1..n-1 clients
// get a random composition of misbehaviors (timestamp lies, defied quiesce,
// rogue SAN writes after expiry, swallowed demands, replayed datagrams,
// forged lock claims), the server's demand timeout is shortened so stalls
// escalate within the run, and server->disk SAN cuts stress the fence-retry
// path. The verdict is gated on the checker's HONEST bucket: byzantine
// clients may corrupt their own reads/writes (reported as diagnostics), but
// any violation whose victim is an honest client is a protocol bug. Combined
// with --negative-control it disables fencing (RecoveryMode::kLeaseOnly) for
// one rogue writer and asserts honest clients DO get hurt — proving the
// fence list, not luck, is what contains the attack in the valid runs.
//
// Exit codes: 0 = expected outcome, 1 = safety violation in valid mode (or
// a toothless negative control), 2 = usage/replay-file error.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "rt/parallel.hpp"
#include "sim/rng.hpp"
#include "workload/scenario.hpp"

using namespace stank;

namespace {

// ---------------------------------------------------------------------------
// Episode configuration

struct Episode {
  std::uint64_t seed{0};  // master-derived; identifies the episode
  bool negative{false};
  bool byzantine{false};
  workload::ScenarioConfig cfg;
};

struct EpisodeResult {
  verify::ViolationSummary violations;
  std::vector<verify::Violation> details;
  // The split verdict (DESIGN.md §13). With no byzantine clients configured
  // `honest` equals `violations`; with them, `honest` is the pass/fail gate
  // and `byz_violations` counts the self-inflicted diagnostics.
  verify::ViolationSummary honest;
  std::vector<verify::Violation> honest_details;
  std::size_t byz_violations{0};
  // SAN commands the fence lists rejected, attributed to byzantine
  // initiators: total and per misbehavior bit (index = bit position in
  // client::ByzantineSpec's mask). Nonzero means the trusted base actually
  // absorbed attacks rather than never seeing any.
  std::uint64_t byz_fence_rejects{0};
  std::array<std::uint64_t, 6> fence_rejects_by_bit{};
  std::uint64_t ops{0};
  net::NetStats net;
  std::uint64_t lock_steals{0};
  std::uint64_t nacks{0};
};

// Everything the episode samples, drawn from one forked RNG stream so a
// (master seed, index) pair regenerates the identical episode.
Episode generate(std::uint64_t master_seed, std::uint64_t index, bool negative, bool byzantine) {
  sim::Rng root(master_seed);
  sim::Rng rng = root.fork(index + 1);

  Episode ep;
  ep.seed = master_seed ^ (index + 1);
  ep.negative = negative;
  ep.byzantine = byzantine;
  workload::ScenarioConfig& cfg = ep.cfg;

  // Workload: small and contended — contention is what makes stale caches
  // observable.
  cfg.workload.pattern = static_cast<workload::Pattern>(rng.uniform_int(0, 3));
  cfg.workload.num_clients = static_cast<std::uint32_t>(rng.uniform_int(2, 4));
  cfg.workload.num_files = static_cast<std::uint32_t>(rng.uniform_int(2, 4));
  cfg.workload.file_blocks = 4;
  cfg.workload.read_fraction = 0.3 + 0.5 * rng.uniform();
  cfg.workload.mean_interarrival_s = 0.02 + 0.06 * rng.uniform();
  cfg.workload.run_seconds = 8.0 + 6.0 * rng.uniform();
  cfg.workload.seed = rng.next_u64();

  // Lease timing: tau_s on the server; epsilon across the installation.
  const double tau_s = 1.5 + 2.5 * rng.uniform();
  cfg.lease.tau = sim::local_seconds_d(tau_s);
  const double epsilons[] = {1e-6, 1e-4, 1e-2, 5e-2};
  cfg.lease.epsilon = epsilons[rng.uniform_int(0, 3)];
  const int skew_modes[] = {0, 0, -1, +1};  // random twice as likely
  cfg.clock_skew_mode = skew_modes[rng.uniform_int(0, 3)];

  // Adversarial network. Latency/jitter modest; the damage comes from dup,
  // reorder spikes (up to ~2 retransmit timeouts, so stale replies overtake
  // live ones), and loss bursts long enough to out-last retry budgets.
  cfg.control_net.latency = sim::micros(100 + rng.uniform_int(0, 1900));
  cfg.control_net.jitter = sim::Duration{cfg.control_net.latency.ns / 2};
  // Exact-time delivery: bucket rounding would shift arrival instants and
  // make replay schedules depend on the bucket width. 1ns coalesces only
  // datagrams with identical sampled arrival times, which is the schedule
  // the unbatched fabric produced — replays stay verdict-identical across
  // the batching change while still exercising the queued-drain path.
  cfg.control_net.delivery_bucket = sim::Duration{1};
  cfg.control_net.drop_probability = 0.10 * rng.uniform();
  cfg.control_net.dup_probability = 0.25 * rng.uniform();
  cfg.control_net.reorder_probability = 0.40 * rng.uniform();
  cfg.control_net.reorder_spike = sim::millis(1 + rng.uniform_int(0, 999));
  if (rng.bernoulli(0.5)) {
    cfg.control_net.ge_good_to_bad = 0.02 * rng.uniform();
    cfg.control_net.ge_bad_to_good = 0.05 + 0.45 * rng.uniform();
    cfg.control_net.burst_loss = 0.8 + 0.2 * rng.uniform();
  }

  // Failure plan: client partitions (symmetric + asymmetric), crashes, and
  // occasionally a server crash/restart, all over the adversarial net.
  workload::FailurePlan::RandomMix mix;
  mix.server_restarts = rng.bernoulli(0.25);

  if (byzantine && !negative) {
    // Adversary dimension: 1..n-1 misbehaving clients (at least one honest
    // client must remain — it is the party whose safety we are asserting).
    // Drawn BEFORE the failure plan so the shrinker's byz dimension and the
    // plan dimension are independent in the replay file.
    const std::uint32_t n = cfg.workload.num_clients;
    const auto nbyz = static_cast<std::uint32_t>(
        rng.uniform_int(1, std::max<std::int64_t>(1, static_cast<std::int64_t>(n) - 1)));
    const auto start = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
    bool any_forge = false;
    for (std::uint32_t k = 0; k < nbyz; ++k) {
      const std::size_t idx = (start + k) % n;
      const auto behavior_mask = static_cast<std::uint32_t>(rng.uniform_int(1, 63));
      const double skew = (2.0 * rng.uniform() - 1.0) * tau_s;
      cfg.byzantine[idx] = client::ByzantineSpec::from_mask(behavior_mask, skew);
      any_forge = any_forge || cfg.byzantine[idx].forge_lock_claims;
    }
    // A forged ReassertLockReq during the post-restart grace window is
    // unfixable by design (DESIGN.md §13: reassertion trusts clients), so
    // forgers and server restarts don't mix in the valid sweep.
    if (any_forge) mix.server_restarts = false;
    // Server->disk SAN cuts make fence admin commands fail while held,
    // forcing the fence-retry / held-steal path under attack.
    mix.server_san_partitions = rng.bernoulli(0.35);
    // Short demand timeout: an ack-without-release stall must escalate to
    // suspect -> fence+steal within the run, not outlast it.
    cfg.demand_timeout = sim::local_seconds_d(0.8 + 1.2 * rng.uniform());
  }

  const std::size_t failures = static_cast<std::size_t>(rng.uniform_int(0, 4));
  cfg.failures = workload::FailurePlan::random(rng, cfg.workload, failures, mix);

  if (byzantine && negative) {
    // Byzantine negative control: same attacker, fencing OFF. One client
    // withholds its phase-4 flush and rogue-writes its stale snapshot after
    // expiry; with RecoveryMode::kLeaseOnly nothing stops the stale data
    // landing on top of the new holder's writes. The checker must report
    // HONEST-victim violations — proving the fence list is the load-bearing
    // defense in the valid sweep, not generator weakness.
    cfg.recovery = server::RecoveryMode::kLeaseOnly;
    cfg.demand_timeout = sim::local_seconds_d(1.5);
    const auto attacker =
        static_cast<std::uint32_t>(rng.uniform_int(0, cfg.workload.num_clients - 1));
    client::ByzantineSpec spec;
    spec.write_after_expiry = true;
    spec.defy_quiesce = rng.bernoulli(0.5);
    cfg.byzantine[attacker] = spec;
    // Partition the attacker so its lease provably expires and the locks are
    // stolen while its rogue flusher is still pumping the stale snapshot.
    cfg.failures.add(0.3 * cfg.workload.run_seconds, workload::FailureKind::kCtrlIsolate,
                     attacker);
    cfg.failures.add(0.9 * cfg.workload.run_seconds, workload::FailureKind::kCtrlHeal, attacker);
    // Write-heavy: honest clients must produce the newer versions the rogue
    // writes then clobber.
    cfg.workload.read_fraction = 0.3;
    return ep;
  }

  if (negative) {
    // Break exactly one premise of Theorem 3.1, chosen at random; both must
    // independently defeat the protocol for the checker to have teeth.
    if (rng.bernoulli(0.5)) {
      // tau_c >= tau_s(1+eps): the client believes in a longer lease than
      // the server's provable-expiry wait covers.
      const double factor = (1.0 + cfg.lease.epsilon) * (1.5 + 1.5 * rng.uniform());
      cfg.client_tau = sim::local_seconds_d(tau_s * factor);
    } else {
      // Client clocks slower than rate synchronization permits: tau_c
      // stretches in real time beyond tau_s(1+eps).
      cfg.client_rate_scale = 1.0 / ((1.0 + cfg.lease.epsilon) * (1.8 + 1.2 * rng.uniform()));
    }
    // Guarantee the triggering scenario: one client partitioned long enough
    // to be stolen from while it still trusts its (over-long) lease, with
    // enough run left for other clients to rewrite its cached blocks.
    const double at = 0.25 * cfg.workload.run_seconds;
    const auto victim =
        static_cast<std::uint32_t>(rng.uniform_int(0, cfg.workload.num_clients - 1));
    cfg.failures.add(at, workload::FailureKind::kCtrlIsolate, victim);
    cfg.failures.add(0.9 * cfg.workload.run_seconds, workload::FailureKind::kCtrlHeal, victim);
    // Reads dominate so the stale cache actually gets consulted.
    cfg.workload.read_fraction = 0.7;
  }
  return ep;
}

EpisodeResult run_episode(const workload::ScenarioConfig& cfg, std::ostream* trace_to = nullptr,
                          const std::string& trace_save = {}) {
  workload::Scenario sc(cfg);
  auto r = sc.run();
  if (!trace_save.empty()) {
    std::ofstream f(trace_save, std::ios::binary);
    sc.recorder().save(f);
    // A violating replay whose ring wrapped may have silently lost the
    // events that explain the violation — say so next to the artifact
    // instead of letting someone triage a truncated timeline.
    if (const std::uint64_t lost = sc.recorder().dropped_events(); lost > 0) {
      std::printf(
          "WARNING: trace ring overwrote %llu event(s) during this replay; the retained\n"
          "         window may start after the root cause. Rebuild with a larger\n"
          "         Recorder::kRingCapacity before trusting the timeline.\n",
          static_cast<unsigned long long>(lost));
    }
    if (r.watchdog_trips > 0) {
      std::printf("note: invariant watchdog tripped %llu time(s) during the replay\n",
                  static_cast<unsigned long long>(r.watchdog_trips));
    }
  }
  if (trace_to != nullptr) {
    obs::write_timeline(sc.recorder(), *trace_to);
    // Injected failures and watchdog trips, which no event kind carries.
    for (const obs::Annotation& n : sc.recorder().annotations()) {
      *trace_to << n.at.seconds() << "s  n" << n.node.value() << "  [" << n.category << "] "
                << n.detail << "\n";
    }
    // Raw history: lets a developer line the trace up against what the disk
    // and caches actually saw.
    for (const auto& w : sc.history().buffered_writes()) {
      *trace_to << w.at.seconds() << "s  n" << w.client.value() << "  [buffered] f"
                << w.stamp.file.value() << ":b" << w.stamp.block << " v" << w.stamp.version
                << "\n";
    }
    for (const auto& w : sc.history().disk_writes()) {
      *trace_to << w.at.seconds() << "s  n" << w.initiator.value() << "  [disk-write] f"
                << w.stamp.file.value() << ":b" << w.stamp.block << " v" << w.stamp.version
                << "\n";
    }
  }
  EpisodeResult out;
  out.violations = r.violations;
  out.details = std::move(r.violation_list);
  out.honest = verify::ConsistencyChecker::summarize(r.honest_violations);
  out.honest_details = std::move(r.honest_violations);
  out.byz_violations = r.byzantine_violations.size();
  for (const auto& [idx, spec] : cfg.byzantine) {
    const auto it = r.fence_rejects_by_initiator.find(sc.client_node(idx));
    if (it == r.fence_rejects_by_initiator.end()) continue;
    out.byz_fence_rejects += it->second;
    const std::uint32_t m = spec.mask();
    for (std::size_t b = 0; b < out.fence_rejects_by_bit.size(); ++b) {
      if ((m & (1u << b)) != 0) out.fence_rejects_by_bit[b] += it->second;
    }
  }
  out.ops = r.reads_ok + r.writes_ok;
  out.net = r.net;
  out.lock_steals = r.server.lock_steals;
  out.nacks = r.server.nacks_sent;
  return out;
}

// The pass/fail gate. With byzantine clients configured only honest-victim
// violations count — the adversary corrupting its own view is expected.
bool gate_violates(const EpisodeResult& r, const workload::ScenarioConfig& cfg) {
  return (cfg.byzantine.empty() ? r.violations : r.honest).total() > 0;
}

bool violates(const workload::ScenarioConfig& cfg) {
  return gate_violates(run_episode(cfg), cfg);
}

// Re-runs a (deterministic) episode with the flight recorder attached and
// saves the binary trace next to the replay file, so a developer picking the
// repro up can open the timeline without reconstructing anything. Returns
// that run's result, which the replay header reports.
EpisodeResult dump_trace(workload::ScenarioConfig cfg, const std::string& path) {
  cfg.enable_trace = true;
  EpisodeResult r = run_episode(cfg, nullptr, path);
  std::printf("flight trace written to %s (inspect with tools/trace_dump)\n", path.c_str());
  return r;
}

// ---------------------------------------------------------------------------
// Replay files: every sampled parameter, fully materialized, so the file is
// self-contained (no re-derivation from the RNG needed — which is what lets
// the shrinker persist a minimized plan).

// The replay keys in file order, each bound to the field it holds.
// write_replay and read_replay both walk this one list, so no field can be
// written and not read back. `byzantine` and `failure` take one line per
// entry.
template <typename Ep, typename F>
void replay_fields(Ep& ep, F&& field) {
  auto& c = ep.cfg;
  field("episode_seed", ep.seed);
  field("mode", ep.negative);  // "negative" or "valid"
  field("pattern", c.workload.pattern);
  field("num_clients", c.workload.num_clients);
  field("num_files", c.workload.num_files);
  field("file_blocks", c.workload.file_blocks);
  field("read_fraction", c.workload.read_fraction);
  field("mean_interarrival_s", c.workload.mean_interarrival_s);
  field("zipf_s", c.workload.zipf_s);
  field("run_seconds", c.workload.run_seconds);
  field("workload_seed", c.workload.seed);
  field("tau_s_ns", c.lease.tau.ns);
  field("epsilon", c.lease.epsilon);
  field("clock_skew_mode", c.clock_skew_mode);
  field("tau_c_ns", c.client_tau.ns);
  field("client_rate_scale", c.client_rate_scale);
  field("net_latency_ns", c.control_net.latency.ns);
  field("net_jitter_ns", c.control_net.jitter.ns);
  field("net_drop", c.control_net.drop_probability);
  field("net_dup", c.control_net.dup_probability);
  field("net_reorder_prob", c.control_net.reorder_probability);
  field("net_reorder_spike_ns", c.control_net.reorder_spike.ns);
  field("net_ge_good_to_bad", c.control_net.ge_good_to_bad);
  field("net_ge_bad_to_good", c.control_net.ge_bad_to_good);
  field("net_burst_loss", c.control_net.burst_loss);
  field("net_delivery_bucket_ns", c.control_net.delivery_bucket.ns);
  field("recovery", c.recovery);
  field("demand_timeout_ns", c.demand_timeout.ns);
  field("byzantine", c.byzantine);  // client index, behavior mask, skew
  field("failure", c.failures.events);  // at, kind, client index, param
}

using ByzantineMap = decltype(workload::ScenarioConfig::byzantine);

// The header states the verdict and net counters of the run `r` — the
// episode exactly as the file body describes it.
void write_replay(const std::string& path, const Episode& ep, const EpisodeResult& r) {
  std::ofstream f(path);
  // Every double at full precision: the replay must be the episode, not a
  // neighbour of it.
  f.precision(std::numeric_limits<double>::max_digits10);
  const verify::ViolationSummary& v = r.violations;
  f << "# stank fuzz_safety replay v1\n";
  f << "# violations: write_order=" << v.write_order << " stale_reads=" << v.stale_reads
    << " lost_updates=" << v.lost_updates << "\n";
  f << "# net: " << r.net.summary() << "\n";
  replay_fields(ep, [&](const char* key, const auto& val) {
    using T = std::decay_t<decltype(val)>;
    if constexpr (std::is_same_v<T, bool>) {
      f << key << "=" << (val ? "negative" : "valid") << "\n";
    } else if constexpr (std::is_enum_v<T>) {
      f << key << "=" << static_cast<int>(val) << "\n";
    } else if constexpr (std::is_arithmetic_v<T>) {
      f << key << "=" << val << "\n";
    } else if constexpr (std::is_same_v<T, ByzantineMap>) {
      for (const auto& [idx, spec] : val) {
        f << key << "=" << idx << " " << spec.mask() << " " << spec.send_time_skew_s << "\n";
      }
    } else {
      for (const workload::FailureEvent& ev : val) {
        f << key << "=" << ev.at_s << " " << static_cast<int>(ev.kind) << " " << ev.client_idx
          << " " << ev.param_s << "\n";
      }
    }
  });
}

// A replay file is outside input: every value must parse completely, and an
// attacker line must name a real client, known behaviors and a finite skew.
// On the first bad line, says which and returns nullopt.
std::optional<Episode> read_replay(const std::string& path) {
  std::ifstream f(path);
  if (!f) return std::nullopt;
  Episode ep;
  // Files written before the bucket was recorded ran at generate()'s 1 ns.
  ep.cfg.control_net.delivery_bucket = sim::Duration{1};
  // (line number, client index) of each attacker line, checked against
  // num_clients once the whole file is read.
  std::vector<std::pair<std::size_t, std::size_t>> attackers;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(f, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const std::string val = line.substr(eq + 1);
    std::istringstream in(val);
    bool known = false;
    bool valid = true;
    replay_fields(ep, [&](const char* name, auto& field) {
      if (known || key != name) return;
      known = true;
      using T = std::decay_t<decltype(field)>;
      if constexpr (std::is_same_v<T, bool>) {
        std::string mode;
        in >> mode;
        valid = mode == "negative" || mode == "valid";
        field = mode == "negative";
      } else if constexpr (std::is_enum_v<T>) {
        int e = 0;
        in >> e;
        field = static_cast<T>(e);
      } else if constexpr (std::is_arithmetic_v<T>) {
        in >> field;
      } else if constexpr (std::is_same_v<T, ByzantineMap>) {
        std::size_t idx = 0;
        std::uint32_t behavior_mask = 0;
        double skew = 0.0;
        in >> idx >> behavior_mask >> skew;
        valid = (behavior_mask & ~client::ByzantineSpec::kAllBehaviors) == 0 &&
                std::isfinite(skew);
        field[idx] = client::ByzantineSpec::from_mask(behavior_mask, skew);
        attackers.emplace_back(line_no, idx);
      } else {
        workload::FailureEvent ev;
        int kind = 0;
        in >> ev.at_s >> kind >> ev.client_idx >> ev.param_s;
        ev.kind = static_cast<workload::FailureKind>(kind);
        field.push_back(ev);
      }
    });
    if (!known) {
      std::fprintf(stderr, "replay: line %zu: unknown key '%s'\n", line_no, key.c_str());
      return std::nullopt;
    }
    if (!valid || in.fail() || !(in >> std::ws).eof()) {
      std::fprintf(stderr, "replay: line %zu: bad value '%s'\n", line_no, line.c_str());
      return std::nullopt;
    }
  }
  for (const auto& [at, idx] : attackers) {
    if (idx >= ep.cfg.workload.num_clients) {
      std::fprintf(stderr, "replay: line %zu: byzantine client %zu but num_clients=%u\n", at,
                   idx, ep.cfg.workload.num_clients);
      return std::nullopt;
    }
  }
  ep.byzantine = !ep.cfg.byzantine.empty();
  return ep;
}

// ---------------------------------------------------------------------------
// Greedy shrinker over three dimensions: drop a failure event, drop a whole
// byzantine client, or clear one behavior bit on one byzantine client —
// whichever single removal keeps the episode violating, until none does. The
// repro a developer picks up names the one misbehavior that matters.

workload::ScenarioConfig shrink(workload::ScenarioConfig cfg, int* runs_out) {
  int runs = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < cfg.failures.events.size(); ++i) {
      workload::ScenarioConfig trial = cfg;
      trial.failures.events.erase(trial.failures.events.begin() +
                                  static_cast<std::ptrdiff_t>(i));
      ++runs;
      if (violates(trial)) {
        cfg = std::move(trial);
        progress = true;
        break;
      }
    }
    if (progress) continue;
    for (const auto& [idx, spec] : cfg.byzantine) {
      workload::ScenarioConfig trial = cfg;
      trial.byzantine.erase(idx);
      ++runs;
      if (violates(trial)) {
        cfg = std::move(trial);
        progress = true;
        break;
      }
    }
    if (progress) continue;
    for (const auto& [idx, spec] : cfg.byzantine) {
      const std::uint32_t m = spec.mask();
      if ((m & (m - 1)) == 0) continue;  // single bit: the erase pass covers it
      for (std::uint32_t b = 0; b < 6 && !progress; ++b) {
        if ((m & (1u << b)) == 0) continue;
        workload::ScenarioConfig trial = cfg;
        trial.byzantine[idx] =
            client::ByzantineSpec::from_mask(m & ~(1u << b), spec.send_time_skew_s);
        ++runs;
        if (violates(trial)) {
          cfg = std::move(trial);
          progress = true;
        }
      }
      if (progress) break;
    }
  }
  if (runs_out != nullptr) *runs_out = runs;
  return cfg;
}

void print_violations(const verify::ViolationSummary& v) {
  std::printf("  write-order races: %zu\n  stale reads:       %zu\n  lost updates:      %zu\n",
              v.write_order, v.stale_reads, v.lost_updates);
}

int usage() {
  std::fprintf(stderr,
               "usage: fuzz_safety [--episodes N] [--seed S] [--out FILE]\n"
               "                   [--byzantine] [--negative-control] [--quick] [--jobs N]\n"
               "       fuzz_safety --replay FILE [--trace]\n");
  return 2;
}

const char* kBehaviorNames[6] = {"lie-send-time", "defy-quiesce",       "write-after-expiry",
                                 "ack-no-release", "replay-old-session", "forge-lock-claims"};

}  // namespace

int main(int argc, char** argv) {
  std::size_t episodes = 1000;
  std::uint64_t seed = 1;
  bool negative = false;
  bool byzantine = false;
  bool trace = false;
  unsigned jobs = 0;
  std::string out_path = "fuzz_replay.txt";
  std::string replay_path;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "--episodes") {
      const char* v = next();
      if (!v) return usage();
      episodes = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (a == "--seed") {
      const char* v = next();
      if (!v) return usage();
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--jobs") {
      const char* v = next();
      if (!v) return usage();
      jobs = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (a == "--out") {
      const char* v = next();
      if (!v) return usage();
      out_path = v;
    } else if (a == "--replay") {
      const char* v = next();
      if (!v) return usage();
      replay_path = v;
    } else if (a == "--negative-control") {
      negative = true;
    } else if (a == "--byzantine") {
      byzantine = true;
    } else if (a == "--trace") {
      trace = true;
    } else if (a == "--quick") {
      episodes = 150;
    } else {
      return usage();
    }
  }

  // --- Replay mode ---------------------------------------------------------
  if (!replay_path.empty()) {
    auto ep = read_replay(replay_path);
    if (!ep) {
      std::fprintf(stderr, "fuzz_safety: cannot read replay file %s\n", replay_path.c_str());
      return 2;
    }
    std::printf("replaying %s (episode seed %llu, %s mode, %zu failure events, "
                "%zu byzantine clients)\n",
                replay_path.c_str(), static_cast<unsigned long long>(ep->seed),
                ep->negative ? "negative" : "valid", ep->cfg.failures.events.size(),
                ep->cfg.byzantine.size());
    ep->cfg.enable_trace = trace;
    auto r = run_episode(ep->cfg, trace ? &std::cout : nullptr,
                         trace ? replay_path + ".trace" : std::string{});
    std::printf("ops completed: %llu; net %s; checker result:\n",
                static_cast<unsigned long long>(r.ops), r.net.summary().c_str());
    print_violations(r.violations);
    for (const auto& v : r.details) {
      std::printf("  [%s] t=%.4fs %s\n", verify::to_string(v.kind), v.at.seconds(),
                  v.detail.c_str());
    }
    if (!ep->cfg.byzantine.empty()) {
      std::printf("  honest-victim violations (the gate): %zu; byzantine-victim "
                  "diagnostics: %zu; fence rejects absorbed: %llu\n",
                  r.honest.total(), r.byz_violations,
                  static_cast<unsigned long long>(r.byz_fence_rejects));
    }
    return gate_violates(r, ep->cfg) ? 1 : 0;
  }

  // --- Sweep mode ----------------------------------------------------------
  std::printf("fuzz_safety: %zu %s%s episodes, master seed %llu\n", episodes,
              byzantine ? "BYZANTINE " : "",
              negative ? "NEGATIVE-CONTROL" : "paper-valid",
              static_cast<unsigned long long>(seed));

  std::vector<EpisodeResult> results(episodes);
  rt::parallel_for(
      episodes,
      [&](std::size_t i) {
        const Episode dbg = generate(seed, i, negative, byzantine);
        if (std::getenv("STANK_FUZZ_DEBUG") != nullptr) {
          std::fprintf(stderr, "episode %zu: clients=%u run=%.2fs", i, dbg.cfg.workload.num_clients,
                       dbg.cfg.workload.run_seconds);
          for (const auto& [idx, spec] : dbg.cfg.byzantine) {
            std::fprintf(stderr, " byz[%zu]=mask%u skew=%.3f", idx, spec.mask(),
                         spec.send_time_skew_s);
          }
          std::fprintf(stderr, "\n");
        }
        results[i] = run_episode(dbg.cfg);
      },
      jobs);

  verify::ViolationSummary total;
  std::size_t violating = 0, byz_diag = 0;
  std::uint64_t ops = 0, dup = 0, reordered = 0, burst = 0, steals = 0, nacks = 0;
  std::uint64_t byz_rejects = 0;
  std::array<std::uint64_t, 6> rejects_by_bit{};
  std::size_t first_violating = episodes;
  for (std::size_t i = 0; i < episodes; ++i) {
    const auto& r = results[i];
    // In byzantine mode the verdict tallies the HONEST bucket only; the
    // adversary's self-inflicted damage is summarized separately below.
    const auto& gate = byzantine ? r.honest : r.violations;
    total.write_order += gate.write_order;
    total.stale_reads += gate.stale_reads;
    total.lost_updates += gate.lost_updates;
    if (gate.total() > 0) {
      ++violating;
      if (first_violating == episodes) first_violating = i;
    }
    byz_diag += r.byz_violations;
    byz_rejects += r.byz_fence_rejects;
    for (std::size_t b = 0; b < rejects_by_bit.size(); ++b) {
      rejects_by_bit[b] += r.fence_rejects_by_bit[b];
    }
    ops += r.ops;
    dup += r.net.duplicated;
    reordered += r.net.reordered;
    burst += r.net.dropped_burst;
    steals += r.lock_steals;
    nacks += r.nacks;
  }

  std::printf("episodes: %zu  violating: %zu  ops: %llu\n", episodes, violating,
              static_cast<unsigned long long>(ops));
  std::printf("adversity exercised: %llu dups, %llu reorder spikes, %llu burst drops, "
              "%llu lock steals, %llu NACKs\n",
              static_cast<unsigned long long>(dup), static_cast<unsigned long long>(reordered),
              static_cast<unsigned long long>(burst), static_cast<unsigned long long>(steals),
              static_cast<unsigned long long>(nacks));
  print_violations(total);
  if (byzantine) {
    std::printf("byzantine-victim diagnostics (self-inflicted, not gated): %zu\n", byz_diag);
    std::printf("attacks absorbed by the fence lists: %llu rejected SAN commands\n",
                static_cast<unsigned long long>(byz_rejects));
    for (std::size_t b = 0; b < rejects_by_bit.size(); ++b) {
      if (rejects_by_bit[b] > 0) {
        std::printf("  with %-20s active: %llu\n", kBehaviorNames[b],
                    static_cast<unsigned long long>(rejects_by_bit[b]));
      }
    }
  }

  if (negative) {
    // The checker must have teeth: broken premises => observed violations.
    if (violating == 0) {
      std::printf("NEGATIVE CONTROL FAILED: no violations despite %s —\n"
                  "the checker (or the fuzzer's reach) is toothless.\n",
                  byzantine ? "a rogue writer and fencing disabled"
                            : "broken timing premises");
      return 1;
    }
    const Episode ep = generate(seed, first_violating, negative, byzantine);
    write_replay(out_path, ep, dump_trace(ep.cfg, out_path + ".trace"));
    std::printf("negative control OK: %zu/%zu episodes violated as expected.\n"
                "replayable example: seed %llu -> %s\n",
                violating, episodes, static_cast<unsigned long long>(ep.seed),
                out_path.c_str());
    return 0;
  }

  if (violating > 0) {
    Episode ep = generate(seed, first_violating, negative, byzantine);
    std::printf("\nSAFETY VIOLATION at episode %zu (seed %llu). Shrinking "
                "(%zu failure events, %zu byzantine clients)...\n",
                first_violating, static_cast<unsigned long long>(ep.seed),
                ep.cfg.failures.events.size(), ep.cfg.byzantine.size());
    int shrink_runs = 0;
    ep.cfg = shrink(ep.cfg, &shrink_runs);
    std::printf("shrunk to %zu events + %zu byzantine clients in %d runs; "
                "replay written to %s\n",
                ep.cfg.failures.events.size(), ep.cfg.byzantine.size(), shrink_runs,
                out_path.c_str());
    // The header comes from a run of the SHRUNK episode, the one the file
    // body describes.
    write_replay(out_path, ep, dump_trace(ep.cfg, out_path + ".trace"));
    return 1;
  }

  std::printf("all clear: no %sviolations in %zu %s episodes.\n",
              byzantine ? "honest-victim " : "", episodes,
              byzantine ? "byzantine" : "paper-valid");
  return 0;
}
