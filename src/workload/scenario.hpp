// Scenario: one complete simulated Storage Tank installation plus a workload
// driver, failure injector, and verifier.
//
// This is the single entry point the examples and experiment benches build
// on. A scenario owns the engine, both networks, the disks, the server, the
// clients (each with an independently rate-skewed clock inside the epsilon
// band), the omniscient history recorder, and a per-client open/lock/read/
// write op generator. run() executes setup -> workload+failures -> settle ->
// consistency check and returns every number the tables need.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/byzantine.hpp"
#include "client/client.hpp"
#include "common/flat_map.hpp"
#include "metrics/histogram.hpp"
#include "net/control_net.hpp"
#include "obs/recorder.hpp"
#include "obs/watchdog.hpp"
#include "server/server.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "storage/san.hpp"
#include "verify/checker.hpp"
#include "verify/history.hpp"
#include "workload/failures.hpp"
#include "workload/spec.hpp"

namespace stank::workload {

struct ScenarioConfig {
  WorkloadSpec workload;
  core::LeaseConfig lease;
  server::RecoveryMode recovery{server::RecoveryMode::kLeaseAndFence};
  core::LeaseStrategy strategy{core::LeaseStrategy::kStorageTank};
  client::DataPath data_path{client::DataPath::kDirectSan};
  net::NetConfig control_net;
  protocol::TransportConfig transport;
  std::uint32_t block_size{256};
  std::uint64_t disk_blocks{1u << 16};
  FailurePlan failures;
  // Post-restart grace period forwarded to the server; 0 = its safe default
  // tau(1+eps).
  sim::LocalDuration recovery_grace{sim::LocalDuration{0}};
  bool enable_trace{false};
  // Clock-rate assignment inside [1/(1+eps), 1+eps]: 0 random per node,
  // +1 clients slow / server fast (adversarial for availability),
  // -1 clients fast / server slow (adversarial for safety margins),
  // +2 ideal (all clocks exactly rate 1 — for benches that compare local
  //    and global timestamps directly).
  int clock_skew_mode{0};

  // --- Assumption-violation knobs (tools/fuzz_safety negative control) ----
  // The paper's safety guarantee rests on two assumptions; these knobs break
  // them on purpose so the checker's teeth can be demonstrated.
  //
  // Lease period the CLIENTS believe in (tau_c); 0 inherits lease.tau, which
  // always remains the server's tau_s. Theorem 3.1 needs tau_c <= tau_s; a
  // client trusting tau_c >= tau_s(1+eps) keeps serving its cache after the
  // server has provably-expired the lease and stolen the locks.
  sim::LocalDuration client_tau{sim::LocalDuration{0}};
  // Multiplier applied to every client's drawn clock rate. 1.0 keeps all
  // rates inside the legal band; values below 1/(1+eps) make client clocks
  // run slower than rate synchronization allows, stretching tau_c in real
  // time beyond what the server's tau_s(1+eps) wait covers.
  double client_rate_scale{1.0};

  // --- Adversarial clients (tools/fuzz_safety --byzantine) ----------------
  // Client index -> misbehavior set; every index must be < num_clients. Each
  // index with a behavior set runs a client::ByzantineClient and is recorded
  // in the history so the checker's split verdict (DESIGN.md §13) can
  // separate honest-client safety from self-inflicted byzantine damage.
  std::map<std::size_t, client::ByzantineSpec> byzantine;
  // Override for the server's demand compliance timeout; 0 keeps the
  // ServerConfig default. Byzantine episodes shorten it so an
  // ack-without-release stall escalates to fence+steal within the run.
  sim::LocalDuration demand_timeout{sim::LocalDuration{0}};
};

struct ScenarioResult {
  verify::ViolationSummary violations;
  std::vector<verify::Violation> violation_list;
  // The same list bucketed by victim (DESIGN.md §13). With no byzantine
  // clients configured, honest_violations == violation_list.
  std::vector<verify::Violation> honest_violations;
  std::vector<verify::Violation> byzantine_violations;

  std::uint64_t reads_ok{0};
  std::uint64_t writes_ok{0};
  std::uint64_t ops_failed{0};

  metrics::Counters server;
  metrics::Counters clients;  // summed across clients
  net::NetStats net;
  storage::SanStats san;
  // SAN commands the fence list rejected, summed over disks, per initiator.
  // For a byzantine run this is the count of attacks the trusted base (the
  // disks' fence lists) absorbed — the fuzzer reports it per misbehavior.
  std::map<NodeId, std::uint64_t> fence_rejects_by_initiator;

  // Peak lease bookkeeping at the server (sampled), and at the end.
  std::size_t max_lease_state_bytes{0};
  std::size_t final_lease_state_bytes{0};

  metrics::Histogram op_latency_ms;
  double sim_seconds{0.0};
  std::uint64_t engine_events{0};

  // Flight-recorder events lost to ring overwrite (0 when untraced). A
  // nonzero count on a violating run means the retained trace window may
  // not reach back to the root cause.
  std::uint64_t trace_dropped{0};
  // Invariant-watchdog threshold crossings during the run (0 when untraced).
  std::uint64_t watchdog_trips{0};

  // One-line final verdict: consistency outcome, op counts, and the network
  // summary (what the fabric did to the traffic explains a bad run).
  [[nodiscard]] std::string verdict_line() const;
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig cfg);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  // The standard pipeline.
  ScenarioResult run();

  // Piecewise control for bespoke drivers (figure benches, examples).
  void setup();                 // builds nodes, preallocates, registers, opens
  void run_generators();        // starts the op generators (ends at run_seconds)
  void run_until_s(double t_s); // advance simulated time
  ScenarioResult finish();      // settle, final sync, consistency check

  // --- Access -------------------------------------------------------------
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] server::Server& server() { return *server_; }
  [[nodiscard]] client::Client& client(std::size_t i) { return *clients_.at(i); }
  [[nodiscard]] std::size_t num_clients() const { return clients_.size(); }
  [[nodiscard]] net::ControlNet& control_net() { return *net_; }
  [[nodiscard]] storage::SanFabric& san() { return *san_; }
  // The typed flight recorder (always present; only fed when
  // cfg.enable_trace attached it to the nodes).
  [[nodiscard]] obs::Recorder& recorder() { return recorder_; }
  // Null unless cfg.enable_trace armed it.
  [[nodiscard]] obs::Watchdog* watchdog() { return watchdog_.get(); }
  [[nodiscard]] verify::HistoryRecorder& history() { return history_; }
  [[nodiscard]] const ScenarioConfig& config() const { return cfg_; }
  [[nodiscard]] NodeId server_node() const;
  [[nodiscard]] NodeId client_node(std::size_t i) const;
  [[nodiscard]] FileId file_id(std::size_t file_idx) const { return file_ids_.at(file_idx); }
  [[nodiscard]] client::Fd fd(std::size_t client_idx, std::size_t file_idx) const;

  // Next version for a block, drawn under the caller's lock (see the
  // generator): strictly increasing per (file, block).
  std::uint64_t next_version(FileId file, std::uint64_t block);

  // Applies one failure event immediately (the plan scheduler uses this).
  void apply_failure(const FailureEvent& ev);

 private:
  struct ClientDriver {
    std::size_t index{0};
    bool running{false};
    std::map<std::size_t, client::Fd> fds;  // file idx -> fd
    sim::Rng rng{0};
    std::uint64_t cursor{0};  // sequential patterns: absolute block position
  };
  // Picks (file, block, is_read) for this arrival under the configured
  // pattern.
  struct OpChoice {
    std::size_t file_idx{0};
    std::uint64_t block{0};
    bool is_read{true};
  };
  OpChoice choose_op(ClientDriver& d);

  void build();
  void open_all_files(std::size_t ci, std::function<void()> done);
  void schedule_next_op(std::size_t ci);
  void issue_op(std::size_t ci);
  void do_write(std::size_t ci, std::size_t fi, std::uint64_t block);
  void do_read(std::size_t ci, std::size_t fi, std::uint64_t block);
  // Records the latency of an op issued at t0 that completes now.
  void note_op_latency(sim::SimTime t0);
  void sample_lease_state();
  [[nodiscard]] double now_s() const { return engine_.now().seconds(); }
  [[nodiscard]] bool workload_over() const;

  ScenarioConfig cfg_;
  sim::Engine engine_;
  sim::Rng rng_;
  obs::Recorder recorder_;
  // &recorder_ when cfg_.enable_trace, else null; the same gate the nodes
  // use, so latency spans and failure notes cost one branch untraced.
  obs::Recorder* rec_{nullptr};
  std::unique_ptr<obs::Watchdog> watchdog_;
  verify::HistoryRecorder history_;

  std::unique_ptr<net::ControlNet> net_;
  std::unique_ptr<storage::SanFabric> san_;
  std::unique_ptr<server::Server> server_;
  std::vector<std::unique_ptr<client::Client>> clients_;
  std::vector<ClientDriver> drivers_;
  std::vector<FileId> file_ids_;
  // Last version stamped per (file, block): one flat probe per write.
  struct BlockKey {
    FileId file;
    std::uint64_t block{0};
    friend bool operator==(const BlockKey&, const BlockKey&) = default;
  };
  struct BlockKeyHash {
    std::size_t operator()(const BlockKey& k) const {
      return (static_cast<std::size_t>(k.file.value()) << 32) ^ k.block;
    }
  };
  FlatMap<BlockKey, std::uint64_t, BlockKeyHash> versions_;

  std::uint64_t reads_ok_{0};
  std::uint64_t writes_ok_{0};
  std::uint64_t ops_failed_{0};
  metrics::Histogram op_latency_ms_;
  std::size_t max_lease_bytes_{0};
  bool setup_done_{false};
  double settle_seconds_{0.0};
};

}  // namespace stank::workload
