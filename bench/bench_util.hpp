// Shared bench reporting.
//
// Every bench binary constructs one Reporter at the top of main(). On exit it
// appends a single JSON line to the file named by $STANK_BENCH_JSON (if set):
// wall time, simulated events executed, datagrams sent, derived rates, and
// any named metrics the bench recorded. bench/run_all sets the variable, runs
// every bench, and folds the lines into BENCH_core.json — the perf
// trajectory later PRs measure themselves against.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "metrics/histogram.hpp"
#include "net/control_net.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"

namespace stank::bench {

// The figure benches read their protocol timelines from the flight
// recorder, whose rings overwrite their oldest events. A wrapped ring could
// silently drop the event a table cell is built from, so refuse to go on.
inline void require_unwrapped(const obs::Recorder& rec, const char* bench) {
  if (rec.dropped_events() == 0) return;
  std::fprintf(stderr, "%s: flight recorder overwrote %llu event(s); timeline incomplete\n",
               bench, static_cast<unsigned long long>(rec.dropped_events()));
  std::_Exit(1);
}

class Reporter {
 public:
  explicit Reporter(std::string name)
      : name_(std::move(name)),
        start_(std::chrono::steady_clock::now()),
        events0_(sim::Engine::global_events_executed()),
        datagrams0_(net::ControlNet::global_datagrams_sent()) {}

  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  // Records a named rate metric (e.g. one per micro-workload).
  void metric(std::string name, double per_sec, double ns_per_op) {
    metrics_.push_back({std::move(name), per_sec, ns_per_op});
  }

  // Records a latency distribution's percentiles (e.g. op latency, span
  // histograms from the flight recorder). Emitted as a "latencies" array so
  // bench_diff.py can watch p99 drift alongside the events/s gate.
  void latency(std::string name, const metrics::Histogram& h) {
    if (h.count() == 0) return;
    latencies_.push_back({std::move(name), h.count(), h.quantile(0.5), h.quantile(0.95),
                          h.quantile(0.99)});
  }

  // Records an allocation count over a named steady-state window (see
  // alloc_hooks.hpp). Emitted as an "allocs" array; bench_diff.py flags any
  // count that grows against the baseline.
  void alloc(std::string name, std::uint64_t count) {
    allocs_.push_back({std::move(name), count});
  }

  // Records a named scalar with no rate interpretation (curve points like
  // bytes-per-client at a given swarm size). Emitted as a "values" array.
  void value(std::string name, double v) { values_.push_back({std::move(name), v}); }

  ~Reporter() {
    const char* path = std::getenv("STANK_BENCH_JSON");
    if (path == nullptr) return;
    std::FILE* f = std::fopen(path, "a");
    if (f == nullptr) return;
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    const std::uint64_t events = sim::Engine::global_events_executed() - events0_;
    const std::uint64_t datagrams = net::ControlNet::global_datagrams_sent() - datagrams0_;
    std::fprintf(f,
                 "{\"bench\":\"%s\",\"wall_s\":%.3f,\"sim_events\":%llu,"
                 "\"events_per_sec\":%.6g,\"datagrams\":%llu,\"datagrams_per_sec\":%.6g",
                 name_.c_str(), wall, static_cast<unsigned long long>(events),
                 wall > 0 ? static_cast<double>(events) / wall : 0.0,
                 static_cast<unsigned long long>(datagrams),
                 wall > 0 ? static_cast<double>(datagrams) / wall : 0.0);
    if (!metrics_.empty()) {
      std::fprintf(f, ",\"metrics\":[");
      for (std::size_t i = 0; i < metrics_.size(); ++i) {
        std::fprintf(f, "%s{\"name\":\"%s\",\"per_sec\":%.6g,\"ns_per_op\":%.6g}",
                     i ? "," : "", metrics_[i].name.c_str(), metrics_[i].per_sec,
                     metrics_[i].ns_per_op);
      }
      std::fprintf(f, "]");
    }
    if (!latencies_.empty()) {
      std::fprintf(f, ",\"latencies\":[");
      for (std::size_t i = 0; i < latencies_.size(); ++i) {
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"count\":%zu,\"p50_ms\":%.6g,\"p95_ms\":%.6g,"
                     "\"p99_ms\":%.6g}",
                     i ? "," : "", latencies_[i].name.c_str(), latencies_[i].count,
                     latencies_[i].p50, latencies_[i].p95, latencies_[i].p99);
      }
      std::fprintf(f, "]");
    }
    if (!allocs_.empty()) {
      std::fprintf(f, ",\"allocs\":[");
      for (std::size_t i = 0; i < allocs_.size(); ++i) {
        std::fprintf(f, "%s{\"name\":\"%s\",\"count\":%llu}", i ? "," : "",
                     allocs_[i].name.c_str(),
                     static_cast<unsigned long long>(allocs_[i].count));
      }
      std::fprintf(f, "]");
    }
    if (!values_.empty()) {
      std::fprintf(f, ",\"values\":[");
      for (std::size_t i = 0; i < values_.size(); ++i) {
        std::fprintf(f, "%s{\"name\":\"%s\",\"value\":%.6g}", i ? "," : "",
                     values_[i].name.c_str(), values_[i].value);
      }
      std::fprintf(f, "]");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
  }

 private:
  struct Metric {
    std::string name;
    double per_sec;
    double ns_per_op;
  };
  struct Latency {
    std::string name;
    std::size_t count;
    double p50;
    double p95;
    double p99;
  };
  struct Alloc {
    std::string name;
    std::uint64_t count;
  };
  struct Value {
    std::string name;
    double value;
  };

  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t events0_;
  std::uint64_t datagrams0_;
  std::vector<Metric> metrics_;
  std::vector<Latency> latencies_;
  std::vector<Alloc> allocs_;
  std::vector<Value> values_;
};

}  // namespace stank::bench
