// Probe registry: named probes evaluated on an existing cadence, sampled
// into the recorder's time series and checked against invariant bands, whose
// crossings are recorded as typed flight-recorder events.
//
// The watchdog owns NO timer and schedules NO engine events — that is the
// point. Scheduling would change events_executed() and break the armed ==
// dark determinism digest. Instead the owner calls evaluate() from a cadence
// that already exists: Scenario hooks it into its 250ms lease-state sampling
// timer (the lease-timer cadence the paper's failure detection runs on), and
// bench_swarm calls it from the sharded engine's snapshot hook,
// where every other worker is parked and all shard state is
// happens-before-visible.
//
// A probe with no band only samples into the series of its name. A banded
// probe is edge-triggered: one kWatchdogTrip when the value leaves its legal
// band, one kWatchdogClear when it returns; it samples too only when asked.
// A trip also records a string annotation carrying the probe name and bound
// — allocation is fine there, anomalies are rare by definition.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "obs/recorder.hpp"

namespace stank::obs {

class Watchdog {
 public:
  explicit Watchdog(Recorder& rec) : rec_(&rec) {}

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Sample-only probe: its value, or with `delta` its growth since the
  // previous evaluation (so a monotone counter plots as a rate), joins the
  // series `name` at every evaluation.
  void add_series(std::string name, std::function<double()> fn, bool delta = false);

  // Legal band is [min, max] inclusive; outside it the probe trips. Returns
  // the id its trip events carry: banded probes count from 0 in the order
  // they are added.
  std::uint32_t add_probe(std::string name, std::function<double()> fn,
                          double min = -std::numeric_limits<double>::infinity(),
                          double max = std::numeric_limits<double>::infinity(),
                          bool sampled = false);

  // Rate probe over a monotone counter: trips when the counter grows by
  // more than max_delta between consecutive evaluations. max_delta = 0
  // means "any growth at all is an anomaly" (e.g. recorder ring drops).
  std::uint32_t add_rate_probe(std::string name, std::function<double()> fn,
                               double max_delta);

  // Evaluates every probe, in the order added, at simulated time `at`. Call
  // from an existing cadence only; never schedule an event for this.
  void evaluate(sim::SimTime at);

  [[nodiscard]] std::uint64_t trips() const { return trips_; }
  [[nodiscard]] std::size_t probe_count() const { return probes_.size(); }
  [[nodiscard]] const std::string& probe_name(std::uint32_t id) const { return band(id).name; }
  [[nodiscard]] bool tripped(std::uint32_t id) const { return band(id).tripped; }

 private:
  static constexpr std::uint32_t kNoBand = std::numeric_limits<std::uint32_t>::max();

  struct Probe {
    std::string name;
    std::function<double()> fn;
    std::uint32_t id{kNoBand};  // banded probes only
    bool sampled{false};
    bool delta{false};
    bool primed{false};  // a banded delta probe skips its first evaluation
    bool tripped{false};
    double lo{0.0};
    double hi{0.0};
    double prev{0.0};
  };

  std::uint32_t add_banded(Probe p);
  [[nodiscard]] const Probe& band(std::uint32_t id) const;

  Recorder* rec_;
  std::vector<Probe> probes_;
  std::uint32_t bands_{0};
  std::uint64_t trips_{0};
};

}  // namespace stank::obs
