// Periodic time-series sampling: a registry of named probes snapshotted
// into the recorder's series. The owner decides the cadence (Scenario hooks
// it into its existing lease-state sampling timer); the sampler itself holds
// no timer so it stays engine-agnostic.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/recorder.hpp"
#include "sim/engine.hpp"

namespace stank::obs {

class Sampler {
 public:
  explicit Sampler(Recorder& rec) : rec_(&rec) {}

  // Absolute gauge: the probe's value is recorded as-is.
  void add_probe(std::string name, std::function<double()> probe) {
    probes_.push_back(Probe{std::move(name), std::move(probe), false, 0.0});
  }

  // Monotone-counter probe: records the delta since the previous snapshot,
  // so cumulative stats (NetStats) plot as rates instead of ramps.
  void add_delta_probe(std::string name, std::function<double()> probe) {
    probes_.push_back(Probe{std::move(name), std::move(probe), true, 0.0});
  }

  [[nodiscard]] std::size_t probe_count() const { return probes_.size(); }

  // Samples every probe at global time t_s (seconds).
  void snapshot(double t_s) {
    for (auto& p : probes_) {
      const double v = p.fn();
      if (p.delta) {
        rec_->sample(p.name, t_s, v - p.prev);
        p.prev = v;
      } else {
        rec_->sample(p.name, t_s, v);
      }
    }
  }

 private:
  struct Probe {
    std::string name;
    std::function<double()> fn;
    bool delta{false};
    double prev{0.0};
  };

  Recorder* rec_;
  std::vector<Probe> probes_;
};

}  // namespace stank::obs
