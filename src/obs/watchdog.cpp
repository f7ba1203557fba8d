#include "obs/watchdog.hpp"

#include <bit>
#include <cstdio>

#include "common/assert.hpp"

namespace stank::obs {

void Watchdog::add_series(std::string name, std::function<double()> fn, bool delta) {
  Probe p;
  p.name = std::move(name);
  p.fn = std::move(fn);
  p.sampled = true;
  p.delta = delta;
  probes_.push_back(std::move(p));
}

std::uint32_t Watchdog::add_probe(std::string name, std::function<double()> fn,
                                  double min, double max, bool sampled) {
  Probe p;
  p.name = std::move(name);
  p.fn = std::move(fn);
  p.sampled = sampled;
  p.lo = min;
  p.hi = max;
  return add_banded(std::move(p));
}

std::uint32_t Watchdog::add_rate_probe(std::string name, std::function<double()> fn,
                                       double max_delta) {
  Probe p;
  p.name = std::move(name);
  p.fn = std::move(fn);
  p.delta = true;
  p.lo = -std::numeric_limits<double>::infinity();
  p.hi = max_delta;
  return add_banded(std::move(p));
}

std::uint32_t Watchdog::add_banded(Probe p) {
  p.id = bands_++;
  probes_.push_back(std::move(p));
  return probes_.back().id;
}

const Watchdog::Probe& Watchdog::band(std::uint32_t id) const {
  for (const Probe& p : probes_) {
    if (p.id == id) return p;
  }
  STANK_UNREACHABLE("no banded probe with this id");
}

void Watchdog::evaluate(sim::SimTime at) {
  for (Probe& p : probes_) {
    double v = p.fn();
    if (p.delta) {
      const double cur = v;
      v = cur - p.prev;
      p.prev = cur;
    }
    if (p.sampled) rec_->sample(p.name, at.seconds(), v);
    if (p.id == kNoBand) continue;
    if (p.delta && !p.primed) {
      p.primed = true;  // the first delta measures from zero, not a rate
      continue;
    }
    const bool violated = v < p.lo || v > p.hi;
    if (violated && !p.tripped) {
      p.tripped = true;
      ++trips_;
      rec_->record(at, NodeId{0}, EventKind::kWatchdogTrip, p.id,
                   std::bit_cast<std::uint64_t>(v));
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s value=%g legal=[%g, %g]%s", p.name.c_str(),
                    v, p.lo, p.hi, p.delta ? " (delta per eval)" : "");
      rec_->annotate(at, NodeId{0}, "watchdog", buf);
    } else if (!violated && p.tripped) {
      p.tripped = false;
      rec_->record(at, NodeId{0}, EventKind::kWatchdogClear, p.id,
                   std::bit_cast<std::uint64_t>(v));
    }
  }
}

}  // namespace stank::obs
