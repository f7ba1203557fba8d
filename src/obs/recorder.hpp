// The flight recorder: per-node ring buffers of typed events, span latency
// histograms, sampled time series, and a string-note side channel for the
// few facts no event kind carries (watchdog trip text, injected failures).
//
// A component holds a `Recorder*` that is null in steady state; every
// instrumentation site is `if (rec_) rec_->record(...)` — one predictable
// branch when detached, a struct store into a preallocated ring when
// attached. Rings are bounded: a long run keeps the most recent
// `Recorder::kRingCapacity` events per node (the flight-recorder property)
// and counts what it overwrote.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "metrics/histogram.hpp"
#include "obs/event.hpp"

namespace stank::sim {
class Engine;
}  // namespace stank::sim

namespace stank::obs {

// A free-text note. Kept out of the binary rings — strings are exactly what
// the typed path exists to avoid — but stamped in the same global time frame
// so exports can merge the two streams.
struct Annotation {
  sim::SimTime at;
  NodeId node;
  std::string category;
  std::string detail;
};

// One point of a named time series (sampled metric).
struct SeriesPoint {
  double t_s{0.0};  // global sim time, seconds
  double value{0.0};
};

struct Series {
  std::string name;
  std::vector<SeriesPoint> points;
};

class Recorder {
 public:
  // Max typed events retained per node; older events are overwritten and
  // counted as dropped. 16Ki events x 32 B = 512 KiB per node at the cap;
  // rings grow geometrically so small runs stay small.
  static constexpr std::size_t kRingCapacity = std::size_t{1} << 14;

  Recorder() = default;

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // Gives clock-less components (LockManager) a timestamp source, and
  // record_now() callers their stamp. Idempotent; all components of one
  // simulation share one engine.
  void bind_engine(const sim::Engine& engine) { engine_ = &engine; }

  void record(sim::SimTime at, NodeId node, EventKind kind, std::uint64_t a = 0,
              std::uint64_t b = 0, std::uint16_t aux = 0);
  // Stamps the bound engine's current time. Requires bind_engine().
  void record_now(NodeId node, EventKind kind, std::uint64_t a = 0, std::uint64_t b = 0,
                  std::uint16_t aux = 0);

  // Spans: latency samples in milliseconds, bucketed by kind.
  void span(SpanKind kind, double ms) { spans_[static_cast<std::size_t>(kind)].add(ms); }
  [[nodiscard]] const metrics::Histogram& span_hist(SpanKind kind) const {
    return spans_[static_cast<std::size_t>(kind)];
  }

  // Time series: append a sample to the named series (created on first use).
  void sample(const std::string& name, double t_s, double value);
  [[nodiscard]] const std::vector<Series>& series() const { return series_; }

  // String notes: cold-path only, for what no EventKind carries.
  void annotate(sim::SimTime at, NodeId node, std::string category, std::string detail);
  [[nodiscard]] const std::vector<Annotation>& annotations() const { return annotations_; }

  // -- queries --
  [[nodiscard]] std::size_t total_events() const;
  // Events overwritten by ring wrap, across all nodes.
  [[nodiscard]] std::uint64_t dropped_events() const;
  // Nodes with at least one typed event, ascending.
  [[nodiscard]] std::vector<NodeId> nodes() const;
  // Visits one node's retained events oldest-first.
  void visit_node(NodeId node, const std::function<void(const Event&)>& fn) const;
  // Visits every retained event merged into global time order (k-way merge;
  // each ring is already time-sorted because engine time is monotone).
  void visit_merged(const std::function<void(const Event&)>& fn) const;
  // Merges the rings of several recorders into one global timeline — the
  // sharded engine gives every shard its own recorder (rings are not
  // thread-safe), and this reassembles the run for export/inspection. Ties
  // break by (node id, recorder position) so the merged order is a pure
  // function of the recorded events.
  static void visit_merged_across(const std::vector<const Recorder*>& recs,
                                  const std::function<void(const Event&)>& fn);

  void clear();

  // Binary flight-recorder file ("STNKTRC1"): rings, annotations, series,
  // and span samples. load() replaces this recorder's contents; returns
  // false on a short or foreign stream.
  void save(std::ostream& os) const;
  [[nodiscard]] bool load(std::istream& is);

 private:
  struct Ring {
    std::vector<Event> buf;   // grows to kRingCapacity, then wraps
    std::size_t head{0};      // index of the oldest event once wrapped
    std::uint64_t dropped{0};

    void push(const Event& e);
  };

  const sim::Engine* engine_{nullptr};
  FlatMap<NodeId, Ring> rings_;
  std::array<metrics::Histogram, kSpanKindCount> spans_;
  std::vector<Series> series_;
  std::vector<Annotation> annotations_;
};

}  // namespace stank::obs
