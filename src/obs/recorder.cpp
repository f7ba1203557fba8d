#include "obs/recorder.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <utility>

#include "common/assert.hpp"
#include "sim/engine.hpp"

namespace stank::obs {

namespace {

constexpr char kMagic[8] = {'S', 'T', 'N', 'K', 'T', 'R', 'C', '1'};
// Element-count sanity bound for load(): rejects counts that only a
// corrupted stream could produce before they turn into giant allocations.
constexpr std::uint64_t kMaxLoadCount = 1ull << 32;

template <typename T>
void wr(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
[[nodiscard]] bool rd(std::istream& is, T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  return is.good();
}

void wr_str(std::ostream& os, const std::string& s) {
  wr(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

[[nodiscard]] bool rd_str(std::istream& is, std::string& s) {
  std::uint32_t len = 0;
  if (!rd(is, len)) return false;
  s.resize(len);
  is.read(s.data(), static_cast<std::streamsize>(len));
  return is.good() || (len == 0 && !is.bad());
}

}  // namespace

void Recorder::Ring::push(const Event& e) {
  if (buf.size() < kRingCapacity) {
    buf.push_back(e);
    return;
  }
  buf[head] = e;
  head = (head + 1) % buf.size();
  ++dropped;
}

void Recorder::record(sim::SimTime at, NodeId node, EventKind kind, std::uint64_t a,
                      std::uint64_t b, std::uint16_t aux) {
  Event e;
  e.at = at;
  e.node = node;
  e.kind = kind;
  e.aux = aux;
  e.a = a;
  e.b = b;
  rings_[node].push(e);
}

void Recorder::record_now(NodeId node, EventKind kind, std::uint64_t a, std::uint64_t b,
                          std::uint16_t aux) {
  STANK_ASSERT_MSG(engine_ != nullptr, "record_now needs bind_engine()");
  record(engine_->now(), node, kind, a, b, aux);
}

void Recorder::sample(const std::string& name, double t_s, double value) {
  for (auto& s : series_) {
    if (s.name == name) {
      s.points.push_back({t_s, value});
      return;
    }
  }
  series_.push_back(Series{name, {{t_s, value}}});
}

void Recorder::annotate(sim::SimTime at, NodeId node, std::string category, std::string detail) {
  annotations_.push_back(Annotation{at, node, std::move(category), std::move(detail)});
}

std::size_t Recorder::total_events() const {
  std::size_t n = 0;
  for (const auto& [node, ring] : rings_) n += ring.buf.size();
  return n;
}

std::uint64_t Recorder::dropped_events() const {
  std::uint64_t n = 0;
  for (const auto& [node, ring] : rings_) n += ring.dropped;
  return n;
}

std::vector<NodeId> Recorder::nodes() const {
  std::vector<NodeId> out;
  out.reserve(rings_.size());
  for (const auto& [node, ring] : rings_) out.push_back(node);
  std::sort(out.begin(), out.end());
  return out;
}

void Recorder::visit_node(NodeId node, const std::function<void(const Event&)>& fn) const {
  const Ring* ring = rings_.find(node);
  if (ring == nullptr || ring->buf.empty()) return;
  const std::size_t n = ring->buf.size();
  for (std::size_t i = 0; i < n; ++i) {
    fn(ring->buf[(ring->head + i) % n]);
  }
}

void Recorder::visit_merged(const std::function<void(const Event&)>& fn) const {
  // K-way merge over the per-node rings, each already time-sorted (engine
  // time is monotone). Ties break toward the lower node id so merged order
  // is deterministic across runs.
  struct Cursor {
    NodeId node;
    const Ring* ring;
    std::size_t i{0};
    [[nodiscard]] const Event& at() const {
      return ring->buf[(ring->head + i) % ring->buf.size()];
    }
  };
  std::vector<Cursor> cursors;
  cursors.reserve(rings_.size());
  for (const auto& [node, ring] : rings_) {
    if (!ring.buf.empty()) cursors.push_back(Cursor{node, &ring});
  }
  std::sort(cursors.begin(), cursors.end(),
            [](const Cursor& a, const Cursor& b) { return a.node < b.node; });
  while (true) {
    Cursor* best = nullptr;
    for (auto& c : cursors) {
      if (c.i >= c.ring->buf.size()) continue;
      if (best == nullptr || c.at().at < best->at().at) best = &c;
    }
    if (best == nullptr) return;
    fn(best->at());
    ++best->i;
  }
}

void Recorder::visit_merged_across(const std::vector<const Recorder*>& recs,
                                   const std::function<void(const Event&)>& fn) {
  struct Cursor {
    NodeId node;
    std::size_t rec;  // position in `recs`, the final tie-break
    const Ring* ring;
    std::size_t i{0};
    [[nodiscard]] const Event& at() const {
      return ring->buf[(ring->head + i) % ring->buf.size()];
    }
  };
  std::vector<Cursor> cursors;
  for (std::size_t r = 0; r < recs.size(); ++r) {
    if (recs[r] == nullptr) continue;
    for (const auto& [node, ring] : recs[r]->rings_) {
      if (!ring.buf.empty()) cursors.push_back(Cursor{node, r, &ring});
    }
  }
  std::sort(cursors.begin(), cursors.end(), [](const Cursor& a, const Cursor& b) {
    if (a.node != b.node) return a.node < b.node;
    return a.rec < b.rec;
  });
  while (true) {
    Cursor* best = nullptr;
    for (auto& c : cursors) {
      if (c.i >= c.ring->buf.size()) continue;
      if (best == nullptr || c.at().at < best->at().at) best = &c;
    }
    if (best == nullptr) return;
    fn(best->at());
    ++best->i;
  }
}

void Recorder::clear() {
  rings_.clear();
  for (auto& h : spans_) h.clear();
  series_.clear();
  annotations_.clear();
}

void Recorder::save(std::ostream& os) const {
  os.write(kMagic, sizeof(kMagic));

  const auto node_ids = nodes();
  wr(os, static_cast<std::uint64_t>(node_ids.size()));
  for (NodeId node : node_ids) {
    const Ring& ring = *rings_.find(node);
    wr(os, node.value());
    wr(os, ring.dropped);
    wr(os, static_cast<std::uint64_t>(ring.buf.size()));
    // Written oldest-first so the ring round-trips normalized (head = 0).
    visit_node(node, [&os](const Event& e) { wr(os, e); });
  }

  wr(os, static_cast<std::uint64_t>(annotations_.size()));
  for (const auto& a : annotations_) {
    wr(os, a.at.ns);
    wr(os, a.node.value());
    wr_str(os, a.category);
    wr_str(os, a.detail);
  }

  wr(os, static_cast<std::uint64_t>(series_.size()));
  for (const auto& s : series_) {
    wr_str(os, s.name);
    wr(os, static_cast<std::uint64_t>(s.points.size()));
    for (const auto& p : s.points) {
      wr(os, p.t_s);
      wr(os, p.value);
    }
  }

  wr(os, static_cast<std::uint64_t>(kSpanKindCount));
  for (const auto& h : spans_) {
    wr(os, static_cast<std::uint64_t>(h.samples().size()));
    for (double v : h.samples()) wr(os, v);
  }
}

bool Recorder::load(std::istream& is) {
  char magic[sizeof(kMagic)];
  is.read(magic, sizeof(magic));
  if (!is.good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) return false;

  clear();

  std::uint64_t ring_count = 0;
  if (!rd(is, ring_count) || ring_count > kMaxLoadCount) return false;
  for (std::uint64_t r = 0; r < ring_count; ++r) {
    std::uint32_t node_val = 0;
    std::uint64_t dropped = 0;
    std::uint64_t count = 0;
    if (!rd(is, node_val) || !rd(is, dropped) || !rd(is, count) || count > kMaxLoadCount) {
      return false;
    }
    Ring& ring = rings_[NodeId{node_val}];
    ring.dropped = dropped;
    ring.buf.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      Event e;
      if (!rd(is, e)) return false;
      ring.buf.push_back(e);
    }
  }

  std::uint64_t ann_count = 0;
  if (!rd(is, ann_count) || ann_count > kMaxLoadCount) return false;
  for (std::uint64_t i = 0; i < ann_count; ++i) {
    Annotation a;
    std::uint32_t node_val = 0;
    if (!rd(is, a.at.ns) || !rd(is, node_val) || !rd_str(is, a.category) ||
        !rd_str(is, a.detail)) {
      return false;
    }
    a.node = NodeId{node_val};
    annotations_.push_back(std::move(a));
  }

  std::uint64_t series_count = 0;
  if (!rd(is, series_count) || series_count > kMaxLoadCount) return false;
  for (std::uint64_t i = 0; i < series_count; ++i) {
    Series s;
    std::uint64_t n = 0;
    if (!rd_str(is, s.name) || !rd(is, n) || n > kMaxLoadCount) return false;
    s.points.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t j = 0; j < n; ++j) {
      SeriesPoint p;
      if (!rd(is, p.t_s) || !rd(is, p.value)) return false;
      s.points.push_back(p);
    }
    series_.push_back(std::move(s));
  }

  std::uint64_t span_kinds = 0;
  if (!rd(is, span_kinds)) return false;
  for (std::uint64_t k = 0; k < span_kinds; ++k) {
    std::uint64_t n = 0;
    if (!rd(is, n) || n > kMaxLoadCount) return false;
    for (std::uint64_t j = 0; j < n; ++j) {
      double v = 0.0;
      if (!rd(is, v)) return false;
      // Span kinds beyond what this build knows are skipped, not errors:
      // newer traces stay loadable.
      if (k < kSpanKindCount) spans_[static_cast<std::size_t>(k)].add(v);
    }
  }
  return true;
}

}  // namespace stank::obs
