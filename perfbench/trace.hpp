// In-memory span tracer for the benchmark's traced run.
//
// The benchmark wraps its own calls into the simulator's layers in spans:
// run_until slices, each Engine::step it drives, every Client API call and
// completion callback its op loops make, and each Scenario's construct /
// setup / run / finish / teardown. A span has a name, start, end, parent and a per-op
// id. Spans nest per thread; closing one charges its duration to the parent
// as child time, so every span name accumulates exact self time
// (duration minus the children it covers).
//
// Everything stays in memory while the run is measured. Each thread keeps its
// aggregates (count, self ns, log-linear histograms of duration and self
// time) for every span, plus the first kKeepPerThread raw records, which
// write_tsv() dumps after the run. Dark (the default), a Scope costs one
// branch on a global flag.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench::trace {

enum class Span : std::uint8_t {
  kRunSlice,          // one run_until slice (or the step loop standing in for it)
  kStep,              // one Engine::step
  kClientCall,        // synchronous part of a Client API call
  kClientCallback,    // a completion callback the benchmark handed to Client
  kScenarioConstruct,  // workload::Scenario constructor
  kScenarioSetup,      // Scenario::setup
  kScenarioRun,        // generators + run to the end of the workload window
  kScenarioFinish,     // Scenario::finish: settle + consistency checker
  kScenarioTeardown,   // Scenario destructor
  kCount,
};

inline constexpr std::array<const char*, static_cast<std::size_t>(Span::kCount)> kSpanNames = {
    "sim.run_slice",      "sim.step",       "client.call",  "client.callback",
    "scenario.construct", "scenario.setup", "scenario.run", "scenario.finish",
    "scenario.teardown"};

inline const char* name_of(Span s) { return kSpanNames[static_cast<std::size_t>(s)]; }

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// Log-linear histogram of nanosecond values: 16 sub-buckets per power of two
// (about 4% resolution), fixed size, no allocation on add().
class NsHist {
 public:
  static constexpr unsigned kSub = 16;
  static constexpr unsigned kBuckets = 64 * kSub;

  void add(std::uint64_t v) {
    ++counts_[index_of(v)];
    ++total_;
  }
  void merge(const NsHist& o) {
    for (unsigned i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }
  // Midpoint of the bucket holding the q-quantile; 0 when empty.
  [[nodiscard]] double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total_ - 1));
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen > rank) return midpoint(i);
    }
    return midpoint(kBuckets - 1);
  }

 private:
  static unsigned index_of(std::uint64_t v) {
    if (v < kSub) return static_cast<unsigned>(v);
    const unsigned msb = 63u - static_cast<unsigned>(__builtin_clzll(v));
    const unsigned shift = msb - 4;  // keep the top five bits: 1 + 4 sub-bucket bits
    const auto sub = static_cast<unsigned>((v >> shift) & (kSub - 1));
    return (shift + 1) * kSub + sub;
  }
  static double midpoint(unsigned i) {
    if (i < kSub) return static_cast<double>(i);
    const unsigned shift = i / kSub - 1;
    const unsigned sub = i % kSub;
    const double lo = static_cast<double>((std::uint64_t{kSub} + sub) << shift);
    return lo + static_cast<double>(std::uint64_t{1} << shift) / 2.0;
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_{0};
};

struct Record {
  std::uint64_t start_ns{0};
  std::uint64_t end_ns{0};
  std::uint32_t parent{UINT32_MAX};  // index into the same thread's records
  std::uint32_t thread{0};
  std::uint64_t op{0};
  Span name{Span::kRunSlice};
};

struct SpanStats {
  std::uint64_t count{0};
  std::uint64_t self_ns{0};
  NsHist dur;
  NsHist self;
  void merge(const SpanStats& o) {
    count += o.count;
    self_ns += o.self_ns;
    dur.merge(o.dur);
    self.merge(o.self);
  }
};

using Summary = std::array<SpanStats, static_cast<std::size_t>(Span::kCount)>;

// One thread's spans. Owned by the Tracer so it outlives worker threads.
class ThreadLog {
 public:
  static constexpr std::size_t kKeepPerThread = 20'000;

  explicit ThreadLog(std::uint32_t id) : id_(id) { records_.reserve(1024); }

  void open(Span name, std::uint64_t op) {
    Frame f;
    f.name = name;
    f.op = op;
    f.record = UINT32_MAX;
    if (records_.size() < kKeepPerThread) {
      f.record = static_cast<std::uint32_t>(records_.size());
      Record r;
      r.parent = stack_.empty() ? UINT32_MAX : stack_.back().record;
      r.thread = id_;
      r.op = op;
      r.name = name;
      records_.push_back(r);
    } else {
      ++dropped_;
    }
    f.start = now_ns();
    if (f.record != UINT32_MAX) records_[f.record].start_ns = f.start;
    stack_.push_back(f);
  }

  void close() {
    const std::uint64_t end = now_ns();
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = end - f.start;
    const std::uint64_t self = dur > f.child_ns ? dur - f.child_ns : 0;
    SpanStats& s = stats_[static_cast<std::size_t>(f.name)];
    ++s.count;
    s.self_ns += self;
    s.dur.add(dur);
    s.self.add(self);
    if (f.record != UINT32_MAX) records_[f.record].end_ns = end;
    if (!stack_.empty()) stack_.back().child_ns += dur;
  }

  [[nodiscard]] const Summary& stats() const { return stats_; }
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  struct Frame {
    Span name{Span::kRunSlice};
    std::uint64_t op{0};
    std::uint64_t start{0};
    std::uint64_t child_ns{0};
    std::uint32_t record{UINT32_MAX};
  };

  std::uint32_t id_;
  std::vector<Frame> stack_;
  std::vector<Record> records_;
  std::uint64_t dropped_{0};
  Summary stats_{};
};

// Process-wide tracer. enable()/disable() happen on the main thread while no
// simulation thread runs, and the flag is read by threads started afterwards
// (thread creation orders the write before those reads).
class Tracer {
 public:
  static Tracer& get() {
    static Tracer t;
    return t;
  }

  void enable() { on_ = true; }
  void disable() { on_ = false; }
  [[nodiscard]] bool on() const { return on_; }

  ThreadLog& log() {
    thread_local ThreadLog* mine = nullptr;
    thread_local std::uint64_t mine_gen = 0;
    if (mine == nullptr || mine_gen != gen_) {
      std::lock_guard<std::mutex> g(mu_);
      logs_.push_back(std::make_unique<ThreadLog>(static_cast<std::uint32_t>(logs_.size())));
      mine = logs_.back().get();
      mine_gen = gen_;
    }
    return *mine;
  }

  // Drops every log; later spans start fresh logs. Main thread, tracer dark.
  void reset() {
    std::lock_guard<std::mutex> g(mu_);
    logs_.clear();
    ++gen_;
  }

  [[nodiscard]] Summary summary() const {
    Summary out{};
    for (const auto& l : logs_) {
      for (std::size_t i = 0; i < out.size(); ++i) out[i].merge(l->stats()[i]);
    }
    return out;
  }

  // Writes the retained raw spans as TSV: thread, id, parent, name, op,
  // start_ns (relative to the earliest span), duration_ns.
  bool write_tsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::uint64_t t0 = UINT64_MAX;
    std::uint64_t dropped = 0;
    for (const auto& l : logs_) {
      dropped += l->dropped();
      for (const Record& r : l->records()) t0 = std::min(t0, r.start_ns);
    }
    std::fprintf(f, "# spans not retained (per-thread cap %zu): %llu\n", ThreadLog::kKeepPerThread,
                 static_cast<unsigned long long>(dropped));
    std::fprintf(f, "thread\tid\tparent\tname\top\tstart_ns\tdur_ns\n");
    for (const auto& l : logs_) {
      const auto& recs = l->records();
      for (std::size_t i = 0; i < recs.size(); ++i) {
        const Record& r = recs[i];
        std::fprintf(f, "%u\t%zu\t%lld\t%s\t%llu\t%llu\t%llu\n", r.thread, i,
                     r.parent == UINT32_MAX ? -1LL : static_cast<long long>(r.parent),
                     name_of(r.name), static_cast<unsigned long long>(r.op),
                     static_cast<unsigned long long>(r.start_ns - t0),
                     static_cast<unsigned long long>(r.end_ns - r.start_ns));
      }
    }
    return std::fclose(f) == 0;
  }

 private:
  Tracer() = default;
  bool on_{false};
  std::uint64_t gen_{1};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

// RAII span; a no-op while the tracer is dark.
class Scope {
 public:
  explicit Scope(Span name, std::uint64_t op = 0) {
    if (Tracer::get().on()) {
      log_ = &Tracer::get().log();
      log_->open(name, op);
    }
  }
  ~Scope() {
    if (log_ != nullptr) log_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  ThreadLog* log_{nullptr};
};

}  // namespace perfbench::trace
