// Shard-aware counter/gauge registry for the parallel runtime.
//
// The flight recorder (recorder.hpp) sees per-node protocol events; this
// registry sees the parallel engine itself — progress waits, mailbox depths,
// sub-window load, idle skips. Requirements that shaped it:
//
//   * Data-path cost: a plain u64 add into a shard-private, cache-line-
//     aligned bank. Zero atomics, zero allocation, zero branches beyond the
//     owner's single `if (ctr_ != nullptr)` dark gate.
//   * Thread safety by construction, not by locking: shard s's bank is only
//     ever written by the worker that owns shard s during a sub-window.
//     Reads from other threads happen exclusively at quiescent points (at
//     an engine snapshot, with every other worker parked, or after the
//     parallel_for join), where the engine's progress counters (release
//     store, acquire load) or the join provide the happens-before.
//   * Determinism: the registry observes; it never schedules engine events
//     and never draws randomness, so an armed run executes the exact same
//     event sequence as a dark one (the digest tests pin this).
//
// Lifecycle: register every counter (add/add_hist), then freeze(shards) —
// one aligned allocation for all banks — then increment. Registration after
// freeze is a programming error and asserts.
//
// Histograms are kHistBuckets consecutive slots per bank holding log2-bucket
// counts (bucket b counts values in [2^(b-1), 2^b), bucket 0 counts zero).
// Good enough for p50/p99 of progress wait times without a float in sight.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "obs/recorder.hpp"

namespace stank::obs {

class Counters {
 public:
  // How per-shard slots combine into one fleet-wide value.
  enum class Merge : std::uint8_t {
    kSum,  // volumes and totals
    kMax,  // high-water marks and gauges
  };

  struct Id {
    std::uint32_t slot{UINT32_MAX};
    [[nodiscard]] bool valid() const { return slot != UINT32_MAX; }
  };
  struct HistId {
    std::uint32_t base{UINT32_MAX};
    [[nodiscard]] bool valid() const { return base != UINT32_MAX; }
  };

  static constexpr std::size_t kHistBuckets = 32;

  Counters() = default;
  Counters(const Counters&) = delete;
  Counters& operator=(const Counters&) = delete;

  // -- registration (before freeze) ----------------------------------------
  Id add(std::string name, Merge merge = Merge::kSum) {
    STANK_ASSERT_MSG(!frozen(), "register counters before freeze()");
    const Id id{slots_used_};
    defs_.push_back(Def{std::move(name), merge, slots_used_, 1});
    slots_used_ += 1;
    return id;
  }

  HistId add_hist(std::string name) {
    STANK_ASSERT_MSG(!frozen(), "register counters before freeze()");
    const HistId id{slots_used_};
    defs_.push_back(Def{std::move(name), Merge::kSum, slots_used_,
                        static_cast<std::uint32_t>(kHistBuckets)});
    slots_used_ += static_cast<std::uint32_t>(kHistBuckets);
    return id;
  }

  // Allocates one zeroed bank per shard, each starting on its own cache
  // line. The only allocation the registry ever performs.
  void freeze(unsigned shards) {
    STANK_ASSERT_MSG(!frozen(), "freeze() is one-shot");
    STANK_ASSERT_MSG(shards >= 1, "need at least one shard");
    shards_ = shards;
    stride_ = ((slots_used_ + kLineSlots - 1) / kLineSlots) * kLineSlots;
    if (stride_ == 0) stride_ = kLineSlots;
    raw_.assign(stride_ * shards + kLineSlots, 0);
    const auto addr = reinterpret_cast<std::uintptr_t>(raw_.data());
    const std::uintptr_t misaligned = addr % 64;
    base_ = raw_.data() + (misaligned == 0 ? 0 : (64 - misaligned) / sizeof(std::uint64_t));
  }

  [[nodiscard]] bool frozen() const { return base_ != nullptr; }
  [[nodiscard]] unsigned shard_count() const { return shards_; }

  // -- data path (shard-owner thread only) ---------------------------------
  void add_to(unsigned shard, Id id, std::uint64_t v = 1) { bank(shard)[id.slot] += v; }

  void gauge_max(unsigned shard, Id id, std::uint64_t v) {
    std::uint64_t& s = bank(shard)[id.slot];
    if (v > s) s = v;
  }

  void record_hist(unsigned shard, HistId h, std::uint64_t value) {
    bank(shard)[h.base + bucket_of(value)] += 1;
  }

  // Bulk-folds externally bucketed counts (the sharded engine's per-worker
  // WaitStats use the same log2 bucketing) into a histogram's bank.
  void add_hist_count(unsigned shard, HistId h, unsigned bucket, std::uint64_t n) {
    bank(shard)[h.base + bucket] += n;
  }

  // -- control path (snapshot or post-join only) ---------------------------
  [[nodiscard]] std::uint64_t value(unsigned shard, Id id) const {
    return bank(shard)[id.slot];
  }

  [[nodiscard]] std::uint64_t merged(Id id) const {
    const Def& d = def_of(id.slot);
    std::uint64_t acc = bank(0)[id.slot];
    for (unsigned s = 1; s < shards_; ++s) acc = merge2(d.merge, acc, bank(s)[id.slot]);
    return acc;
  }

  [[nodiscard]] static std::uint64_t merge2(Merge m, std::uint64_t a, std::uint64_t b) {
    return m == Merge::kSum ? a + b : (a > b ? a : b);
  }

  [[nodiscard]] std::uint64_t hist_count(HistId h) const {
    std::uint64_t n = 0;
    for (unsigned s = 0; s < shards_; ++s) {
      for (std::size_t b = 0; b < kHistBuckets; ++b) n += bank(s)[h.base + b];
    }
    return n;
  }

  // Quantile estimate over the merged log2 buckets: returns the midpoint of
  // the bucket holding rank q*total (upper bound for bucket 0 = 0). Exact
  // enough for a p50/p99 wait-time column; the buckets are the resolution.
  [[nodiscard]] std::uint64_t hist_quantile(HistId h, double q) const {
    std::uint64_t buckets[kHistBuckets] = {};
    std::uint64_t total = 0;
    for (unsigned s = 0; s < shards_; ++s) {
      for (std::size_t b = 0; b < kHistBuckets; ++b) {
        buckets[b] += bank(s)[h.base + b];
        total += bank(s)[h.base + b];
      }
    }
    if (total == 0) return 0;
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total - 1));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      seen += buckets[b];
      if (seen > rank) return bucket_mid(b);
    }
    return bucket_mid(kHistBuckets - 1);
  }

  // Zeroes every slot; banks and definitions survive. Control path.
  void reset() {
    for (auto& v : raw_) v = 0;
  }

  // Appends one series point per (scalar definition, shard) to the
  // recorder — "ctr/<name>/s<k>" — plus the merged value as "ctr/<name>",
  // and p50/p99 points for histogram definitions. This is how counters ride
  // the existing trace format: no new binary sections, and the Chrome
  // exporter's series -> counter-track path turns each per-shard series
  // into its own Perfetto counter track for free. Control path only.
  void emit_series(Recorder& rec, double t_s) const {
    for (const Def& d : defs_) {
      if (d.slots == kHistBuckets) {
        const HistId h{d.slot};
        rec.sample("ctr/" + d.name + "/p50", t_s,
                   static_cast<double>(hist_quantile(h, 0.50)));
        rec.sample("ctr/" + d.name + "/p99", t_s,
                   static_cast<double>(hist_quantile(h, 0.99)));
        continue;
      }
      const Id id{d.slot};
      for (unsigned s = 0; s < shards_; ++s) {
        rec.sample("ctr/" + d.name + "/s" + std::to_string(s), t_s,
                   static_cast<double>(value(s, id)));
      }
      rec.sample("ctr/" + d.name, t_s, static_cast<double>(merged(id)));
    }
  }

  // Name lookup for tools/tests; linear scan, control path.
  [[nodiscard]] Id find(const std::string& name) const {
    for (const Def& d : defs_) {
      if (d.slots == 1 && d.name == name) return Id{d.slot};
    }
    return Id{};
  }
  [[nodiscard]] HistId find_hist(const std::string& name) const {
    for (const Def& d : defs_) {
      if (d.slots == kHistBuckets && d.name == name) return HistId{d.slot};
    }
    return HistId{};
  }

  [[nodiscard]] static unsigned bucket_of(std::uint64_t v) {
    const unsigned width = static_cast<unsigned>(std::bit_width(v));
    return width < kHistBuckets ? width : kHistBuckets - 1;
  }

  [[nodiscard]] static std::uint64_t bucket_mid(std::size_t b) {
    if (b == 0) return 0;
    const std::uint64_t lo = std::uint64_t{1} << (b - 1);
    return lo + lo / 2;
  }

 private:
  static constexpr std::size_t kLineSlots = 64 / sizeof(std::uint64_t);

  struct Def {
    std::string name;
    Merge merge;
    std::uint32_t slot;
    std::uint32_t slots;  // 1 scalar, kHistBuckets histogram
  };

  [[nodiscard]] std::uint64_t* bank(unsigned shard) {
    return base_ + static_cast<std::size_t>(shard) * stride_;
  }
  [[nodiscard]] const std::uint64_t* bank(unsigned shard) const {
    return base_ + static_cast<std::size_t>(shard) * stride_;
  }

  [[nodiscard]] const Def& def_of(std::uint32_t slot) const {
    for (const Def& d : defs_) {
      if (slot >= d.slot && slot < d.slot + d.slots) return d;
    }
    STANK_ASSERT_MSG(false, "unknown counter slot");
    return defs_.front();
  }

  std::vector<Def> defs_;
  std::uint32_t slots_used_{0};
  std::vector<std::uint64_t> raw_;  // over-allocated; base_ is 64B-aligned
  std::uint64_t* base_{nullptr};
  std::size_t stride_{0};  // slots per bank, rounded to a cache line
  unsigned shards_{0};
};

}  // namespace stank::obs
