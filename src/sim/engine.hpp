// Discrete-event simulation engine.
//
// A single binary heap of (global time, sequence) ordered events. All node
// behaviour — message delivery, disk service, lease timers — runs inside
// events. Ties are broken by insertion order so runs are fully deterministic.
//
// Hot-path design: callbacks live in a generation-checked slot pool and are
// stored as small-buffer EventFn (no heap allocation for typical closures,
// no hashing anywhere). A TimerId encodes {slot, generation}, so cancel() is
// two array accesses. Cancelled heap entries become tombstones that are
// discarded lazily; when they outnumber the live entries the heap is
// compacted, which keeps queue memory O(live timers) under the
// schedule/cancel-heavy lease-renewal workload.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/time.hpp"

namespace stank::sim {

using TimerId = std::uint64_t;

class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  // Schedules fn at absolute global time t (>= now). Returns an id usable
  // with cancel().
  TimerId schedule_at(SimTime t, EventFn fn);
  TimerId schedule_after(Duration d, EventFn fn) {
    return schedule_at(now_ + d, std::move(fn));
  }

  // Cancels a pending event; a no-op if it already ran or was cancelled.
  // Returns true if the event was still pending.
  bool cancel(TimerId id);

  [[nodiscard]] bool pending(TimerId id) const {
    const std::uint32_t s = slot_of(id);
    return s < num_slots_ && slot(s).gen == gen_of(id);
  }

  // Executes the next event. Returns false if the queue is empty.
  bool step();

  // Runs events until the queue is empty, the horizon is passed, or stop()
  // is called. Events scheduled exactly at the horizon still run. An idle or
  // drained engine advances its clock to the horizon; a stopped one stays at
  // the time of the last executed event.
  void run_until(SimTime horizon);

  // Runs until the queue drains or the safety limit on executed events trips
  // (which aborts: a drained queue is the only legitimate way to finish).
  void run();

  // Requests that the current run_until()/run() return after the current
  // event completes.
  void stop() { stop_requested_ = true; }

  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::size_t events_pending() const { return live_; }

  // Sentinel for "no pending event".
  static constexpr SimTime kNever{INT64_MAX};

  // Time of the earliest live pending event, or kNever when the queue is
  // empty. Non-const: discards dead heap tops on the way, amortized by the
  // same tombstone accounting step() relies on. The sharded engine uses this
  // to skip idle windows deterministically.
  [[nodiscard]] SimTime next_event_time();

  // Heap entries currently held, live + tombstones. Compaction keeps this
  // O(live timers); exposed so tests can assert the bound.
  [[nodiscard]] std::size_t queue_depth() const { return heap_.size(); }

  // Safety valve against runaway event loops; default is generous.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }

  // Process-wide total of events executed by engines that have been
  // destroyed — the bench reporter's cross-scenario throughput counter.
  // Accumulated only in ~Engine, so it costs the hot path nothing.
  [[nodiscard]] static std::uint64_t global_events_executed();

  // Frees the slot chunks and heap arrays this thread's engines pooled (see
  // chunk_pool()), so a measurement starts from an empty cache.
  static void release_pools();

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  // A registered callback. `gen` changes whenever the slot is vacated, so a
  // stale TimerId or heap entry can never touch a reused slot. One slot per
  // cache line: firing an event touches exactly one line of the pool.
  struct alignas(64) Slot {
    EventFn fn;
    std::uint32_t gen{1};
    std::uint32_t next_free{kNoSlot};
  };
  static_assert(sizeof(Slot) == 64);

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  // Slots live in fixed-size chunks so their addresses are stable while the
  // pool grows — step() runs callbacks in place, and a callback scheduling
  // new events must not invalidate the slot it is running from.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  static TimerId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<TimerId>(gen) << 32) | slot;
  }
  static std::uint32_t slot_of(TimerId id) { return static_cast<std::uint32_t>(id); }
  static std::uint32_t gen_of(TimerId id) { return static_cast<std::uint32_t>(id >> 32); }

  static bool entry_before(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  [[nodiscard]] Slot& slot(std::uint32_t i) const {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }
  [[nodiscard]] bool entry_live(const Entry& e) const { return slot(e.slot).gen == e.gen; }

  // Thread-local recycling of the two bulk allocations — slot chunks and the
  // heap array — so back-to-back engines (fuzz episodes, bench sweeps) reuse
  // the previous engine's memory instead of re-growing from empty. Donated
  // chunks are scrubbed (callbacks destroyed, generations reset) in ~Engine,
  // off every hot path.
  static std::vector<std::unique_ptr<Slot[]>>& chunk_pool();
  static std::vector<std::vector<Entry>>& heap_pool();

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void discard_dead_top();  // pops tombstones off the heap top
  void compact();

  // 4-ary min-heap over heap_: half the depth of a binary heap and each
  // sibling scan stays within two cache lines, which is what the pop path is
  // bounded by at queue sizes the sweeps reach.
  void heap_push(const Entry& e);
  void heap_pop_top();
  void heap_sift_down(std::size_t hole, const Entry& e);

  SimTime now_{};
  std::uint64_t next_seq_{0};
  std::uint64_t executed_{0};
  std::uint64_t event_limit_{500'000'000};
  bool stop_requested_{false};

  std::vector<Entry> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t num_slots_{0};
  std::uint32_t free_head_{kNoSlot};
  std::size_t live_{0};
  std::size_t tombstones_{0};
};

}  // namespace stank::sim
