// Discrete-event simulation engine.
//
// Events run in (global time, sequence) order; ties are broken by insertion
// order, so runs are fully deterministic. All node behaviour — message
// delivery, disk service, lease timers — runs inside events.
//
// Hot-path design: callbacks live in a generation-checked slot pool and are
// stored as small-buffer EventFn (no heap allocation for typical closures,
// no hashing anywhere). A TimerId encodes {slot, generation}, so cancel() is
// two array accesses.
//
// The queue has two tiers. Nearly every timer the protocol arms is far in
// the future and is cancelled before it fires (a 500 ms retransmit timer per
// request, a lease timer re-armed on every ACK), while the events that do
// fire are mostly a few hundred microseconds out. So:
//  * the near tier is a 4-ary heap holding only events in time buckets the
//    frontier has reached (bucket <= cur_bucket_);
//  * the far tier is a ring of kRingBuckets coarse buckets, each an unsorted
//    list of pooled fixed-size chunks that an insert appends to. A bucket
//    moves into the heap, cancelled entries dropped, only when the heap runs
//    dry, which is when the heap's earliest entry would reach it. Entries
//    beyond the ring's horizon wait in a small overflow heap.
// Every far entry is later than every near entry, so the heap still pops in
// exact (time, seq) order. Cancelled entries stay where they sit as dead
// entries; the slot of a pending event records which tier and bucket holds
// it, so cancel() counts the dead entry there, and a tier or bucket whose
// dead entries outnumber its live ones is swept on its own. Queue memory is
// thus O(live timers) with no pass over the whole queue.
#pragma once

#include <array>
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
  // empty. Non-const: discards dead heap tops and, when the heap runs dry,
  // moves the next far bucket into it — work step() would do anyway. The
  // sharded engine uses this to skip idle windows deterministically.
  [[nodiscard]] SimTime next_event_time();

  // Queue entries currently held in all tiers, live + dead. Sweeping keeps
  // this O(live timers); exposed so tests can assert the bound.
  [[nodiscard]] std::size_t queue_depth() const {
    return heap_.size() + far_entries_ + overflow_.size();
  }
  // The near tier's share of queue_depth(): the entries in the heap, which
  // holds only the bucket the frontier has reached.
  [[nodiscard]] std::size_t near_queue_depth() const { return heap_.size(); }

  // Bytes the queue holds: heap and overflow capacity, the far ring and
  // every far block this engine owns (chunks in buckets or free). The
  // slot pool is not included.
  [[nodiscard]] std::size_t queue_bytes() const;

  // Safety valve against runaway event loops; default is generous.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }

  // Process-wide total of events executed by engines that have been
  // destroyed — the bench reporter's cross-scenario throughput counter.
  // Accumulated only in ~Engine, so it costs the hot path nothing.
  [[nodiscard]] static std::uint64_t global_events_executed();

  // Frees the slot chunks, heap arrays, far rings and far blocks this
  // thread's engines pooled, so a measurement starts from an empty cache.
  static void release_pools();

  // Far-tier geometry (DESIGN §4): 2^23 ns ≈ 8.4 ms buckets, 1,024 of them,
  // so the ring reaches ≈ 8.6 s ahead — past the default lease's phase-2
  // (5 s), phase-3 and phase-4 boundaries. Only the server's τ(1+ε) wait
  // and similar rare timers reach the overflow heap. A bucket's entries
  // live in 16-entry chunks.
  static constexpr unsigned kBucketShift = 23;
  static constexpr std::uint32_t kRingBuckets = 1024;
  static constexpr std::uint32_t kFarChunkEntries = 16;

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  // A registered callback. `gen` changes whenever the slot is vacated, so a
  // stale TimerId or queue entry can never touch a reused slot. While the
  // slot is free, `next_free` links the free list; while it is pending, it
  // says where the entry sits: kAtNear, kAtOverflow or a ring bucket index.
  // One slot per cache line: firing an event touches exactly one line of
  // the pool.
  struct alignas(64) Slot {
    EventFn fn;
    std::uint32_t gen{1};
    std::uint32_t next_free{kNoSlot};
  };
  static_assert(sizeof(Slot) == 64);

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  static constexpr std::uint32_t kAtNear = kNoSlot - 1;
  static constexpr std::uint32_t kAtOverflow = kNoSlot - 2;
  static_assert(kRingBuckets % 64 == 0 && (kRingBuckets & (kRingBuckets - 1)) == 0);
  // Slots live in fixed-size chunks so their addresses are stable while the
  // pool grows — step() runs callbacks in place, and a callback scheduling
  // new events must not invalidate the slot it is running from.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  // Far-tier storage. A bucket's chunks are all full except its tail, so
  // the tail's fill follows from `count`. Chunks are carved from blocks of
  // kFarBlockChunks, which the engine owns and pools whole, so pooled far
  // storage is a few large blocks, not thousands of small ones scattered
  // through the allocator's heap.
  static constexpr std::uint32_t kFarBlockChunks = 16;
  struct FarChunk {
    FarChunk* next{nullptr};
    std::array<Entry, kFarChunkEntries> entries;
  };
  struct Bucket {
    FarChunk* head{nullptr};
    FarChunk* tail{nullptr};
    std::uint32_t count{0};  // entries held, live + dead
    std::uint32_t dead{0};
  };
  struct FarRing {
    std::array<Bucket, kRingBuckets> buckets{};
    std::array<std::uint64_t, kRingBuckets / 64> occupied{};  // bit set iff count > 0
  };

  static TimerId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<TimerId>(gen) << 32) | slot;
  }
  static std::uint32_t slot_of(TimerId id) { return static_cast<std::uint32_t>(id); }
  static std::uint32_t gen_of(TimerId id) { return static_cast<std::uint32_t>(id >> 32); }
  static std::uint64_t bucket_of(SimTime t) {
    return static_cast<std::uint64_t>(t.ns) >> kBucketShift;
  }

  static bool entry_before(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  [[nodiscard]] Slot& slot(std::uint32_t i) const {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }
  [[nodiscard]] bool entry_live(const Entry& e) const { return slot(e.slot).gen == e.gen; }

  // Thread-local recycling of the bulk allocations — slot chunks, near and
  // overflow heap arrays, far rings and far blocks — so back-to-back engines (fuzz
  // episodes, bench sweeps) reuse the previous engine's memory instead of
  // re-growing from empty. Donated memory is scrubbed (callbacks destroyed,
  // generations and buckets reset) in ~Engine, off every hot path.
  static std::vector<std::unique_ptr<Slot[]>>& chunk_pool();
  static std::vector<std::vector<Entry>>& heap_pool();
  static std::vector<std::vector<Entry>>& overflow_pool();
  static std::vector<std::unique_ptr<FarRing>>& ring_pool();
  static std::vector<std::unique_ptr<FarChunk[]>>& far_block_pool();

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  // Makes heap_.front() the earliest live entry, refilling the heap from
  // the far tiers as it runs dry. False when nothing is pending.
  bool settle_top();
  void discard_dead_top();  // pops dead entries off the heap top
  bool refill_near();
  void fire_top();

  void far_push(std::uint64_t bucket, const Entry& e);
  void ring_append(std::uint32_t b, const Entry& e);
  template <typename F>
  void scan_bucket(const Bucket& bk, F&& f);
  void drain_bucket(std::uint32_t b);
  // Counts a cancelled entry where it sits, sweeping that tier or bucket
  // once its dead entries outnumber its live ones.
  void note_dead(std::uint32_t where);
  void sweep_bucket(std::uint32_t b);
  void release_bucket(std::uint32_t b);
  FarChunk* take_far_chunk();

  // 4-ary min-heaps (the near tier and the overflow): half the depth of a
  // binary heap and each sibling scan stays within two cache lines, which is
  // what the pop path is bounded by.
  static void heap_push(std::vector<Entry>& h, const Entry& e);
  static void heap_pop_top(std::vector<Entry>& h);
  static void heap_sift_down(std::vector<Entry>& h, std::size_t hole, const Entry& e);
  static void heapify(std::vector<Entry>& h);
  // Drops h's dead entries and restores the heap order.
  void sweep_heap(std::vector<Entry>& h);

  SimTime now_{};
  std::uint64_t next_seq_{0};
  std::uint64_t executed_{0};
  std::uint64_t event_limit_{500'000'000};
  bool stop_requested_{false};

  std::vector<Entry> heap_;
  std::size_t near_dead_{0};
  // Every entry in heap_ lies in a bucket <= cur_bucket_; every far entry
  // lies beyond it, in the ring when less than kRingBuckets ahead.
  std::uint64_t cur_bucket_{0};
  std::unique_ptr<FarRing> ring_;
  std::size_t far_entries_{0};
  FarChunk* far_free_{nullptr};
  // The blocks far chunks are carved from; free chunks are linked through
  // far_free_.
  std::vector<std::unique_ptr<FarChunk[]>> far_blocks_;
  std::vector<Entry> overflow_;
  std::size_t overflow_dead_{0};

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t num_slots_{0};
  std::uint32_t free_head_{kNoSlot};
  std::size_t live_{0};
};

}  // namespace stank::sim
