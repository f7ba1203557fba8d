#include "sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/assert.hpp"

namespace stank::sim {

namespace {
std::atomic<std::uint64_t> g_events_executed{0};

// Bounds on the per-thread storage pools: 256 chunks is 64k slots (~4MB),
// far above any tier-1 scenario's live-timer peak; overflow simply frees.
constexpr std::size_t kMaxPooledChunks = 256;
constexpr std::size_t kMaxPooledHeaps = 2;
}  // namespace

std::vector<std::unique_ptr<Engine::Slot[]>>& Engine::chunk_pool() {
  thread_local std::vector<std::unique_ptr<Slot[]>> pool;
  return pool;
}

std::vector<std::vector<Engine::Entry>>& Engine::heap_pool() {
  thread_local std::vector<std::vector<Entry>> pool;
  return pool;
}

Engine::Engine() {
  auto& hpool = heap_pool();
  if (!hpool.empty()) {
    heap_ = std::move(hpool.back());
    hpool.pop_back();
  }
}

Engine::~Engine() {
  g_events_executed.fetch_add(executed_, std::memory_order_relaxed);
  auto& cpool = chunk_pool();
  for (auto& chunk : chunks_) {
    if (cpool.size() >= kMaxPooledChunks) break;
    for (std::uint32_t i = 0; i < kChunkSize; ++i) {
      chunk[i].fn.reset();
      chunk[i].gen = 1;
      chunk[i].next_free = kNoSlot;
    }
    cpool.push_back(std::move(chunk));
  }
  auto& hpool = heap_pool();
  if (hpool.size() < kMaxPooledHeaps && heap_.capacity() > 0) {
    heap_.clear();
    hpool.push_back(std::move(heap_));
  }
}

void Engine::release_pools() {
  std::vector<std::unique_ptr<Slot[]>>().swap(chunk_pool());
  std::vector<std::vector<Entry>>().swap(heap_pool());
}

std::uint64_t Engine::global_events_executed() {
  return g_events_executed.load(std::memory_order_relaxed);
}

std::uint32_t Engine::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t idx = free_head_;
    free_head_ = slot(idx).next_free;
    return idx;
  }
  STANK_ASSERT_MSG(num_slots_ < kNoSlot, "timer slot pool exhausted");
  if ((num_slots_ & (kChunkSize - 1)) == 0) {
    auto& cpool = chunk_pool();
    if (!cpool.empty()) {
      chunks_.push_back(std::move(cpool.back()));
      cpool.pop_back();
    } else {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
  }
  return num_slots_++;
}

void Engine::release_slot(std::uint32_t idx) {
  Slot& s = slot(idx);
  s.fn.reset();
  ++s.gen;  // invalidates every outstanding TimerId / heap entry for the slot
  s.next_free = free_head_;
  free_head_ = idx;
  --live_;
}

void Engine::heap_push(const Entry& e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!entry_before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Engine::heap_sift_down(std::size_t hole, const Entry& e) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * hole + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (entry_before(heap_[c], heap_[best])) best = c;
    }
    if (!entry_before(heap_[best], e)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = e;
}

void Engine::heap_pop_top() {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_sift_down(0, last);
  }
}

TimerId Engine::schedule_at(SimTime t, EventFn fn) {
  STANK_ASSERT_MSG(t >= now_, "cannot schedule into the past");
  STANK_ASSERT(fn != nullptr);
  const std::uint32_t idx = acquire_slot();
  Slot& s = slot(idx);
  s.fn = std::move(fn);
  ++live_;
  heap_push(Entry{t, next_seq_++, idx, s.gen});
  return make_id(idx, s.gen);
}

bool Engine::cancel(TimerId id) {
  const std::uint32_t idx = slot_of(id);
  if (idx >= num_slots_ || slot(idx).gen != gen_of(id)) {
    return false;  // already ran, already cancelled, or never existed
  }
  release_slot(idx);
  ++tombstones_;  // its heap entry is now dead; discarded lazily
  if (tombstones_ * 2 > heap_.size() && heap_.size() > 64) {
    compact();
  }
  return true;
}

void Engine::compact() {
  std::erase_if(heap_, [this](const Entry& e) { return !entry_live(e); });
  // Heapify bottom-up: O(n), and correct because every subtree below the
  // last parent is already a heap of one.
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) {
      const Entry e = heap_[i];
      heap_sift_down(i, e);
    }
  }
  tombstones_ = 0;
}

void Engine::discard_dead_top() {
  if (tombstones_ == 0) {
    return;  // nothing cancelled since the last compact: top must be live
  }
  while (!heap_.empty() && !entry_live(heap_.front())) {
    heap_pop_top();
    --tombstones_;
  }
}

SimTime Engine::next_event_time() {
  discard_dead_top();
  if (heap_.empty()) {
    return kNever;
  }
  return heap_.front().at;
}

bool Engine::step() {
  discard_dead_top();
  if (heap_.empty()) {
    return false;
  }
  const Entry e = heap_.front();
  heap_pop_top();
  STANK_ASSERT(e.at >= now_);
  now_ = e.at;
  Slot& s = slot(e.slot);
  // Invalidate the id before invoking so a self-cancel inside the callback is
  // a no-op, then run the callback IN PLACE: chunked slot storage is
  // pointer-stable, so events scheduled by the callback cannot move it. The
  // slot only joins the free list afterwards, so it cannot be reused from
  // under the running closure either.
  ++s.gen;
  --live_;
  ++executed_;
  STANK_ASSERT_MSG(executed_ <= event_limit_, "event limit exceeded: runaway simulation?");
  s.fn.consume();
  s.next_free = free_head_;
  free_head_ = e.slot;
  return true;
}

void Engine::run_until(SimTime horizon) {
  stop_requested_ = false;
  while (!stop_requested_) {
    discard_dead_top();
    if (heap_.empty() || heap_.front().at > horizon) {
      break;
    }
    step();
  }
  // An idle engine advances to the horizon; a stopped one stays at the time
  // of the last executed event.
  if (!stop_requested_ && now_ < horizon) {
    now_ = horizon;
  }
}

void Engine::run() {
  stop_requested_ = false;
  while (!stop_requested_ && step()) {
  }
}

}  // namespace stank::sim
