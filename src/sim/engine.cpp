#include "sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <utility>

#include "common/assert.hpp"

namespace stank::sim {

namespace {
std::atomic<std::uint64_t> g_events_executed{0};

// Bounds on the per-thread storage pools: 256 slot chunks is 64k slots
// (~4MB), far above any tier-1 scenario's live-timer peak; 128 far blocks
// (~800KB) hold 32k far entries. Overflow simply frees.
constexpr std::size_t kMaxPooledChunks = 256;
constexpr std::size_t kMaxPooledHeaps = 2;
constexpr std::size_t kMaxPooledRings = 4;
constexpr std::size_t kMaxPooledFarBlocks = 128;

// A tier or bucket is swept once its dead entries outnumber its live ones,
// or at once when nothing in it is live; below the floor a partly dead one
// is left for the drain to drop.
constexpr std::size_t kSweepFloor = 64;
bool worth_sweeping(std::size_t dead, std::size_t count) {
  return dead == count || (dead * 2 > count && count > kSweepFloor);
}

// Heap vectors go back to the pool of their own kind, so a near heap never
// adopts a small overflow buffer and has to grow again.
template <typename V>
void adopt_pooled(std::vector<V>& pool, V& v) {
  if (!pool.empty()) {
    v = std::move(pool.back());
    pool.pop_back();
  }
}

template <typename V>
void donate_pooled(std::vector<V>& pool, V& v) {
  if (pool.size() < kMaxPooledHeaps && v.capacity() > 0) {
    v.clear();
    pool.push_back(std::move(v));
  }
}
}  // namespace

std::vector<std::unique_ptr<Engine::Slot[]>>& Engine::chunk_pool() {
  thread_local std::vector<std::unique_ptr<Slot[]>> pool;
  return pool;
}

std::vector<std::vector<Engine::Entry>>& Engine::heap_pool() {
  thread_local std::vector<std::vector<Entry>> pool;
  return pool;
}

std::vector<std::vector<Engine::Entry>>& Engine::overflow_pool() {
  thread_local std::vector<std::vector<Entry>> pool;
  return pool;
}

std::vector<std::unique_ptr<Engine::FarRing>>& Engine::ring_pool() {
  thread_local std::vector<std::unique_ptr<FarRing>> pool;
  return pool;
}

std::vector<std::unique_ptr<Engine::FarChunk[]>>& Engine::far_block_pool() {
  thread_local std::vector<std::unique_ptr<FarChunk[]>> pool;
  return pool;
}

Engine::Engine() {
  adopt_pooled(heap_pool(), heap_);
  adopt_pooled(overflow_pool(), overflow_);
  auto& rpool = ring_pool();
  if (!rpool.empty()) {
    ring_ = std::move(rpool.back());
    rpool.pop_back();
  } else {
    ring_ = std::make_unique<FarRing>();
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
  for (std::uint32_t b = 0; b < kRingBuckets; ++b) {
    if (ring_->buckets[b].count != 0) release_bucket(b);
  }
  auto& rpool = ring_pool();
  if (rpool.size() < kMaxPooledRings) rpool.push_back(std::move(ring_));
  auto& fpool = far_block_pool();
  for (auto& block : far_blocks_) {
    if (fpool.size() >= kMaxPooledFarBlocks) break;
    fpool.push_back(std::move(block));
  }
  donate_pooled(heap_pool(), heap_);
  donate_pooled(overflow_pool(), overflow_);
}

void Engine::release_pools() {
  std::vector<std::unique_ptr<Slot[]>>().swap(chunk_pool());
  std::vector<std::vector<Entry>>().swap(heap_pool());
  std::vector<std::vector<Entry>>().swap(overflow_pool());
  std::vector<std::unique_ptr<FarRing>>().swap(ring_pool());
  std::vector<std::unique_ptr<FarChunk[]>>().swap(far_block_pool());
}

std::uint64_t Engine::global_events_executed() {
  return g_events_executed.load(std::memory_order_relaxed);
}

std::size_t Engine::queue_bytes() const {
  return (heap_.capacity() + overflow_.capacity()) * sizeof(Entry) +
         sizeof(FarRing) + far_blocks_.size() * kFarBlockChunks * sizeof(FarChunk);
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
  ++s.gen;  // invalidates every outstanding TimerId / queue entry for the slot
  s.next_free = free_head_;
  free_head_ = idx;
  --live_;
}

// ---------------------------------------------------------------------------
// 4-ary heaps

void Engine::heap_push(std::vector<Entry>& h, const Entry& e) {
  std::size_t i = h.size();
  h.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!entry_before(e, h[parent])) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = e;
}

void Engine::heap_sift_down(std::vector<Entry>& h, std::size_t hole, const Entry& e) {
  const std::size_t n = h.size();
  for (;;) {
    const std::size_t first = 4 * hole + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (entry_before(h[c], h[best])) best = c;
    }
    if (!entry_before(h[best], e)) break;
    h[hole] = h[best];
    hole = best;
  }
  h[hole] = e;
}

void Engine::heap_pop_top(std::vector<Entry>& h) {
  const Entry last = h.back();
  h.pop_back();
  if (!h.empty()) {
    heap_sift_down(h, 0, last);
  }
}

// Bottom-up: O(n), and correct because every subtree below the last parent
// is already a heap of one.
void Engine::heapify(std::vector<Entry>& h) {
  if (h.size() < 2) return;
  for (std::size_t i = (h.size() - 2) / 4 + 1; i-- > 0;) {
    const Entry e = h[i];
    heap_sift_down(h, i, e);
  }
}

void Engine::sweep_heap(std::vector<Entry>& h) {
  std::erase_if(h, [this](const Entry& e) { return !entry_live(e); });
  heapify(h);
}

// ---------------------------------------------------------------------------
// Far tier

Engine::FarChunk* Engine::take_far_chunk() {
  if (far_free_ == nullptr) {
    auto& fpool = far_block_pool();
    if (!fpool.empty()) {
      far_blocks_.push_back(std::move(fpool.back()));
      fpool.pop_back();
    } else {
      far_blocks_.push_back(std::make_unique<FarChunk[]>(kFarBlockChunks));
    }
    FarChunk* block = far_blocks_.back().get();
    for (std::uint32_t i = 0; i < kFarBlockChunks; ++i) {
      block[i].next = far_free_;
      far_free_ = &block[i];
    }
  }
  FarChunk* c = far_free_;
  far_free_ = c->next;
  return c;
}

void Engine::far_push(std::uint64_t bucket, const Entry& e) {
  if (bucket - cur_bucket_ < kRingBuckets) {
    ring_append(static_cast<std::uint32_t>(bucket) & (kRingBuckets - 1), e);
  } else {
    slot(e.slot).next_free = kAtOverflow;
    heap_push(overflow_, e);
  }
}

void Engine::ring_append(std::uint32_t b, const Entry& e) {
  Bucket& bk = ring_->buckets[b];
  const std::uint32_t fill = bk.count % kFarChunkEntries;
  if (fill == 0) {
    FarChunk* c = take_far_chunk();
    c->next = nullptr;
    if (bk.tail != nullptr) {
      bk.tail->next = c;
    } else {
      bk.head = c;
      ring_->occupied[b >> 6] |= std::uint64_t{1} << (b & 63);
    }
    bk.tail = c;
  }
  bk.tail->entries[fill] = e;
  ++bk.count;
  ++far_entries_;
  slot(e.slot).next_free = b;
}

// Returns bucket b's chunks to the free list and empties it.
void Engine::release_bucket(std::uint32_t b) {
  Bucket& bk = ring_->buckets[b];
  bk.tail->next = far_free_;
  far_free_ = bk.head;
  far_entries_ -= bk.count;
  bk = Bucket{};
  ring_->occupied[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
}

// Calls f on every entry of a bucket, prefetching the slot lines the scan
// will test a few entries ahead: each test is otherwise a cache miss on a
// slot last touched when its timer was armed.
template <typename F>
void Engine::scan_bucket(const Bucket& bk, F&& f) {
  constexpr std::uint32_t kAhead = 8;
  std::uint32_t left = bk.count;
  for (FarChunk* c = bk.head; c != nullptr; c = c->next) {
    if (c->next != nullptr) {
      for (std::size_t off = 0; off < sizeof(FarChunk); off += 64) {
        __builtin_prefetch(reinterpret_cast<const char*>(c->next) + off);
      }
    }
    const std::uint32_t n = std::min(left, kFarChunkEntries);
    for (std::uint32_t i = 0; i < std::min(n, kAhead); ++i) {
      __builtin_prefetch(&slot(c->entries[i].slot), 1);
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      if (i + kAhead < n) __builtin_prefetch(&slot(c->entries[i + kAhead].slot), 1);
      f(c->entries[i]);
    }
    left -= n;
  }
}

void Engine::drain_bucket(std::uint32_t b) {
  scan_bucket(ring_->buckets[b], [this](const Entry& e) {
    Slot& s = slot(e.slot);
    if (s.gen == e.gen) {
      s.next_free = kAtNear;
      heap_.push_back(e);
    }
  });
  release_bucket(b);
}

// Compacts bucket b's live entries to the front of its chunk list, in
// place (the writer never passes the scan), and frees the chunks left over.
void Engine::sweep_bucket(std::uint32_t b) {
  Bucket& bk = ring_->buckets[b];
  if (bk.dead == bk.count) {
    release_bucket(b);
    return;
  }
  FarChunk* w = bk.head;
  std::uint32_t wi = 0;
  scan_bucket(bk, [&](const Entry& entry) {
    const Entry e = entry;
    if (!entry_live(e)) return;
    if (wi == kFarChunkEntries) {
      w = w->next;
      wi = 0;
    }
    w->entries[wi++] = e;
  });
  if (w != bk.tail) {
    bk.tail->next = far_free_;
    far_free_ = w->next;
    w->next = nullptr;
    bk.tail = w;
  }
  far_entries_ -= bk.dead;
  bk.count -= bk.dead;
  bk.dead = 0;
}

void Engine::note_dead(std::uint32_t where) {
  if (where == kAtNear) {
    if (worth_sweeping(++near_dead_, heap_.size())) {
      sweep_heap(heap_);
      near_dead_ = 0;
    }
  } else if (where == kAtOverflow) {
    if (worth_sweeping(++overflow_dead_, overflow_.size())) {
      sweep_heap(overflow_);
      overflow_dead_ = 0;
    }
  } else {
    Bucket& bk = ring_->buckets[where];
    if (worth_sweeping(++bk.dead, bk.count)) sweep_bucket(where);
  }
}

// Moves the earliest far bucket into the (empty) heap: the ring's next
// occupied bucket, or the overflow's first when the ring is empty. Overflow
// entries the new horizon reaches move into the ring first.
bool Engine::refill_near() {
  if (far_entries_ > 0) {
    const auto& occ = ring_->occupied;
    std::uint32_t i = static_cast<std::uint32_t>(cur_bucket_ + 1) & (kRingBuckets - 1);
    for (;;) {
      const std::uint64_t word = occ[i >> 6] >> (i & 63);
      if (word != 0) {
        const std::uint32_t pos = i + static_cast<std::uint32_t>(std::countr_zero(word));
        cur_bucket_ += (pos - cur_bucket_) & (kRingBuckets - 1);
        break;
      }
      i = ((i | 63) + 1) & (kRingBuckets - 1);
    }
  } else if (!overflow_.empty()) {
    cur_bucket_ = bucket_of(overflow_.front().at);
  } else {
    return false;
  }
  while (!overflow_.empty() && bucket_of(overflow_.front().at) - cur_bucket_ < kRingBuckets) {
    const Entry e = overflow_.front();
    heap_pop_top(overflow_);
    if (entry_live(e)) {
      ring_append(static_cast<std::uint32_t>(bucket_of(e.at)) & (kRingBuckets - 1), e);
    } else {
      --overflow_dead_;
    }
  }
  const std::uint32_t b = static_cast<std::uint32_t>(cur_bucket_) & (kRingBuckets - 1);
  if (ring_->buckets[b].count != 0) drain_bucket(b);
  heapify(heap_);
  return true;
}

// ---------------------------------------------------------------------------
// Schedule, cancel, run

TimerId Engine::schedule_at(SimTime t, EventFn fn) {
  STANK_ASSERT_MSG(t >= now_, "cannot schedule into the past");
  STANK_ASSERT(fn != nullptr);
  const std::uint32_t idx = acquire_slot();
  Slot& s = slot(idx);
  s.fn = std::move(fn);
  ++live_;
  const Entry e{t, next_seq_++, idx, s.gen};
  const std::uint64_t bucket = bucket_of(t);
  if (bucket <= cur_bucket_) {
    s.next_free = kAtNear;
    heap_push(heap_, e);
  } else {
    far_push(bucket, e);
  }
  return make_id(idx, s.gen);
}

bool Engine::cancel(TimerId id) {
  const std::uint32_t idx = slot_of(id);
  if (idx >= num_slots_ || slot(idx).gen != gen_of(id)) {
    return false;  // already ran, already cancelled, or never existed
  }
  const std::uint32_t where = slot(idx).next_free;
  release_slot(idx);
  note_dead(where);  // its queue entry is now dead; dropped lazily
  return true;
}

void Engine::discard_dead_top() {
  if (near_dead_ == 0) {
    return;  // nothing in the heap was cancelled: top must be live
  }
  while (!heap_.empty() && !entry_live(heap_.front())) {
    heap_pop_top(heap_);
    --near_dead_;
  }
}

bool Engine::settle_top() {
  for (;;) {
    discard_dead_top();
    if (!heap_.empty()) return true;
    if (!refill_near()) return false;
  }
}

SimTime Engine::next_event_time() {
  return settle_top() ? heap_.front().at : kNever;
}

void Engine::fire_top() {
  const Entry e = heap_.front();
  heap_pop_top(heap_);
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
}

bool Engine::step() {
  if (!settle_top()) {
    return false;
  }
  fire_top();
  return true;
}

void Engine::run_until(SimTime horizon) {
  stop_requested_ = false;
  while (!stop_requested_ && settle_top() && heap_.front().at <= horizon) {
    fire_top();
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
