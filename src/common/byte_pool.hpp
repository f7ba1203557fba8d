// Thread-local recycled byte buffers.
//
// Every hot path that needs a transient Bytes — datagram encode, disk block
// payloads, read fan-in buffers, stamped workload blocks — takes a buffer
// whose capacity was recycled from an earlier one, so the steady state stops
// paying the allocator once the first episodes have warmed the pool. The
// pool is thread-local and process-lived: it deliberately survives net /
// engine / scenario teardown so back-to-back fuzz episodes and bench sweeps
// reuse the same memory instead of re-growing from empty.
//
// recycle_buf() clears the buffer, so callers must be completely done with
// the contents; a buffer that anything still references must NOT be
// recycled. Recycling is always optional — dropping a buffer on the floor
// is merely a missed reuse, never a leak.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/bytes.hpp"

namespace stank {

namespace pool_detail {

// Cap keeps a pathological burst (a 50k-client swarm tearing down) from
// pinning unbounded memory in the pool forever.
inline constexpr std::size_t kBufPoolCap = 4096;

inline std::vector<Bytes>& buf_pool() {
  thread_local std::vector<Bytes> pool;
  return pool;
}

}  // namespace pool_detail

// Returns an empty buffer, with recycled capacity when the pool has one.
[[nodiscard]] inline Bytes take_buf() {
  auto& pool = pool_detail::buf_pool();
  if (pool.empty()) return Bytes{};
  Bytes b = std::move(pool.back());
  pool.pop_back();
  return b;
}

// Frees every buffer pooled on this thread. For measurements that must not
// depend on what ran before them on the thread (bench_swarm's resident
// bytes per client).
inline void release_buf_pool() { std::vector<Bytes>().swap(pool_detail::buf_pool()); }

// Donates a buffer's capacity back to the pool (no-op for buffers that never
// allocated, or when the pool is full).
inline void recycle_buf(Bytes&& b) {
  auto& pool = pool_detail::buf_pool();
  if (b.capacity() == 0 || pool.size() >= pool_detail::kBufPoolCap) return;
  b.clear();
  pool.push_back(std::move(b));
}

}  // namespace stank
