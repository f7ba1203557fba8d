// Global operator new/delete interposition with atomic call counters.
//
// Linked into every bench binary only. The replacements are deliberately
// boring — malloc/free plus a relaxed counter bump — so the measured cost is
// as close to the stock allocator as possible; the point is the COUNT, which
// the zero-allocation gates in bench_steady assert on, not the speed of the
// hooks themselves.
#include "alloc_hooks.hpp"

#include <execinfo.h>
#include <malloc.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};
std::atomic<bool> g_trap{false};
std::atomic<std::uint64_t> g_live{0};
std::atomic<std::uint64_t> g_high{0};

void note_alloc(void* p) {
  if (p == nullptr) return;
  const std::uint64_t n = malloc_usable_size(p);
  const std::uint64_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::uint64_t high = g_high.load(std::memory_order_relaxed);
  while (live > high &&
         !g_high.compare_exchange_weak(high, live, std::memory_order_relaxed)) {
  }
}

[[noreturn]] void trap_fire() {
  // Disarmed by the exchange in the caller, so the backtrace machinery's own
  // allocations cannot re-enter. Raw addresses are enough: resolve with
  // `addr2line -e <bench-binary>`.
  static const char msg[] = "alloc_hooks: trapped allocation, backtrace:\n";
  [[maybe_unused]] auto r = write(2, msg, sizeof(msg) - 1);
  void* frames[64];
  const int n = backtrace(frames, 64);
  backtrace_symbols_fd(frames, n, 2);
  std::abort();
}

void* counted_alloc(std::size_t size) {
  if (g_trap.exchange(false, std::memory_order_relaxed)) {
    trap_fire();
  }
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size != 0 ? size : 1);
  note_alloc(p);
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  if (g_trap.exchange(false, std::memory_order_relaxed)) {
    trap_fire();
  }
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (align < sizeof(void*)) align = sizeof(void*);
  if (posix_memalign(&p, align, size != 0 ? size : 1) != 0) {
    return nullptr;
  }
  note_alloc(p);
  return p;
}

void counted_free(void* p) noexcept {
  if (p != nullptr) {
    g_frees.fetch_add(1, std::memory_order_relaxed);
    g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
    std::free(p);
  }
}

}  // namespace

namespace stank::bench {

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }
std::uint64_t frees() { return g_frees.load(std::memory_order_relaxed); }
std::uint64_t live_bytes() { return g_live.load(std::memory_order_relaxed); }
std::uint64_t high_water_bytes() { return g_high.load(std::memory_order_relaxed); }
void reset_high_water() { g_high.store(live_bytes(), std::memory_order_relaxed); }
void trap_next_alloc(bool armed) { g_trap.store(armed, std::memory_order_relaxed); }

}  // namespace stank::bench

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  counted_free(p);
}
