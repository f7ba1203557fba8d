// Allocation-counting harness for the bench suite.
//
// alloc_hooks.cpp replaces the global operator new/delete with counting
// wrappers over malloc/free. It is compiled into every bench binary (see
// bench/CMakeLists.txt) but NOT into the libraries or tests, so production
// code is unaffected. Benches snapshot allocs() around their steady-state
// window and report the delta as an `allocs` entry in their JSON report
// line; bench_steady turns a non-zero delta into a hard failure. The live-byte
// counters give a bench the heap footprint of what it builds (bench_swarm's
// resident bytes per client).
#pragma once

#include <cstdint>

namespace stank::bench {

// Number of global operator new calls (all variants) since process start.
[[nodiscard]] std::uint64_t allocs();
// Number of global operator delete calls (all variants) since process start.
[[nodiscard]] std::uint64_t frees();

// Bytes currently held by live operator-new blocks, each counted at its
// malloc_usable_size (the block as the allocator sized it, not the request).
[[nodiscard]] std::uint64_t live_bytes();
// Highest live_bytes() since process start or the last reset_high_water().
[[nodiscard]] std::uint64_t high_water_bytes();
// Restarts the high-water mark from the current live_bytes().
void reset_high_water();

// Debugging aid: while armed, the very next operator new call aborts the
// process so a debugger/core dump shows the allocation site. Off by default.
void trap_next_alloc(bool armed);

}  // namespace stank::bench
