// Event callback for the simulation engine.
//
// The engine schedules millions of short-lived closures per simulated run —
// message deliveries, disk completions, lease timers. std::function heap
// allocates for anything larger than two pointers, which put an allocator
// round-trip on every scheduled event. EventFn is a MoveFn with a 48-byte
// inline buffer (enough for a this-pointer, a couple of ids and a moved Bytes
// vector): move-only, so move-only captures work and nothing is ever copied,
// and consume() fires and destroys an event in one indirect call.
#pragma once

#include "common/move_fn.hpp"

namespace stank::sim {

using EventFn = MoveFn<void(), 48>;

}  // namespace stank::sim
