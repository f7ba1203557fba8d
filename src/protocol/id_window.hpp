// The at-most-once id window both transport directions keep: the last
// `limit` distinct message ids a session admitted, in arrival order. The
// server's reply cache is one per (client, epoch), each entry carrying the
// request's reply; the client keeps one for the server's pushed messages,
// ids only.
//
// One FIFO ring. A window that has admitted one id holds one entry: every
// client's epoch-0 server session sees only its first RegisterReq. The
// second id reserves all `limit` slots at once, so a live session makes one
// allocation instead of a doubling chain whose freed blocks stay resident.
// Once full, every further id recycles the oldest slot in place, and the
// steady-state path makes zero allocations.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/strong_id.hpp"

namespace stank::protocol {

// Entry is an aggregate whose first member is `MsgId id`; admit() builds
// one as Entry{id}.
template <class Entry>
class IdWindow {
 public:
  // The entry for `id`, or null if the window does not hold it.
  [[nodiscard]] Entry* find(MsgId id) {
    // An id above every admitted one was never seen: the common case (a
    // fresh message) misses without scanning.
    if (id.value() > max_id_) return nullptr;
    // Newest first: the id being answered, or retransmitted, is almost
    // always a recent one. Slots [0, oldest_) are newer than [oldest_, size).
    for (std::size_t i = oldest_; i-- > 0;) {
      if (ring_[i].id == id) return &ring_[i];
    }
    for (std::size_t i = ring_.size(); i-- > oldest_;) {
      if (ring_[i].id == id) return &ring_[i];
    }
    return nullptr;
  }

  // Admits an id the window does not hold, evicting the oldest once `limit`
  // ids are held. Returns the evicted id's value, 0 if none. A window of
  // limit 0 holds nothing: the id is evicted as it arrives.
  std::uint64_t admit(MsgId id, std::size_t limit) {
    if (limit == 0) return id.value();
    max_id_ = std::max(max_id_, id.value());
    if (ring_.size() < limit) {
      if (ring_.size() == 1) ring_.reserve(limit);
      ring_.push_back(Entry{id});
      return 0;
    }
    Entry& slot = ring_[oldest_];
    const std::uint64_t evicted = slot.id.value();
    slot = Entry{id};  // also frees the evicted entry's payload
    if (++oldest_ == ring_.size()) oldest_ = 0;
    return evicted;
  }

  // Slots the ring has room for, and the entries it holds (in no
  // particular order).
  [[nodiscard]] std::size_t capacity() const { return ring_.capacity(); }
  [[nodiscard]] std::span<const Entry> entries() const { return ring_; }

  // Forgets every id; the ring keeps its capacity.
  void clear() {
    ring_.clear();
    oldest_ = 0;
    max_id_ = 0;
  }

 private:
  std::vector<Entry> ring_;
  std::uint32_t oldest_{0};  // next slot to recycle once the ring is full
  std::uint64_t max_id_{0};  // highest id ever admitted
};

}  // namespace stank::protocol
