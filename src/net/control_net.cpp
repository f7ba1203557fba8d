#include "net/control_net.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

#include "common/assert.hpp"
#include "common/byte_pool.hpp"
#include "net/sharded_net.hpp"

namespace stank::net {

namespace {

std::atomic<std::uint64_t> g_datagrams_sent{0};

}  // namespace

std::string NetStats::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "sent=%llu delivered=%llu drop[part=%llu rand=%llu burst=%llu detach=%llu] "
                "dup=%llu reorder=%llu bursts=%llu bytes=%llu",
                static_cast<unsigned long long>(sent), static_cast<unsigned long long>(delivered),
                static_cast<unsigned long long>(dropped_partition),
                static_cast<unsigned long long>(dropped_random),
                static_cast<unsigned long long>(dropped_burst),
                static_cast<unsigned long long>(dropped_detached),
                static_cast<unsigned long long>(duplicated),
                static_cast<unsigned long long>(reordered),
                static_cast<unsigned long long>(burst_episodes),
                static_cast<unsigned long long>(bytes));
  return buf;
}

ControlNet::ControlNet(sim::Engine& engine, sim::Rng rng, NetConfig cfg)
    : engine_(&engine), rng_(rng), cfg_(cfg) {}

ControlNet::~ControlNet() {
  g_datagrams_sent.fetch_add(stats_.sent, std::memory_order_relaxed);
  // Donate still-queued buffers: the engine may die with traffic in flight.
  for (auto& [node, q] : queues_) {
    for (Item& it : q.items) recycle_buf(std::move(it.bytes));
  }
}

std::uint64_t ControlNet::global_datagrams_sent() {
  return g_datagrams_sent.load(std::memory_order_relaxed);
}

void ControlNet::bind_shard(ShardedNet* owner, unsigned shard) {
  sharded_ = owner;
  shard_ = shard;
}

void ControlNet::attach(NodeId node, Receiver& receiver) {
  if (sharded_ != nullptr) sharded_->note_attach(node, shard_);
  receivers_[node] = &receiver;
}

void ControlNet::detach(NodeId node) { receivers_.erase(node); }

void ControlNet::send(NodeId from, NodeId to, Bytes datagram) {
  ++stats_.sent;
  stats_.bytes += datagram.size();

  if (!reach_.can_reach(from, to)) {
    ++stats_.dropped_partition;
    note_drop(from, to, obs::DropCause::kPartition);
    recycle_buf(std::move(datagram));
    return;
  }

  // Gilbert–Elliott burst loss: step the chain once per send, then apply the
  // bad-state loss. The chain steps even for packets independent loss would
  // later eat, so the burst pattern is a property of the channel, not of the
  // surviving traffic.
  if (cfg_.ge_good_to_bad > 0.0) {
    if (!ge_bad_) {
      if (rng_.bernoulli(cfg_.ge_good_to_bad)) {
        ge_bad_ = true;
        ++stats_.burst_episodes;
      }
    } else if (rng_.bernoulli(cfg_.ge_bad_to_good)) {
      ge_bad_ = false;
    }
    if (ge_bad_ && rng_.bernoulli(cfg_.burst_loss)) {
      ++stats_.dropped_burst;
      note_drop(from, to, obs::DropCause::kBurst);
      recycle_buf(std::move(datagram));
      return;
    }
  }

  if (cfg_.drop_probability > 0.0 && rng_.bernoulli(cfg_.drop_probability)) {
    ++stats_.dropped_random;
    note_drop(from, to, obs::DropCause::kRandom);
    recycle_buf(std::move(datagram));
    return;
  }

  // Duplication: geometric number of extra copies (a duplicated copy can
  // itself be duplicated, as in a routing loop), each with its own latency.
  while (cfg_.dup_probability > 0.0 && rng_.bernoulli(cfg_.dup_probability)) {
    ++stats_.duplicated;
    if (rec_ != nullptr) {
      rec_->record(engine_->now(), from, obs::EventKind::kNetDup, to.value());
    }
    Bytes copy = take_buf();
    copy.assign(datagram.begin(), datagram.end());
    enqueue_copy(from, to, std::move(copy));
  }
  enqueue_copy(from, to, std::move(datagram));
}

void ControlNet::note_drop(NodeId from, NodeId to, obs::DropCause cause) {
  if (rec_ != nullptr) {
    rec_->record(engine_->now(), from, obs::EventKind::kNetDrop, to.value(),
                 static_cast<std::uint64_t>(cause));
  }
}

void ControlNet::enqueue_copy(NodeId from, NodeId to, Bytes datagram) {
  sim::Duration delay = cfg_.latency;
  if (cfg_.jitter.ns > 0) {
    delay += sim::Duration{rng_.uniform_int(0, cfg_.jitter.ns)};
  }
  if (cfg_.reorder_probability > 0.0 && cfg_.reorder_spike.ns > 0 &&
      rng_.bernoulli(cfg_.reorder_probability)) {
    // An independent spike this copy alone suffers: everything sent after it
    // with the base delay arrives first.
    delay += sim::Duration{rng_.uniform_int(0, cfg_.reorder_spike.ns)};
    ++stats_.reordered;
    if (rec_ != nullptr) {
      rec_->record(engine_->now(), from, obs::EventKind::kNetReorder, to.value(),
                   static_cast<std::uint64_t>((delay - cfg_.latency).ns));
    }
  }

  const sim::SimTime at = engine_->now() + delay;
  if (sharded_ != nullptr) {
    // Route by the static placement directory; unplaced nodes fall back to
    // the local queue, where the drain drops them as detached — the same
    // fate a serial net gives a send to a node that never attached.
    const unsigned dst_shard = sharded_->owner_of(to, shard_);
    if (dst_shard != shard_) {
      sharded_->post(shard_, dst_shard,
                     ShardedNet::CrossItem{at, next_item_seq_++, shard_, from, to,
                                           std::move(datagram)});
      return;
    }
  }
  push(to, Item{at, next_item_seq_++, from, std::move(datagram)});
}

void ControlNet::inject(NodeId from, NodeId to, sim::SimTime at, Bytes datagram) {
  STANK_ASSERT_MSG(at >= engine_->now(), "cross-shard arrival in this shard's past");
  push(to, Item{at, next_item_seq_++, from, std::move(datagram)});
}

void ControlNet::push(NodeId to, Item item) {
  DestQueue& q = queues_[to];
  if (q.items.size() == kInlineItems && q.items.is_inline() && !spare_.is_inline()) {
    // About to spill: adopt the spare heap buffer instead of allocating one.
    for (Item& it : q.items) spare_.push_back(std::move(it));
    q.items = std::move(spare_);
  }
  const std::int64_t slot_ns = bucket_of(item.at);
  q.items.push_back(std::move(item));
  if (slot_ns < q.armed_ns) arm(q, to, slot_ns);
}

void ControlNet::arm(DestQueue& q, NodeId to, std::int64_t slot_ns) {
  if (q.armed_ns != kNotArmed) engine_->cancel(q.timer);
  q.armed_ns = slot_ns;
  q.timer = engine_->schedule_at(sim::SimTime{slot_ns}, [this, to]() { drain(to); });
}

void ControlNet::deliver(Item& item, NodeId to) {
  // Partition formed while in flight? Receiver crashed mid-batch? Checked
  // per packet, exactly as the unbatched fabric did at each delivery event.
  if (!reach_.can_reach(item.from, to)) {
    ++stats_.dropped_partition;
    note_drop(item.from, to, obs::DropCause::kPartition);
    recycle_buf(std::move(item.bytes));
    return;
  }
  // Re-found per packet: a receiver can detach nodes (crash handling) or
  // attach new ones.
  Receiver* const* r = receivers_.find(to);
  if (r == nullptr) {
    ++stats_.dropped_detached;
    note_drop(item.from, to, obs::DropCause::kDetached);
    recycle_buf(std::move(item.bytes));
    return;
  }
  ++stats_.delivered;
  (*r)->receive(item.from, item.bytes);
  recycle_buf(std::move(item.bytes));
}

void ControlNet::drain(NodeId to) {
  DestQueue* q = queues_.find(to);
  if (q == nullptr) return;
  q->armed_ns = kNotArmed;
  const std::int64_t now_ns = engine_->now().ns;

  // Request/response traffic drains one packet at a time; deliver it without
  // touching the scratch batch. (The queue itself must be emptied first: the
  // receiver can send to this destination and rehash queues_.)
  if (q->items.size() == 1 && q->items.begin()->at.ns <= now_ns) {
    Item item = std::move(*q->items.begin());
    q->items.clear();
    deliver(item, to);
    settle(to);
    return;
  }

  // Pull everything due into the scratch batch, compacting the remainder in
  // place. Any item with at <= now is due: its bucket edge is <= the edge
  // this timer fired at.
  drain_scratch_.clear();
  Item* keep = q->items.begin();
  for (Item* it = q->items.begin(); it != q->items.end(); ++it) {
    if (it->at.ns <= now_ns) {
      drain_scratch_.push_back(std::move(*it));
    } else {
      if (keep != it) *keep = std::move(*it);
      ++keep;
    }
  }
  q->items.erase(keep, q->items.end());

  // Exact historical delivery order within the batch. Request/response
  // traffic drains one packet at a time (nothing co-timed to sort); only
  // storm-style convergence pays for the ordering.
  if (drain_scratch_.size() > 1) {
    std::sort(drain_scratch_.begin(), drain_scratch_.end(), [](const Item& a, const Item& b) {
      if (a.at.ns != b.at.ns) return a.at.ns < b.at.ns;
      return a.seq < b.seq;
    });
  }

  for (Item& item : drain_scratch_) {
    deliver(item, to);
  }
  drain_scratch_.clear();

  settle(to);
}

void ControlNet::settle(NodeId to) {
  // Receivers may have sent (and armed) new traffic — even to this
  // destination — and any insert can rehash queues_, so re-find the queue.
  DestQueue* q = queues_.find(to);
  if (q == nullptr) return;
  if (q->items.empty()) {
    // Nothing queued means nothing armed: the drain disarmed the queue, and
    // a send to it since would have queued an item. The larger of a spilled
    // queue's buffer and the spare stays as the spare.
    if (q->items.capacity() > spare_.capacity()) spare_ = std::move(q->items);
    queues_.erase(to);
    return;
  }
  std::int64_t min_slot = kNotArmed;
  for (const Item& item : q->items) {
    min_slot = std::min(min_slot, bucket_of(item.at));
  }
  if (min_slot < q->armed_ns) arm(*q, to, min_slot);
}

}  // namespace stank::net
