#include "net/sharded_net.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/byte_pool.hpp"

namespace stank::net {

ShardedNet::ShardedNet(sim::ShardedEngine& engine, sim::Rng root, NetConfig cfg)
    : engine_(&engine) {
  const unsigned k = engine.shard_count();
  nets_.reserve(k);
  for (unsigned s = 0; s < k; ++s) {
    nets_.push_back(std::make_unique<ControlNet>(engine.shard(s), root.fork(s + 1), cfg));
    nets_.back()->bind_shard(this, s);
  }
  mail_.resize(static_cast<std::size_t>(k) * k * kSlots);
  producer_.resize(k);
  merge_scratch_.resize(k);
  engine.set_exchange(this);
}

ShardedNet::~ShardedNet() {
  engine_->set_exchange(nullptr);
  // Traffic can die in a mailbox if the run ends with datagrams in flight;
  // donate the buffers like ~ControlNet does for its queues.
  for (Mailbox& slot : mail_) {
    for (CrossItem& it : slot.items) recycle_buf(std::move(it.bytes));
  }
}

void ShardedNet::place(NodeId node, unsigned shard) {
  STANK_ASSERT(shard < shard_count());
  std::uint32_t* existing = directory_.find(node);
  if (existing != nullptr) {
    STANK_ASSERT_MSG(*existing == shard, "node re-placed on a different shard");
    return;
  }
  directory_[node] = shard;
}

void ShardedNet::note_attach(NodeId node, unsigned shard) {
  if (shard_count() == 1) return;  // no directory needed, no cross traffic
  // The directory must be immutable during the run (it is read lock-free by
  // every shard), so mid-run attach — client start(), crash/restart — is
  // only legal for nodes placed up front.
  const std::uint32_t* s = directory_.find(node);
  STANK_ASSERT_MSG(s != nullptr && *s == shard,
                   "sharded run: place() every node on its shard before running");
}

void ShardedNet::set_counters(obs::Counters* c) {
  ctr_ = c;
  if (c == nullptr) return;
  const unsigned k = shard_count();
  xshard_to_.clear();
  xshard_to_.reserve(k);
  for (unsigned d = 0; d < k; ++d) {
    xshard_to_.push_back(c->add("net.xshard_to_s" + std::to_string(d)));
  }
  xshard_bytes_ = c->add("net.xshard_bytes");
  xshard_in_ = c->add("net.xshard_in");
  mail_hw_ = c->add("net.mailbox_hw", obs::Counters::Merge::kMax);
}

void ShardedNet::open(unsigned shard, std::uint64_t sub, sim::SimTime start) {
  Producer& p = producer_[shard];
  p.slot = static_cast<unsigned>(sub % kSlots);
  p.posted_min_ns = sim::Engine::kNever.ns;
  if (sub >= 2) take_in(shard, static_cast<unsigned>((sub - 2) % kSlots), 1, start);
}

void ShardedNet::flush(sim::SimTime now) {
  for (unsigned dst = 0; dst < shard_count(); ++dst) take_in(dst, 0, kSlots, now);
}

void ShardedNet::take_in(unsigned dst, unsigned first_slot, unsigned slots,
                         sim::SimTime not_before) {
  const unsigned k = shard_count();
  auto& scratch = merge_scratch_[dst].items;
  scratch.clear();
  for (unsigned src = 0; src < k; ++src) {
    if (src == dst) continue;
    for (unsigned i = 0; i < slots; ++i) {
      auto& items = box(src, dst, (first_slot + i) % kSlots).items;
      for (CrossItem& it : items) scratch.push_back(std::move(it));
      items.clear();
    }
  }
  if (scratch.empty()) return;
  // take_in() runs on dst's owning worker (or with no worker running), so
  // the consumer-side count lands in the consumer's own bank — same
  // ownership rule as post().
  if (ctr_ != nullptr) ctr_->add_to(dst, xshard_in_, scratch.size());
  // Deterministic cross-shard tie-break: co-timed arrivals drain in
  // (arrival time, source shard, source sequence) order regardless of
  // worker count. The injected items receive ascending local sequence
  // numbers, so the destination's (arrival, seq) drain sort preserves it.
  std::sort(scratch.begin(), scratch.end(), [](const CrossItem& a, const CrossItem& b) {
    if (a.at.ns != b.at.ns) return a.at.ns < b.at.ns;
    if (a.src_shard != b.src_shard) return a.src_shard < b.src_shard;
    return a.seq < b.seq;
  });
  ControlNet& net = *nets_[dst];
  for (CrossItem& it : scratch) {
    // The conservative lookahead contract: a datagram sent in sub-window m
    // arrives at or after start(m) + L ≥ start(m+2), the sub-window that
    // takes it in. It may land exactly on that edge (a zero-jitter send at
    // start(m)): the destination has run the edge's own events, and this
    // one joins them at the head of the sub-window.
    STANK_ASSERT_MSG(it.at >= not_before, "cross-shard arrival before the sub-window taking it in");
    net.inject(it.from, it.to, it.at, std::move(it.bytes));
  }
  scratch.clear();
}

NetStats ShardedNet::stats() const {
  NetStats total;
  for (const auto& n : nets_) {
    const NetStats& s = n->stats();
    total.sent += s.sent;
    total.delivered += s.delivered;
    total.dropped_partition += s.dropped_partition;
    total.dropped_random += s.dropped_random;
    total.dropped_burst += s.dropped_burst;
    total.dropped_detached += s.dropped_detached;
    total.duplicated += s.duplicated;
    total.reordered += s.reordered;
    total.burst_episodes += s.burst_episodes;
    total.bytes += s.bytes;
  }
  return total;
}

void ShardedNet::set_config(const NetConfig& cfg) {
  for (auto& n : nets_) n->set_config(cfg);
}

}  // namespace stank::net
