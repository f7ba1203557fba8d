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
  mail_.resize(static_cast<std::size_t>(k) * k);
  merge_scratch_.resize(k);
  engine.set_exchange(this);
}

ShardedNet::~ShardedNet() {
  engine_->set_exchange(nullptr);
  // Traffic can die in a mailbox if the run ends with datagrams in flight;
  // donate the buffers like ~ControlNet does for its queues.
  for (auto& box : mail_) {
    for (CrossItem& it : box.items) recycle_buf(std::move(it.bytes));
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

void ShardedNet::deliver(unsigned dst_shard, sim::SimTime window_end) {
  const unsigned k = shard_count();
  auto& scratch = merge_scratch_[dst_shard].items;
  scratch.clear();
  for (unsigned src = 0; src < k; ++src) {
    if (src == dst_shard) continue;
    auto& box = mail_[src * k + dst_shard].items;
    for (CrossItem& it : box) scratch.push_back(std::move(it));
    box.clear();
  }
  if (scratch.empty()) return;
  // deliver() runs on dst_shard's owning worker, so the consumer-side count
  // lands in the consumer's own bank — same ownership rule as post().
  if (ctr_ != nullptr) ctr_->add_to(dst_shard, xshard_in_, scratch.size());
  // Deterministic cross-shard tie-break: co-timed arrivals drain in
  // (arrival time, source shard, source sequence) order regardless of
  // worker count. The injected items receive ascending local sequence
  // numbers, so the destination's (arrival, seq) drain sort preserves it.
  std::sort(scratch.begin(), scratch.end(), [](const CrossItem& a, const CrossItem& b) {
    if (a.at.ns != b.at.ns) return a.at.ns < b.at.ns;
    if (a.src_shard != b.src_shard) return a.src_shard < b.src_shard;
    return a.seq < b.seq;
  });
  ControlNet& net = *nets_[dst_shard];
  for (CrossItem& it : scratch) {
    // The conservative lookahead contract: an arrival may never land inside
    // (or before) the window its datagram was sent in. It may land exactly
    // on window_end (a zero-jitter send at the window's first instant): the
    // destination has run window_end's own events, and this one joins them
    // at the head of the next window.
    STANK_ASSERT_MSG(it.at >= window_end, "cross-shard arrival inside its own window");
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
