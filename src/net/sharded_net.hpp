// The sharded control fabric: one ControlNet per shard of a ShardedEngine,
// stitched together with per-(source shard, destination shard) SPSC
// mailboxes exchanged at window barriers.
//
// Node ownership is static: every node is place()d on exactly one shard
// before the run and attaches to that shard's ControlNet. A send whose
// destination lives on the sender's shard takes the ordinary serial path; a
// cross-shard send performs ALL of its random draws (partition check, GE
// chain, loss, duplication, latency, jitter, reorder spike) on the sender's
// shard at send time — so each shard's RNG stream is a pure function of that
// shard's execution — and posts {arrival time, seq, from, to, bytes} into
// the mailbox for the destination shard. Mailboxes are lock-free: each is
// written by exactly one producer shard during the window and drained by
// exactly one consumer shard at the barrier, with the barrier itself
// providing the happens-before edge (see rt/barrier.hpp).
//
// At the barrier, the destination shard merges all inbound mailboxes in
// (arrival time, source shard, source sequence) order and injects them into
// its ControlNet's per-destination delivery queues with fresh local sequence
// numbers, so co-timed cross-shard arrivals drain in exactly that order —
// deterministic across worker-thread counts. The fabric's lookahead is its
// base one-way latency, and the engine takes that as its window, so the
// conservative contract (no arrival lands inside the window it was sent in)
// holds by construction; it is still asserted per datagram.
//
// With one shard the mailboxes are never touched and shard(0) behaves
// exactly like a standalone ControlNet.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/flat_map.hpp"
#include "common/strong_id.hpp"
#include "net/control_net.hpp"
#include "obs/counters.hpp"
#include "sim/rng.hpp"
#include "sim/sharded_engine.hpp"

namespace stank::net {

class ShardedNet final : public sim::ShardExchange {
 public:
  // Shard s's ControlNet is built on engine.shard(s) with RNG stream
  // root.fork(s + 1) — shard 0 of a K=1 fabric draws the same stream as the
  // conventional single ControlNet construction (root.fork(1)).
  ShardedNet(sim::ShardedEngine& engine, sim::Rng root, NetConfig cfg = {});
  ~ShardedNet() override;

  ShardedNet(const ShardedNet&) = delete;
  ShardedNet& operator=(const ShardedNet&) = delete;

  [[nodiscard]] unsigned shard_count() const { return static_cast<unsigned>(nets_.size()); }
  [[nodiscard]] ControlNet& shard(unsigned s) { return *nets_[s]; }

  // Declares that `node` lives on `shard`. Required for every node before
  // the run when shard_count() > 1 (the directory is read concurrently by
  // all shards during windows, so it must be immutable while running).
  void place(NodeId node, unsigned shard);
  [[nodiscard]] unsigned owner_of(NodeId node, unsigned fallback) const {
    const std::uint32_t* s = directory_.find(node);
    return s != nullptr ? *s : fallback;
  }

  // ShardExchange: drains every mailbox destined for dst_shard, merges in
  // (arrival, source shard, source seq) order, injects into the shard net.
  void deliver(unsigned dst_shard, sim::SimTime window_end) override;
  // ShardExchange: every datagram takes at least the base latency (jitter,
  // reorder spikes and bucketing only add), so that is the window.
  [[nodiscard]] sim::Duration lookahead() const override { return nets_[0]->config().latency; }

  // Aggregate of the per-shard fabrics' counters.
  [[nodiscard]] NetStats stats() const;

  // Applies a config to every shard fabric (between run_until calls). A new
  // latency becomes the engine's window at its next run_until.
  void set_config(const NetConfig& cfg);

  // Arms mailbox telemetry: per-(src,dst) exchange volume, cross-shard
  // bytes, and a mailbox-depth high-water gauge, all written into the
  // producing shard's bank (plus an injected-count in the consumer's).
  // Registers K + 4 counters; call before the registry's freeze(). Dark
  // cost is the single `ctr_ != nullptr` branch in post().
  void set_counters(obs::Counters* c);
  // Merged mailbox-depth high-water across shards; 0 until armed. Safe to
  // read between runs (or from a snapshot hook).
  [[nodiscard]] std::uint64_t mailbox_high_water() const {
    return ctr_ != nullptr ? ctr_->merged(mail_hw_) : 0;
  }

 private:
  friend class ControlNet;

  struct CrossItem {
    sim::SimTime at;        // exact sampled arrival instant (pre-bucketing)
    std::uint64_t seq;      // source shard's send sequence
    std::uint32_t src_shard;
    NodeId from;
    NodeId to;
    Bytes bytes;
  };
  // One SPSC mailbox, padded so two producers appending to adjacent
  // mailboxes never contend on a cache line.
  struct alignas(64) Mailbox {
    std::vector<CrossItem> items;
  };

  // Called by shard src's ControlNet during a window (hot path: one vector
  // push_back, no locks, no atomics; the counter sites are plain stores
  // into shard src's own bank behind one dark branch).
  void post(unsigned src, unsigned dst, CrossItem item) {
    const std::size_t nbytes = item.bytes.size();
    auto& box = mail_[src * shard_count() + dst].items;
    box.push_back(std::move(item));
    if (ctr_ != nullptr) {
      ctr_->add_to(src, xshard_to_[dst], 1);
      ctr_->add_to(src, xshard_bytes_, nbytes);
      ctr_->gauge_max(src, mail_hw_, box.size());
    }
  }
  // Attach-time placement check (see ControlNet::attach).
  void note_attach(NodeId node, unsigned shard);

  sim::ShardedEngine* engine_;
  std::vector<std::unique_ptr<ControlNet>> nets_;
  std::vector<Mailbox> mail_;  // [src * K + dst]; diagonal unused
  // Per-destination-shard merge scratch, reused across barriers.
  std::vector<Mailbox> merge_scratch_;
  FlatMap<NodeId, std::uint32_t> directory_;

  // Telemetry (null = dark). xshard_to_[d] is incremented in the SOURCE
  // shard's bank, so slot (s, xshard_to_[d]) is the full (src,dst) exchange
  // volume matrix.
  obs::Counters* ctr_{nullptr};
  std::vector<obs::Counters::Id> xshard_to_;
  obs::Counters::Id xshard_bytes_;
  obs::Counters::Id xshard_in_;
  obs::Counters::Id mail_hw_;
};

}  // namespace stank::net
