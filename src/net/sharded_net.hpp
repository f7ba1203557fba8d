// The sharded control fabric: one ControlNet per shard of a ShardedEngine,
// stitched together with per-(source shard, destination shard) mailbox
// rings that the engine's sub-window protocol keeps single-producer and
// single-consumer.
//
// Node ownership is static: every node is place()d on exactly one shard
// before the run and attaches to that shard's ControlNet. A send whose
// destination lives on the sender's shard takes the ordinary serial path; a
// cross-shard send performs ALL of its random draws (partition check, GE
// chain, loss, duplication, latency, jitter, reorder spike) on the sender's
// shard at send time — so each shard's RNG stream is a pure function of that
// shard's execution — and posts {arrival time, seq, from, to, bytes} into
// the destination's mailbox ring, in the slot of the sender's current
// sub-window mod 4. The destination takes a slot in when it opens the
// sub-window two later. Mailboxes are lock-free: the engine lets no shard
// start sub-window m+2 before every shard has finished m, so while a
// consumer drains slot m (opening m+2) every producer is between m+1 and
// m+3 — four slots, never the one being drained — and the progress
// counters order each slot's writes before its drain and its drain before
// its next writes (see sim/sharded_engine.hpp).
//
// When a shard opens a sub-window it merges the slot from every source in
// (arrival time, source shard, source sequence) order and injects the items
// into its ControlNet's per-destination delivery queues with fresh local
// sequence numbers, so co-timed cross-shard arrivals drain in exactly that
// order — deterministic across worker-thread counts. The fabric's lookahead
// is its base one-way latency and the engine's sub-window is half of it, so
// the conservative contract (nothing arrives before the sub-window that
// takes it in starts) holds by construction; it is still asserted per
// datagram.
//
// With one shard the mailboxes are never touched and shard(0) behaves
// exactly like a standalone ControlNet.
#pragma once

#include <algorithm>
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

  // ShardExchange: takes in slot sub−2 of every ring destined for `shard`
  // (merged in (arrival, source shard, source seq) order, injected into the
  // shard net) and points the shard's own posts at slot sub.
  void open(unsigned shard, std::uint64_t sub, sim::SimTime start) override;
  [[nodiscard]] sim::SimTime earliest_posted(unsigned shard) const override {
    return sim::SimTime{producer_[shard].posted_min_ns};
  }
  // ShardExchange: takes in every slot of every ring.
  void flush(sim::SimTime now) override;
  // ShardExchange: every datagram takes at least the base latency (jitter,
  // reorder spikes and bucketing only add), so that is the lookahead.
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
  // One SPSC mailbox slot, padded so two producers appending to adjacent
  // slots never contend on a cache line.
  struct alignas(64) Mailbox {
    std::vector<CrossItem> items;
  };
  static constexpr unsigned kSlots = 4;
  // A shard's producer-side state; written only by its owning worker.
  struct alignas(64) Producer {
    unsigned slot{0};  // current sub-window mod kSlots
    std::int64_t posted_min_ns{sim::Engine::kNever.ns};
  };

  [[nodiscard]] Mailbox& box(unsigned src, unsigned dst, unsigned slot) {
    return mail_[(src * shard_count() + dst) * kSlots + slot];
  }
  // Merges `slots` of every ring destined for dst and injects them; each
  // item must arrive at or after `not_before`.
  void take_in(unsigned dst, unsigned first_slot, unsigned slots, sim::SimTime not_before);

  // Called by shard src's ControlNet during a sub-window (hot path: one
  // vector push_back and a min, no locks, no atomics; the counter sites are
  // plain stores into shard src's own bank behind one dark branch).
  void post(unsigned src, unsigned dst, CrossItem item) {
    const std::size_t nbytes = item.bytes.size();
    Producer& p = producer_[src];
    p.posted_min_ns = std::min(p.posted_min_ns, item.at.ns);
    auto& items = box(src, dst, p.slot).items;
    items.push_back(std::move(item));
    if (ctr_ != nullptr) {
      ctr_->add_to(src, xshard_to_[dst], 1);
      ctr_->add_to(src, xshard_bytes_, nbytes);
      ctr_->gauge_max(src, mail_hw_, items.size());
    }
  }
  // Attach-time placement check (see ControlNet::attach).
  void note_attach(NodeId node, unsigned shard);

  sim::ShardedEngine* engine_;
  std::vector<std::unique_ptr<ControlNet>> nets_;
  std::vector<Mailbox> mail_;  // [(src * K + dst) * kSlots + slot]; diagonal unused
  std::vector<Producer> producer_;
  // Per-destination-shard merge scratch, reused across sub-windows.
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
