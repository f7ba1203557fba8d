// The control network: a connection-less datagram fabric between clients and
// servers (paper section 3: "the protocol operates in a connection-less
// network environment, where messages are datagrams").
//
// Datagrams are byte buffers (the protocol codec produces them), delivery
// takes a sampled latency, packets can be dropped randomly, and a directed
// Reachability relation models arbitrary — including asymmetric — partitions.
// A packet must be deliverable both when it is sent and when it arrives;
// a partition that forms mid-flight eats it.
//
// Beyond independent loss, the fabric models the full misbehaviour a
// datagram network is allowed (and the protocol's dedup/epoch machinery was
// written for):
//  * duplication   — a sent datagram is delivered more than once, each copy
//                    with its own sampled latency;
//  * reordering    — an independent per-datagram delay spike violates FIFO:
//                    later sends overtake the spiked packet;
//  * bursty loss   — a two-state Gilbert–Elliott chain (good/bad channel)
//                    drops runs of consecutive packets, the pattern real
//                    congestion produces and independent loss cannot.
// All of it is driven by the net's own forked sim RNG, so a seed reproduces
// the identical delivery schedule.
//
// Delivery is BATCHED: instead of one engine event per in-flight datagram,
// the net keeps a pending queue per destination and schedules one drain
// event per (destination, delivery-time bucket). A renewal storm of N
// keepalives converging on the server costs one timer, one clock read and
// one heap pop instead of N. Per-packet semantics are untouched because
// every loss/dup/reorder/GE decision and every latency sample is drawn at
// send time in the exact historical RNG order, and the drain replays the
// queued packets sorted by their exact (arrival time, send sequence) — only
// the timer firing is coalesced, rounded up to the bucket edge (default
// 10us against a 200us base latency, well inside jitter).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/flat_map.hpp"
#include "common/small_vec.hpp"
#include "common/strong_id.hpp"
#include "net/reachability.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace stank::net {

class ShardedNet;

struct NetConfig {
  sim::Duration latency{sim::micros(200)};  // one-way base latency
  sim::Duration jitter{sim::micros(50)};    // uniform extra in [0, jitter]
  double drop_probability{0.0};             // random loss, independent per datagram

  // Duplication: each surviving datagram spawns an extra copy with this
  // probability (the copy may itself duplicate again — a geometric tail,
  // like a routing loop). Each copy samples its own latency.
  double dup_probability{0.0};

  // Reordering: with this probability a datagram's delivery is delayed by an
  // extra uniform spike in [0, reorder_spike] on top of latency+jitter.
  // Because every other packet keeps the base delay, a spiked packet is
  // overtaken — FIFO is violated, not merely jittered.
  double reorder_probability{0.0};
  sim::Duration reorder_spike{sim::millis(5)};

  // Bursty loss: two-state Gilbert–Elliott channel. The chain steps once per
  // send; in the bad state packets drop with burst_loss probability.
  // ge_good_to_bad == 0 disables the model entirely.
  double ge_good_to_bad{0.0};   // P(good -> bad) per datagram
  double ge_bad_to_good{0.1};   // P(bad -> good) per datagram
  double burst_loss{1.0};       // loss probability while in the bad state

  // Arrival times are rounded UP to the next multiple of this bucket so
  // co-timed datagrams to one node share a single drain event. Rounding only
  // ever delays a packet (legal in a datagram network) by < one bucket;
  // 1ns disables coalescing entirely.
  sim::Duration delivery_bucket{sim::micros(10)};

  // True if any of the adversarial knobs beyond drop+partition are active.
  [[nodiscard]] bool adversarial() const {
    return dup_probability > 0.0 || reorder_probability > 0.0 || ge_good_to_bad > 0.0;
  }
};

struct NetStats {
  std::uint64_t sent{0};
  std::uint64_t delivered{0};
  std::uint64_t dropped_partition{0};
  std::uint64_t dropped_random{0};
  std::uint64_t dropped_burst{0};
  std::uint64_t dropped_detached{0};
  std::uint64_t duplicated{0};   // extra copies injected
  std::uint64_t reordered{0};    // datagrams given a FIFO-violating spike
  std::uint64_t burst_episodes{0};  // good->bad transitions of the GE chain
  std::uint64_t bytes{0};

  // One-line human summary — what the fabric did to the traffic. Used by the
  // Scenario verdict line and the fuzzer's replay header: a verdict without
  // the loss/dup/reorder counts hides *why* a run went sideways.
  [[nodiscard]] std::string summary() const;
};

// An attached node's receive path; both protocol transports implement it.
class Receiver {
 public:
  // The buffer belongs to the net, which recycles it into the thread-local
  // pool after receive() returns; a receiver that wants to keep the payload
  // moves out of the reference.
  virtual void receive(NodeId from, Bytes& datagram) = 0;

 protected:
  ~Receiver() = default;
};

// A Receiver that forwards to a callable: the probe nodes of tests and
// benches, which have no transport.
template <typename F>
class FnReceiver final : public Receiver {
 public:
  explicit FnReceiver(F f) : f_(std::move(f)) {}
  void receive(NodeId from, Bytes& datagram) override { f_(from, datagram); }

 private:
  F f_;
};

class ControlNet {
 public:
  ControlNet(sim::Engine& engine, sim::Rng rng, NetConfig cfg = {});
  ~ControlNet();
  ControlNet(const ControlNet&) = delete;
  ControlNet& operator=(const ControlNet&) = delete;

  // Registers a node's receiver, which must outlive the attachment. A node
  // that detaches (crash) loses all in-flight traffic addressed to it.
  void attach(NodeId node, Receiver& receiver);
  void detach(NodeId node);
  [[nodiscard]] bool attached(NodeId node) const { return receivers_.contains(node); }

  // Fire-and-forget datagram send; loss is silent, exactly like UDP.
  void send(NodeId from, NodeId to, Bytes datagram);

  [[nodiscard]] Reachability<NodeId>& reachability() { return reach_; }
  [[nodiscard]] const NetStats& stats() const { return stats_; }
  [[nodiscard]] sim::Engine& engine() { return *engine_; }
  // Destinations holding a delivery queue right now: those with datagrams
  // in flight towards them.
  [[nodiscard]] std::size_t dest_queues() const { return queues_.size(); }

  void set_config(NetConfig cfg) { cfg_ = cfg; }
  [[nodiscard]] const NetConfig& config() const { return cfg_; }

  // Attaches the flight recorder: drops, duplications and reorder spikes
  // become typed events (node = sender) so a trace shows what the fabric
  // did to the traffic, not just what survived.
  void set_recorder(obs::Recorder* rec) { rec_ = rec; }

  // Process-wide total of datagrams sent by nets that have been destroyed;
  // accumulated only in ~ControlNet (bench reporting, no hot-path cost).
  [[nodiscard]] static std::uint64_t global_datagrams_sent();

  // --- Sharded operation (installed by ShardedNet) ------------------------
  // Marks this net as shard `shard` of a sharded fabric. send() then routes
  // datagrams whose destination lives on another shard into the owner's SPSC
  // mailbox instead of the local destination queue; every loss/dup/reorder
  // draw and the latency sample still happen here, at send time, in this
  // shard's historical RNG order.
  void bind_shard(ShardedNet* owner, unsigned shard);

  // Insertion of a cross-shard datagram that already carries its sampled
  // arrival time. Only ShardedNet calls this, on the destination shard's
  // worker before a sub-window (or with no worker running); the item gets
  // a fresh local sequence number so injection order (arrival time, source
  // shard, source sequence — pre-sorted by the caller) is preserved through
  // the drain's (arrival, seq) sort.
  void inject(NodeId from, NodeId to, sim::SimTime at, Bytes datagram);

 private:
  // One queued in-flight datagram. `at` is the exact sampled arrival
  // instant (pre-bucketing) and `seq` the global send order — the pair
  // reproduces the per-packet delivery order the unbatched fabric had.
  struct Item {
    sim::SimTime at{};
    std::uint64_t seq{0};
    NodeId from{};
    Bytes bytes;
  };
  // Pending deliveries for one destination plus its single armed drain
  // timer. armed_ns is the bucket edge the timer fires at (kNotArmed when
  // no timer is pending); keeping exactly one timer per destination, always
  // for the earliest bucket, is the whole batching win. The drain that
  // empties a queue erases it: only destinations with traffic in flight
  // hold an entry. A client rarely has more than two datagrams in flight
  // towards it (a reply and a server push), so two items live inline. A
  // busier destination (a server) spills to the heap; when its queue
  // empties, the net keeps that buffer as its one spare and the next queue
  // to spill adopts it, so the steady state allocates nothing.
  static constexpr std::size_t kInlineItems = 2;
  struct DestQueue {
    SmallVec<Item, kInlineItems> items;
    sim::TimerId timer{0};
    std::int64_t armed_ns{kNotArmed};
  };
  static constexpr std::int64_t kNotArmed = INT64_MAX;

  void enqueue_copy(NodeId from, NodeId to, Bytes datagram);
  // Queues the item for `to` and arms the queue's drain for its bucket.
  void push(NodeId to, Item item);
  void deliver(Item& item, NodeId to);
  void drain(NodeId to);
  // After a drain: erases the queue if it is empty, else re-arms it for its
  // earliest remaining bucket.
  void settle(NodeId to);
  void arm(DestQueue& q, NodeId to, std::int64_t slot_ns);
  [[nodiscard]] std::int64_t bucket_of(sim::SimTime at) const {
    const std::int64_t b = cfg_.delivery_bucket.ns;
    if (b <= 1) return at.ns;
    return (at.ns + b - 1) / b * b;
  }
  void note_drop(NodeId from, NodeId to, obs::DropCause cause);

  sim::Engine* engine_;
  sim::Rng rng_;
  NetConfig cfg_;
  // Non-null when this net is one shard of a ShardedNet.
  ShardedNet* sharded_{nullptr};
  unsigned shard_{0};
  obs::Recorder* rec_{nullptr};
  Reachability<NodeId> reach_;
  FlatMap<NodeId, Receiver*> receivers_;
  FlatMap<NodeId, DestQueue> queues_;
  // The largest heap buffer of an emptied queue; empty and inline until a
  // queue first spills.
  SmallVec<Item, kInlineItems> spare_;
  std::vector<Item> drain_scratch_;  // reused batch buffer, never shrunk
  std::uint64_t next_item_seq_{0};
  NetStats stats_;
  bool ge_bad_{false};  // Gilbert–Elliott channel state (false = good)
};

}  // namespace stank::net
