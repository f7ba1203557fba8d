// The storage area network fabric.
//
// Routes block I/O and admin (fence) commands from initiators — clients and
// servers — to disks, with its own latency model and its own independent
// partition state. The paper's "two network problem" arises exactly because
// this fabric and the control network fail independently: a client cut off
// from the server usually still reaches the disks, and vice versa.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "net/reachability.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "storage/io.hpp"
#include "storage/virtual_disk.hpp"

namespace stank::storage {

struct SanStats {
  std::uint64_t ios_submitted{0};
  std::uint64_t ios_completed{0};
  std::uint64_t ios_failed_partition{0};
  std::uint64_t ios_failed_fenced{0};
  std::uint64_t admin_ops{0};
  std::uint64_t bytes_transferred{0};
};

class SanFabric {
 public:
  // Submit-to-completion service time: kLatency plus up to kJitter drawn
  // per command. A command that cannot reach its disk fails with kIoError
  // after kErrorTimeout: the initiator observes a timeout, not an instant
  // failure.
  static constexpr sim::Duration kLatency = sim::micros(500);
  static constexpr sim::Duration kJitter = sim::micros(100);
  static constexpr sim::Duration kErrorTimeout = sim::millis(50);

  SanFabric(sim::Engine& engine, sim::Rng rng);

  // The fabric owns its disks.
  VirtualDisk& add_disk(DiskId id, BlockAddr capacity_blocks, std::uint32_t block_size);
  [[nodiscard]] VirtualDisk& disk(DiskId id);
  [[nodiscard]] const VirtualDisk& disk(DiskId id) const;

  // Submits block I/O; the callback always fires (kFenced on rejection,
  // kIoError on partition) unless the fabric is destroyed first.
  void submit(IoRequest req, IoCallback cb);

  // Admin command from a server to a disk: travels the SAN like any other
  // command, so a SAN partition between server and disk makes fencing fail.
  void submit_admin(AdminRequest req, AdminCallback cb);

  // Initiator-to-disk reachability (directed, per the two-network model).
  [[nodiscard]] net::Reachability<NodeId, DiskId>& reachability() { return reach_; }

  // Omniscient observation tap for the verifier: fires for every I/O the
  // disk actually executed successfully (at its completion time). Not part
  // of the modelled system.
  std::function<void(const IoRequest&, const IoResult&, sim::SimTime)> on_io;

  [[nodiscard]] const SanStats& stats() const { return stats_; }

  // Extra service delay for every later command of one initiator; models
  // the paper's "slow computer" whose late commands fencing must stop.
  void set_initiator_delay(NodeId initiator, sim::Duration delay) {
    initiator_delay_[initiator] = delay;
  }

 private:
  // One submitted I/O between submit() and its completion event. Slots are
  // recycled through a free list, so the engine event captures only
  // {this, slot} and the table grows only with the I/Os in flight.
  struct InFlight {
    IoRequest req;
    IoCallback cb;
    std::uint32_t next_free{0};
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  sim::Duration service_delay(NodeId initiator);
  std::uint32_t park(IoRequest req, IoCallback cb);
  // Empties a slot onto the free list and hands back its contents.
  InFlight unpark(std::uint32_t slot);
  void complete(std::uint32_t slot);
  void fail_lost(std::uint32_t slot);

  sim::Engine* engine_;
  sim::Rng rng_;
  std::unordered_map<NodeId, sim::Duration> initiator_delay_;
  net::Reachability<NodeId, DiskId> reach_;
  std::unordered_map<DiskId, std::unique_ptr<VirtualDisk>> disks_;
  SanStats stats_;
  std::vector<InFlight> inflight_;
  std::uint32_t free_slot_{kNoSlot};
};

}  // namespace stank::storage
