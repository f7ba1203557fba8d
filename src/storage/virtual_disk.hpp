// A dumb shared block device.
//
// Holds a sparse array of fixed-size blocks and a fence list of initiators
// whose I/O it must reject. It keeps no locks, no leases, no views — per the
// paper, drives "cannot execute non-storage code".
#pragma once

#include <optional>
#include <unordered_map>

#include "common/strong_id.hpp"
#include "storage/io.hpp"

namespace stank::storage {

class VirtualDisk {
 public:
  VirtualDisk(DiskId id, BlockAddr capacity_blocks, std::uint32_t block_size);

  [[nodiscard]] DiskId id() const { return id_; }
  [[nodiscard]] BlockAddr capacity() const { return capacity_; }
  [[nodiscard]] std::uint32_t block_size() const { return block_size_; }

  // Executes one I/O synchronously (the SAN fabric models latency around
  // this call). Enforces the fence list and bounds.
  [[nodiscard]] IoResult execute(const IoRequest& req);

  // Admin path. Three per-initiator states:
  //   no entry        — accept any command (the default),
  //   blocked         — accept none (fenced),
  //   keyed(k)        — accept only commands carrying io_key == k.
  void fence(NodeId initiator) { keys_[initiator] = std::nullopt; }
  // new_key == 0 restores accept-any; otherwise only that key is honored,
  // which permanently locks out commands issued under older registrations.
  void unfence(NodeId initiator, std::uint64_t new_key = 0) {
    if (new_key == 0) {
      keys_.erase(initiator);
    } else {
      keys_[initiator] = new_key;
    }
  }
  [[nodiscard]] bool is_fenced(NodeId initiator) const {
    auto it = keys_.find(initiator);
    return it != keys_.end() && !it->second.has_value();
  }

  // Omniscient access for the verifier and tests only: reads the current
  // content of a block without going through the SAN. Returns an empty
  // buffer for never-written blocks.
  [[nodiscard]] Bytes peek(BlockAddr addr) const;
  [[nodiscard]] bool ever_written(BlockAddr addr) const { return blocks_.contains(addr); }

  // Statistics a real drive would expose.
  [[nodiscard]] std::uint64_t reads_served() const { return reads_; }
  [[nodiscard]] std::uint64_t writes_served() const { return writes_; }
  [[nodiscard]] std::uint64_t fenced_rejections() const { return fence_rejects_; }
  // Rejections attributed to one initiator — the byzantine harness uses this
  // to credit the trusted base with the writes each misbehavior lost.
  [[nodiscard]] std::uint64_t fenced_rejections(NodeId initiator) const {
    auto it = rejects_by_initiator_.find(initiator);
    return it == rejects_by_initiator_.end() ? 0 : it->second;
  }

 private:
  DiskId id_;
  BlockAddr capacity_;
  std::uint32_t block_size_;
  std::unordered_map<BlockAddr, Bytes> blocks_;
  // nullopt = blocked; value = required io_key.
  std::unordered_map<NodeId, std::optional<std::uint64_t>> keys_;
  std::unordered_map<NodeId, std::uint64_t> rejects_by_initiator_;
  std::uint64_t reads_{0};
  std::uint64_t writes_{0};
  std::uint64_t fence_rejects_{0};
};

}  // namespace stank::storage
