// Block I/O request/response types for the storage area network.
//
// The paper is emphatic (section 2) that SAN disks are dumb: they move
// blocks and, at most, honor a fence list. The entire disk interface is
// therefore: read blocks, write blocks, and admin fence/unfence — nothing a
// commodity drive of the era could not do.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/move_fn.hpp"
#include "common/result.hpp"
#include "common/strong_id.hpp"

namespace stank::storage {

using BlockAddr = std::uint64_t;

enum class IoOp : std::uint8_t { kRead, kWrite };

struct IoRequest {
  NodeId initiator;      // who is performing the I/O (fencing is per-initiator)
  DiskId disk;
  IoOp op{IoOp::kRead};
  BlockAddr addr{0};     // first block
  std::uint32_t count{1};
  Bytes data;            // write payload (count * block_size bytes); empty for reads
  // Registration key: (server incarnation << 32) | session epoch. After an
  // unfence the disk only honors commands carrying the NEW key, so a slow
  // command issued before the fence can never land after it — SCSI-3
  // persistent reservation style. The incarnation half matters because epoch
  // numbers restart at 1 on every server reboot: a bare-epoch key from a
  // pre-restart session could collide with a freshly installed one.
  std::uint64_t io_key{0};
};

struct IoResult {
  Status status;
  Bytes data;  // read payload on success
};

// Move-only: a completion captures its issuer's pointer and an op handle,
// and always fits inline.
using IoCallback = MoveFn<void(IoResult)>;

// Administrative commands the locking authority sends to devices. Fencing by
// initiator id is exactly the capability the paper assumes of SAN devices or
// switches.
enum class AdminOp : std::uint8_t { kFence, kUnfence };

struct AdminRequest {
  NodeId requester;  // the server issuing the command
  DiskId disk;
  AdminOp op{AdminOp::kFence};
  NodeId target;     // initiator to (un)fence
  // kUnfence: the registration key future commands must carry (0 = accept
  // any, restoring the pre-fence state).
  std::uint64_t new_key{0};
};

using AdminCallback = MoveFn<void(Status)>;

}  // namespace stank::storage
