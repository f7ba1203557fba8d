// Event counters shared by the protocol, lease, and lock layers.
//
// These counters are what the paper's quantitative claims are made of:
// "invokes no message overhead, and uses no memory and performs no
// computation at the locking authority" (abstract). The bench harnesses
// read them to build tables T1/T2/T5.
#pragma once

#include <cstdint>

namespace stank::metrics {

struct Counters {
  // Control-network frames, by kind.
  std::uint64_t requests_sent{0};
  std::uint64_t acks_sent{0};
  std::uint64_t nacks_sent{0};
  std::uint64_t server_msgs_sent{0};
  std::uint64_t client_acks_sent{0};
  std::uint64_t retransmissions{0};
  // Datagrams dropped on receipt because they did not decode or carried a
  // frame kind this endpoint never accepts.
  std::uint64_t frames_rejected{0};

  // Messages whose SOLE purpose is lease maintenance (keep-alives, explicit
  // per-object renewals, heartbeats). Opportunistic renewals piggybacked on
  // real traffic do not count — that is the paper's point.
  std::uint64_t lease_only_msgs{0};

  // Lease-specific work performed at this node (timer arms, table updates,
  // expiry scans). The Storage Tank server's count must stay 0 during
  // failure-free operation.
  std::uint64_t lease_ops{0};

  // Lock manager activity (server side).
  std::uint64_t lock_grants{0};
  std::uint64_t lock_demands{0};
  std::uint64_t lock_steals{0};
  // Duplicate requests answered from the reply cache instead of re-executed
  // (exactly-once transport). A high rate means the fabric is eating ACKs.
  std::uint64_t reply_cache_hits{0};
  std::uint64_t fences_issued{0};
  // Fence rounds re-issued because a disk did not acknowledge the fence
  // admin command (e.g. a server<->disk SAN partition). The steal is held
  // until a round completes on every disk.
  std::uint64_t fence_retries{0};

  // Metadata transactions served (server side) — the paper's section 1.1
  // argues a SAN server is measured in transactions/second.
  std::uint64_t transactions{0};

  // Data-path bytes shipped through the server (zero for Storage Tank;
  // nonzero for the traditional data-shipping baseline of T5).
  std::uint64_t server_data_bytes{0};

  Counters& operator+=(const Counters& o) {
    requests_sent += o.requests_sent;
    acks_sent += o.acks_sent;
    nacks_sent += o.nacks_sent;
    server_msgs_sent += o.server_msgs_sent;
    client_acks_sent += o.client_acks_sent;
    retransmissions += o.retransmissions;
    frames_rejected += o.frames_rejected;
    lease_only_msgs += o.lease_only_msgs;
    lease_ops += o.lease_ops;
    lock_grants += o.lock_grants;
    lock_demands += o.lock_demands;
    lock_steals += o.lock_steals;
    reply_cache_hits += o.reply_cache_hits;
    fences_issued += o.fences_issued;
    fence_retries += o.fence_retries;
    transactions += o.transactions;
    server_data_bytes += o.server_data_bytes;
    return *this;
  }

  [[nodiscard]] std::uint64_t total_frames() const {
    return requests_sent + acks_sent + nacks_sent + server_msgs_sent + client_acks_sent;
  }
};

}  // namespace stank::metrics
