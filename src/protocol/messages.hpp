// Storage Tank control-network message types.
//
// Clients talk to servers for metadata and locks only; data never crosses
// this network. Every client-initiated request is acknowledged (ACK,
// carrying a reply body) or negatively acknowledged (NACK — the server has
// begun timing out the client's lease, section 3.3). Server-initiated
// messages (lock demands) require a transport-level client ACK; failure to
// receive one is the delivery error that makes the server declare the client
// suspect.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <variant>
#include <vector>

#include "common/result.hpp"
#include "common/strong_id.hpp"
#include "storage/io.hpp"

namespace stank::protocol {

// Data-lock modes. Shared permits cached reads; Exclusive permits write-back
// caching and direct writes to the SAN.
enum class LockMode : std::uint8_t { kNone = 0, kShared = 1, kExclusive = 2 };

[[nodiscard]] constexpr const char* to_string(LockMode m) {
  switch (m) {
    case LockMode::kNone: return "none";
    case LockMode::kShared: return "shared";
    case LockMode::kExclusive: return "exclusive";
  }
  return "?";
}

// Highest valid LockMode: the codec rejects a mode byte above it. The
// static_assert fails if a mode is appended without moving the bound.
[[nodiscard]] constexpr LockMode max_enumerator(LockMode) { return LockMode::kExclusive; }
static_assert(std::string_view(to_string(static_cast<LockMode>(
                  static_cast<int>(max_enumerator(LockMode{})) + 1))) == "?");

// True if two locks may be held simultaneously by different clients.
[[nodiscard]] constexpr bool compatible(LockMode a, LockMode b) {
  if (a == LockMode::kNone || b == LockMode::kNone) return true;
  return a == LockMode::kShared && b == LockMode::kShared;
}

// Wire format. Every message struct below names its fields once, in wire
// order, in a static tie(); protocol/codec.cpp derives encode, decode,
// encoded_size and range validation from that list alone. Field types fix
// the encoding: bool and enums are one byte (enums range-checked against
// their max_enumerator), u32/u64 and ids are little-endian, strings, byte
// payloads and vectors carry a u32 length prefix.
struct FileAttr {
  std::uint64_t size{0};       // bytes
  std::uint64_t mtime_ns{0};   // server-local modification stamp
  std::uint32_t meta_version{0};
  template <class S> static auto tie(S& s) { return std::tie(s.size, s.mtime_ns, s.meta_version); }
};

// A run of blocks on one disk. File data lives on shared SAN disks; the
// extent list is the metadata clients need to do direct I/O.
struct Extent {
  DiskId disk;
  storage::BlockAddr start{0};
  std::uint32_t count{0};
  template <class S> static auto tie(S& s) { return std::tie(s.disk, s.start, s.count); }
};

// ---------------------------------------------------------------------------
// Client -> server request bodies.

struct OpenReq {
  std::string path;
  bool create{false};
  template <class S> static auto tie(S& s) { return std::tie(s.path, s.create); }
};
struct CloseReq {
  FileId file;
  template <class S> static auto tie(S& s) { return std::tie(s.file); }
};
// Acquire or upgrade a data lock.
struct LockReq {
  FileId file;
  LockMode mode{LockMode::kShared};
  template <class S> static auto tie(S& s) { return std::tie(s.file, s.mode); }
};
// Voluntarily release or downgrade. Carries the lock generation the client
// believes it holds; the server ignores the request if a newer grant is in
// flight (see "Lock generations" below). Also echoes the grant cookie:
// generations are small guessable counters, so without the cookie a client
// could forge a release for a grant it never received — the server would
// free the lock while the real grant is still in flight, and the holder
// would later write under a lock the server had already re-granted
// (found by tools/fuzz_safety --byzantine, forge-lock-claims). The cookie is
// an unguessable per-grant secret only the grant's recipient knows, so a
// release proves receipt of the grant it renounces.
struct UnlockReq {
  FileId file;
  LockMode downgrade_to{LockMode::kNone};
  std::uint32_t gen{0};
  std::uint64_t cookie{0};
  template <class S>
  static auto tie(S& s) { return std::tie(s.file, s.downgrade_to, s.gen, s.cookie); }
};
// Client's protocol-level answer to a LockDemand, sent after it has flushed
// dirty data covered by the demanded lock. Echoes the demand's generation so
// a compliance that crossed a newer grant in flight is discarded, and the
// grant cookie so compliance cannot be forged (see UnlockReq).
struct DemandDoneReq {
  FileId file;
  LockMode new_mode{LockMode::kNone};
  std::uint32_t gen{0};
  std::uint64_t cookie{0};
  template <class S> static auto tie(S& s) { return std::tie(s.file, s.new_mode, s.gen, s.cookie); }
};
struct GetAttrReq {
  FileId file;
  template <class S> static auto tie(S& s) { return std::tie(s.file); }
};
// Grow (allocating blocks) or — with truncate set — shrink a file. Without
// truncate the request is grow-only: a client holding stale attributes must
// not be able to shrink a file another client extended.
struct SetSizeReq {
  FileId file;
  std::uint64_t new_size{0};
  bool truncate{false};
  template <class S> static auto tie(S& s) { return std::tie(s.file, s.new_size, s.truncate); }
};
// The paper's NULL message: encodes no file-system or lock operation, exists
// solely to solicit an ACK that renews the lease (lease phase 2).
struct KeepAliveReq {
  template <class S> static auto tie(S&) { return std::tie(); }
};
// (Re-)establish a session. A client whose lease expired must re-register
// under a fresh epoch before the server will serve it again.
struct RegisterReq {
  template <class S> static auto tie(S&) { return std::tie(); }
};
// V-system-style per-object lease renewal (baseline only): keeps ONE cached
// object alive. Storage Tank never sends these; the comparison is table T1.
struct RenewObjReq {
  FileId file;
  template <class S> static auto tie(S& s) { return std::tie(s.file); }
};
// Re-establish a lock after a SERVER failure (paper section 6: client-driven
// lock reassertion). Valid only during the restarted server's grace period;
// the client's cache stays intact if the reassertion succeeds.
struct ReassertLockReq {
  FileId file;
  LockMode mode{LockMode::kNone};
  template <class S> static auto tie(S& s) { return std::tie(s.file, s.mode); }
};
// Data ops shipped through the server (traditional client/server baseline,
// table T5, and the NFS-style polling baseline). Storage Tank clients do
// direct SAN I/O instead.
struct ReadDataReq {
  FileId file;
  std::uint64_t offset{0};
  std::uint32_t len{0};
  template <class S> static auto tie(S& s) { return std::tie(s.file, s.offset, s.len); }
};
struct WriteDataReq {
  FileId file;
  std::uint64_t offset{0};
  Bytes data;
  template <class S> static auto tie(S& s) { return std::tie(s.file, s.offset, s.data); }
};

// Alternatives are append-only: index() + 1 is the wire tag.
using RequestBody =
    std::variant<OpenReq, CloseReq, LockReq, UnlockReq, DemandDoneReq, GetAttrReq, SetSizeReq,
                 KeepAliveReq, RegisterReq, RenewObjReq, ReadDataReq, WriteDataReq,
                 ReassertLockReq>;

// ---------------------------------------------------------------------------
// Server -> client reply bodies (carried inside an ACK).

struct OkReply {
  template <class S> static auto tie(S&) { return std::tie(); }
};
struct ErrReply {
  ErrorCode code{ErrorCode::kInvalidArgument};
  template <class S> static auto tie(S& s) { return std::tie(s.code); }
};
struct OpenReply {
  FileId file;
  FileAttr attr;
  std::vector<Extent> extents;
  template <class S> static auto tie(S& s) { return std::tie(s.file, s.attr, s.extents); }
};
struct LockReply {
  bool granted{false};
  LockMode mode{LockMode::kNone};
  std::uint32_t gen{0};        // lock generation of this grant (granted only)
  std::uint64_t cookie{0};     // per-grant secret to echo in releases (granted only)
  template <class S> static auto tie(S& s) { return std::tie(s.granted, s.mode, s.gen, s.cookie); }
};
struct AttrReply {
  FileAttr attr;
  std::vector<Extent> extents;
  template <class S> static auto tie(S& s) { return std::tie(s.attr, s.extents); }
};
struct RegisterReply {
  std::uint32_t epoch{0};
  // Bumped every time the server restarts; a change tells the client the
  // server lost its lock state and reassertion is in order.
  std::uint32_t incarnation{1};
  template <class S> static auto tie(S& s) { return std::tie(s.epoch, s.incarnation); }
};
struct DataReply {
  Bytes data;
  template <class S> static auto tie(S& s) { return std::tie(s.data); }
};

// Alternatives are append-only: index() + 1 is the wire tag.
using ReplyBody =
    std::variant<OkReply, ErrReply, OpenReply, LockReply, AttrReply, RegisterReply, DataReply>;

// ---------------------------------------------------------------------------
// Server-initiated bodies (require a transport-level client ACK).
//
// Lock generations: the control network is a datagram network — demands,
// grants and compliance messages for the same (client, file) lock can cross
// in flight. Every grant the server issues bumps a per-(client, file)
// generation; demands name the generation they revoke and compliance echoes
// it. A message carrying a stale generation is discarded by whichever side
// receives it, and one carrying a future generation is deferred until the
// intervening grant arrives. This keeps both ends' view of the lock state
// convergent without assuming ordered delivery.

// Demand that the holder downgrade its lock on `file` to at most `max_mode`,
// flushing dirty data first. The client answers with DemandDoneReq.
struct LockDemand {
  FileId file;
  LockMode max_mode{LockMode::kNone};
  std::uint32_t gen{0};  // generation of the holder's lock being demanded
  template <class S> static auto tie(S& s) { return std::tie(s.file, s.max_mode, s.gen); }
};

// Grants a previously queued lock request (LockReply{granted=false}) once
// conflicting holders have been demanded away.
struct LockGrant {
  FileId file;
  LockMode mode{LockMode::kNone};
  std::uint32_t gen{0};
  std::uint64_t cookie{0};  // per-grant secret to echo in releases
  template <class S> static auto tie(S& s) { return std::tie(s.file, s.mode, s.gen, s.cookie); }
};

// Alternatives are append-only: index() + 1 is the wire tag.
using ServerBody = std::variant<LockDemand, LockGrant>;

// ---------------------------------------------------------------------------
// Transport frame.

enum class FrameKind : std::uint8_t {
  kRequest = 1,    // client -> server, body = RequestBody
  kAck = 2,        // server -> client, answers msg_id, body = ReplyBody
  kNack = 3,       // server -> client, answers msg_id, no body
  kServerMsg = 4,  // server -> client, body = ServerBody
  kClientAck = 5,  // client -> server, answers msg_id, no body
};

struct Frame {
  FrameKind kind{FrameKind::kRequest};
  NodeId sender;
  MsgId msg_id;            // fresh id for kRequest/kServerMsg; echoed id otherwise
  std::uint32_t epoch{0};  // client session epoch
  // Server incarnation the frame was issued under (server-originated frames
  // only; clients send 0). Epoch numbers restart at 1 in every incarnation
  // and server msg_ids restart on every reboot, so a replayed pre-restart
  // server message can carry a perfectly current-looking (epoch, msg_id)
  // pair — the incarnation stamp is what lets the client reject it.
  std::uint32_t incarnation{0};
  std::variant<std::monostate, RequestBody, ReplyBody, ServerBody> body;
};

[[nodiscard]] constexpr const char* to_string(FrameKind k) {
  switch (k) {
    case FrameKind::kRequest: return "request";
    case FrameKind::kAck: return "ack";
    case FrameKind::kNack: return "nack";
    case FrameKind::kServerMsg: return "server-msg";
    case FrameKind::kClientAck: return "client-ack";
  }
  return "?";
}

}  // namespace stank::protocol
