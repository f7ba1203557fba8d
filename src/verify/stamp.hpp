// Self-describing block stamps.
//
// Every block the verified workloads write begins with a stamp naming the
// file, the block index within the file, a per-block monotonically
// increasing version, and the writer. The stamps make the disk history
// self-describing: the omniscient SAN tap can attribute every write without
// consulting file metadata, and readers can report exactly which version
// they observed.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/byte_pool.hpp"
#include "common/bytes.hpp"
#include "common/strong_id.hpp"

namespace stank::verify {

struct Stamp {
  FileId file;
  std::uint64_t block{0};   // file-block index
  std::uint64_t version{0}; // per-(file, block) monotone version
  NodeId writer;

  friend bool operator==(const Stamp&, const Stamp&) = default;
};

inline constexpr std::uint32_t kStampMagic = 0x53544E4Bu;  // "STNK"
inline constexpr std::size_t kStampBytes = 4 + 4 + 8 + 8 + 4;

// Builds a full block of `block_size` bytes carrying the stamp; the filler
// bytes are a deterministic function of the stamp so corruption is
// detectable. Requires block_size >= kStampBytes.
[[nodiscard]] inline Bytes make_stamped_block(std::uint32_t block_size, const Stamp& s) {
  Bytes b = take_buf();  // pooled: workloads stamp one of these per write
  b.reserve(block_size);
  ByteWriter w(b);
  w.u32(kStampMagic);
  w.u32(s.file.value());
  w.u64(s.block);
  w.u64(s.version);
  w.u32(s.writer.value());
  // One resize and an index loop: a push_back per byte re-checks capacity
  // on every filler byte of every write.
  std::uint8_t fill = static_cast<std::uint8_t>(s.version * 131 + s.block * 31 + 7);
  const std::size_t head = b.size();
  if (head < block_size) {
    b.resize(block_size);
    for (std::size_t i = head; i < block_size; ++i) b[i] = fill++;
  }
  return b;
}

// Decodes a stamp from the head of a block; nullopt if the block was never
// stamped (all-zero or foreign data).
[[nodiscard]] inline std::optional<Stamp> decode_stamp(std::span<const std::uint8_t> block) {
  if (block.size() < kStampBytes) {
    return std::nullopt;
  }
  ByteReader r(block.subspan(0, kStampBytes));
  if (r.u32() != kStampMagic) {
    return std::nullopt;
  }
  Stamp s;
  s.file = FileId{r.u32()};
  s.block = r.u64();
  s.version = r.u64();
  s.writer = NodeId{r.u32()};
  return s;
}

}  // namespace stank::verify
