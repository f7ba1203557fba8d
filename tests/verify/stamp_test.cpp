#include "verify/stamp.hpp"

#include <gtest/gtest.h>

namespace stank::verify {
namespace {

TEST(Stamp, RoundTrip) {
  Stamp s{FileId{7}, 42, 9001, NodeId{103}};
  Bytes b = make_stamped_block(128, s);
  ASSERT_EQ(b.size(), 128u);
  auto d = decode_stamp(b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, s);
}

TEST(Stamp, MinimalBlockSize) {
  Stamp s{FileId{1}, 0, 1, NodeId{100}};
  Bytes b = make_stamped_block(static_cast<std::uint32_t>(kStampBytes), s);
  EXPECT_EQ(b.size(), kStampBytes);
  EXPECT_EQ(decode_stamp(b), s);
}

TEST(Stamp, UnstampedBlockDecodesToNothing) {
  EXPECT_FALSE(decode_stamp(Bytes(64, 0)).has_value());
  EXPECT_FALSE(decode_stamp(Bytes(64, 0xFF)).has_value());
  EXPECT_FALSE(decode_stamp(Bytes{}).has_value());
  EXPECT_FALSE(decode_stamp(Bytes(4, 0x4B)).has_value());  // too short
}

TEST(Stamp, FillerIsDeterministic) {
  Stamp s{FileId{1}, 3, 5, NodeId{100}};
  EXPECT_EQ(make_stamped_block(256, s), make_stamped_block(256, s));
  // Different versions produce different blocks even beyond the header.
  Stamp s2 = s;
  s2.version = 6;
  EXPECT_NE(make_stamped_block(256, s), make_stamped_block(256, s2));
}

// The byte-at-a-time construction the block builder replaced: little-endian
// header, then a filler byte sequence counting up (mod 256) from a seed
// derived from the stamp's version and block.
Bytes reference_block(std::uint32_t block_size, const Stamp& s) {
  Bytes b;
  ByteWriter w(b);
  w.u32(kStampMagic);
  w.u32(s.file.value());
  w.u64(s.block);
  w.u64(s.version);
  w.u32(s.writer.value());
  std::uint8_t fill = static_cast<std::uint8_t>(s.version * 131 + s.block * 31 + 7);
  while (b.size() < block_size) b.push_back(fill++);
  return b;
}

TEST(Stamp, BlockBytesMatchTheByteAtATimeLoop) {
  const Stamp stamps[] = {
      {FileId{1}, 0, 1, NodeId{100}},
      {FileId{7}, 42, 9001, NodeId{103}},
      {FileId{0xFFFFFFFFu}, ~0ULL, 0x0123456789ABCDEFULL, NodeId{0xFFFFFFFEu}},
  };
  for (const Stamp& s : stamps) {
    for (std::uint32_t bs : {static_cast<std::uint32_t>(kStampBytes), 256u, 4096u}) {
      const Bytes b = make_stamped_block(bs, s);
      EXPECT_EQ(b, reference_block(bs, s)) << "block_size=" << bs << " version=" << s.version;
    }
  }
  // Spot-check the layout itself: magic "STNK" little-endian, then the first
  // filler byte, 1 * 131 + 0 * 31 + 7 = 138, counting up from there.
  const Bytes b = make_stamped_block(256, stamps[0]);
  EXPECT_EQ(b[0], 0x4B);
  EXPECT_EQ(b[3], 0x53);
  EXPECT_EQ(b[kStampBytes], 138);
  EXPECT_EQ(b[kStampBytes + 1], 139);
  EXPECT_EQ(b[255], static_cast<std::uint8_t>(138 + 255 - kStampBytes));
}

TEST(Stamp, CorruptedMagicRejected) {
  Stamp s{FileId{1}, 0, 1, NodeId{100}};
  Bytes b = make_stamped_block(64, s);
  b[0] ^= 0xFF;
  EXPECT_FALSE(decode_stamp(b).has_value());
}

}  // namespace
}  // namespace stank::verify
